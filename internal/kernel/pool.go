package kernel

import (
	"sync"

	"ecochip/internal/floorplan"
)

// ScratchPool is a step-spanning pool of worker scratches, modeled on
// the scratch pooling of explore's CompiledPlan: a search that issues
// many engine batches (the greedy steps of a Disaggregate run, the
// requests of a serving front-end) draws warm scratches from the pool
// instead of rebuilding estimators per batch, so retained state — the
// packaging estimator's floorplan trees, its per-node communication
// memo and its per-area package-term memo — survives across the whole
// search. Safe because every retained cache verifies or is keyed by its
// exact inputs, so a reused scratch can only be faster, never different.
//
// The pool also owns the floorplan-stats accounting: Put folds the
// increment of each scratch's retained-tree counters into the pool
// totals (FloorplanStats), so callers get aggregate reuse rates without
// double counting a scratch's history. Put likewise folds a param-plan
// scratch's counters into its plan (ParamPlan.Fold).
type ScratchPool struct {
	newFn func() (*Scratch, error)

	// A mutex-guarded free list, not a sync.Pool: the pool's whole point
	// is RETAINING warm state across batches, and sync.Pool may drop its
	// contents at any GC — which would silently discard the memos and
	// trees mid-search (and make reuse statistics GC-timing-dependent).
	// Pools are search-scoped, so the free list's lifetime is trivially
	// bounded.
	mu     sync.Mutex
	free   []*Scratch
	reuses uint64
	folded floorplan.TreeStats
}

// NewScratchPool builds a pool whose scratches come from newFn.
func NewScratchPool(newFn func() (*Scratch, error)) *ScratchPool {
	return &ScratchPool{newFn: newFn}
}

// Get draws a warm scratch from the pool or builds a fresh one.
func (p *ScratchPool) Get() (*Scratch, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		sc := p.free[n-1]
		p.free = p.free[:n-1]
		p.reuses++
		p.mu.Unlock()
		return sc, nil
	}
	p.mu.Unlock()
	return p.newFn()
}

// Put folds the scratch's new floorplan work into the pool totals (and
// a param-plan scratch's counters into its plan) and returns it for
// reuse.
func (p *ScratchPool) Put(sc *Scratch) {
	if plan := sc.hooks.plan; plan != nil {
		plan.Fold(sc)
	}
	cur := sc.FloorplanStats()
	delta := cur.Delta(sc.fpFolded)
	sc.fpFolded = cur
	p.mu.Lock()
	p.folded.Add(delta)
	p.free = append(p.free, sc)
	p.mu.Unlock()
}

// Reuses returns how many Get calls were served by a pooled scratch.
func (p *ScratchPool) Reuses() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reuses
}

// FloorplanStats returns the folded retained-tree counters of every
// scratch returned through Put.
func (p *ScratchPool) FloorplanStats() floorplan.TreeStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.folded
}
