package kernel

import "sync"

// ScratchPool is a step-spanning free list of worker scratches: a
// search that issues many engine batches (the greedy steps of a
// Disaggregate run, the requests of a serving front-end) draws warm
// scratches from the pool instead of rebuilding them per batch, so
// retained state — the packaging estimator's per-node communication
// memo and per-area package-term memo, a param plan's sandbox — survives
// across the whole search. Safe because every retained cache verifies
// or is keyed by its exact inputs, so a reused scratch can only be
// faster, never different.
//
// Put hands each returned scratch to the release hook given at
// construction, which folds the scratch's counters into their owner
// (ParamPlan.Fold for a param plan's pool, the search's floorplan fold
// for Disaggregate). Concurrent Puts run the hook concurrently, so it
// synchronizes its owner's totals itself.
type ScratchPool[S any] struct {
	newFn   func() (S, error)
	release func(S)

	// A mutex-guarded free list, not a sync.Pool: the pool's whole point
	// is RETAINING warm state across batches, and sync.Pool may drop its
	// contents at any GC — which would silently discard the memos
	// mid-search (and make reuse statistics GC-timing-dependent).
	// Pools are search-scoped, so the free list's lifetime is trivially
	// bounded.
	mu     sync.Mutex
	free   []S
	reuses uint64
}

// NewScratchPool builds a pool whose scratches come from newFn and are
// released through release on every Put.
func NewScratchPool[S any](newFn func() (S, error), release func(S)) *ScratchPool[S] {
	return &ScratchPool[S]{newFn: newFn, release: release}
}

// Get draws a warm scratch from the pool or builds a fresh one.
func (p *ScratchPool[S]) Get() (S, error) {
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

// Put releases the scratch's counters through the pool's hook and
// returns it for reuse.
func (p *ScratchPool[S]) Put(sc S) {
	p.release(sc)
	p.mu.Lock()
	p.free = append(p.free, sc)
	p.mu.Unlock()
}

// Reuses returns how many Get calls were served by a pooled scratch.
func (p *ScratchPool[S]) Reuses() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reuses
}
