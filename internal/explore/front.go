package explore

import (
	"context"
	"sort"
	"sync"

	"ecochip/internal/engine"
)

// This file holds the one skyline fold every Pareto reduction of a
// compiled plan runs through: the barrier front (ParetoFrontCtx), the
// streamed front (ParetoFrontStream) and the per-segment front a shard
// replica ships (WalkRangeFront). Each walker folds the points it
// streams into a blockFront; survivors are merged, restored to
// output-slot order and passed once through ParetoFront. Dominance is
// transitive, so any point a partial fold eliminates would also be
// eliminated by that final full-information pass, whatever the
// partition — which is why every path returns the same bits.

// frontQuantum is the sequence-index grain of a streamed front's
// progress: walkers publish their survivors at every multiple of it,
// and FrontSnapshot.BlocksDone counts the quanta whose points have all
// been published. It equals the shard protocol's default block size.
const frontQuantum = 512

// FrontSnapshot is one incremental view of a streamed front: the Pareto
// front of every point published so far, with the walk's progress in
// 512-point blocks of the sequence index. Front is owned by the
// receiver.
type FrontSnapshot struct {
	// Front is the skyline of all points published so far, in the order
	// ParetoFront returns.
	Front []Point `json:"front"`
	// BlocksDone / TotalBlocks is the walk's progress; the final
	// snapshot always has BlocksDone == TotalBlocks.
	BlocksDone  int `json:"blocksDone"`
	TotalBlocks int `json:"totalBlocks"`
}

// ParetoFrontCtx runs the plan and reduces the sweep to its Pareto front
// under the given objectives, returning the front and the plan's point
// count, Combos(). The reduction is folded into the sweep walk: each
// worker block maintains its own skyline front over the points it
// streams (storing objective values and output slots, not points), the
// block fronts are merged at the barrier, and only then are the
// surviving points materialized — front-only callers never allocate the
// full point slice. The returned front is identical to
// ParetoFront(RunCtx(...), objectives...). It is ParetoFrontStream with
// no emitter.
//
// A plan with interchangeable chiplets (see orbit.go) whose objectives
// are all among ByEmbodied, ByTotal, ByCost and ByArea, and whose orbits
// number fewer than half its points, skips the walk: it evaluates one
// representative per orbit, prunes the orbits a representative's
// skyline beats by a margin, and folds the front from every member of
// the rest. The front keeps the walk's bits; SweepStats.Points counts
// only the points evaluated, and a WithProgress callback counts the
// representatives against the orbit count instead of the points.
func (p *CompiledPlan) ParetoFrontCtx(ctx context.Context, objectives []Metric, opts ...engine.Option) ([]Point, int, error) {
	return p.ParetoFrontStream(ctx, objectives, nil, opts...)
}

// ParetoFrontStream is ParetoFrontCtx that also streams the front as the
// walk runs. Each worker publishes its block front into a shared skyline
// at every 512-point boundary of the sequence index, and snapshots of
// that skyline go to emit. Snapshots coalesce under load: emit is never
// called concurrently, and a slow consumer sees fewer, fresher
// snapshots, not a backlog. Every snapshot is the exact front of the
// points it covers, so a point leaves only when a newly published point
// dominates it. The final snapshot (BlocksDone == TotalBlocks) is
// emitted exactly once and carries the returned front. An emit error
// cancels the walk and is returned. A nil emit publishes once per worker
// block, with no per-quantum locking, or takes the orbit path described
// under ParetoFrontCtx; a stream with an emitter always walks.
func (p *CompiledPlan) ParetoFrontStream(ctx context.Context, objectives []Metric, emit func(FrontSnapshot) error, opts ...engine.Option) ([]Point, int, error) {
	if len(objectives) == 0 {
		panic("explore: ParetoFront needs at least one objective")
	}
	if emit == nil && p.useOrbits(objectives) {
		front, err := p.orbitFront(ctx, objectives, opts)
		if err != nil {
			return nil, 0, err
		}
		return front, p.combos, nil
	}
	r := &frontRun{p: p, objectives: objectives, fold: newBlockFront(len(objectives))}
	if emit == nil {
		if err := r.walk(ctx, opts); err != nil {
			return nil, 0, err
		}
		return p.frontOf(r.fold.entries, objectives), p.combos, nil
	}

	r.left = make([]int, (p.combos+frontQuantum-1)/frontQuantum)
	for q := range r.left {
		r.left[q] = min(frontQuantum, p.combos-q*frontQuantum)
	}
	// Publishers only fold and nudge; the notifier goroutine emits. The
	// single-slot channel coalesces bursts: a queued nudge covers every
	// quantum published before the notifier gets to it.
	r.nudge = make(chan struct{}, 1)
	walkCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var emitErr error
	lastDone := -1
	notifierDone := make(chan struct{})
	go func() {
		defer close(notifierDone)
		for range r.nudge {
			snap := r.snapshot()
			if snap.BlocksDone == lastDone {
				continue
			}
			if err := emit(snap); err != nil {
				emitErr = err
				cancel()
				return
			}
			lastDone = snap.BlocksDone
		}
	}()
	err := r.walk(walkCtx, opts)
	close(r.nudge)
	<-notifierDone
	if emitErr != nil {
		return nil, 0, emitErr
	}
	if err != nil {
		return nil, 0, err
	}
	snap := r.snapshot()
	// The notifier may already have delivered the complete front.
	if snap.BlocksDone != lastDone {
		if err := emit(snap); err != nil {
			return nil, 0, err
		}
	}
	return snap.Front, p.combos, nil
}

// frontRun is the shared state of one front walk: the skyline of every
// published point and, when streaming (non-nil nudge), the count of
// still unpublished points per quantum and of fully published quanta.
type frontRun struct {
	p          *CompiledPlan
	objectives []Metric

	mu    sync.Mutex
	fold  *blockFront
	left  []int
	done  int
	nudge chan struct{}
}

// walk runs every worker block through a local blockFront, publishing
// at quantum boundaries when streaming and always at the block's end.
func (r *frontRun) walk(ctx context.Context, opts []engine.Option) error {
	k := len(r.objectives)
	return engine.RunBlocks(ctx, r.p.combos, func(ctx context.Context, lo, hi int, tick func()) error {
		local := newBlockFront(k)
		segLo, seq := lo, lo
		visit := func(idx int, pt *Point) error {
			local.add(idx, pt, r.objectives)
			if seq++; r.nudge != nil && seq%frontQuantum == 0 {
				r.publish(local, segLo, seq)
				segLo = seq
			}
			return nil
		}
		if err := r.p.walkBlock(ctx, lo, hi, visit, tick); err != nil {
			return err
		}
		if segLo < hi {
			r.publish(local, segLo, hi)
		}
		return nil
	}, opts...)
}

// publish merges the survivors of the sequence segment [lo, hi) into
// the shared fold and empties the local front. A streamed segment never
// crosses a quantum boundary, so it settles one quantum's count.
func (r *frontRun) publish(local *blockFront, lo, hi int) {
	r.mu.Lock()
	r.fold.merge(local)
	settled := false
	if r.nudge != nil {
		q := lo / frontQuantum
		r.left[q] -= hi - lo
		if settled = r.left[q] == 0; settled {
			r.done++
		}
	}
	r.mu.Unlock()
	local.reset()
	if settled {
		select {
		case r.nudge <- struct{}{}:
		default:
		}
	}
}

// snapshot materializes the current shared skyline.
func (r *frontRun) snapshot() FrontSnapshot {
	r.mu.Lock()
	entries := append([]frontEntry(nil), r.fold.entries...)
	done := r.done
	r.mu.Unlock()
	return FrontSnapshot{Front: r.p.frontOf(entries, r.objectives), BlocksDone: done, TotalBlocks: len(r.left)}
}

// frontOf runs the final ParetoFront pass over survivors in output-slot
// order, which makes the pass see candidates exactly as the
// materializing path would, so ties and duplicates resolve identically.
func (p *CompiledPlan) frontOf(entries []frontEntry, objectives []Metric) []Point {
	return ParetoFront(p.survivors(entries), objectives...)
}

// survivors sorts entries into output-slot order in place and
// materializes them, rebuilding each Nodes slice from its slot.
func (p *CompiledPlan) survivors(entries []frontEntry) []Point {
	sort.Slice(entries, func(a, b int) bool { return entries[a].idx < entries[b].idx })
	points := make([]Point, len(entries))
	for i, e := range entries {
		points[i] = e.pt
		points[i].Nodes = p.nodesFor(e.idx)
	}
	return points
}

// WalkRangeFront walks the sequence segment [lo, hi) serially, as
// WalkRange does, through the same skyline fold as ParetoFrontCtx, and
// returns the segment's front survivors in ascending output-slot order
// (slots[i] is pts[i]'s slot). Only survivors get a Nodes slice. It is
// the front-mode unit of a sharded sweep: merging the survivors of
// every segment through frontOf's slot-ordered final pass gives the
// bits of ParetoFrontCtx.
func (p *CompiledPlan) WalkRangeFront(ctx context.Context, lo, hi int, objectives []Metric) (slots []int, pts []Point, err error) {
	f := newBlockFront(len(objectives))
	err = p.WalkRange(ctx, lo, hi, func(idx int, pt *Point) error {
		f.add(idx, pt, objectives)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	pts = p.survivors(f.entries)
	slots = make([]int, len(pts))
	for i, e := range f.entries {
		slots[i] = e.idx
	}
	return slots, pts, nil
}

// frontEntry is one block-front survivor: the point's scalar fields plus
// its output slot, from which the Nodes slice is reconstructed only if
// the point survives the final merge.
type frontEntry struct {
	idx int
	pt  Point // Nodes nil until materialized
}

// blockFront is an incremental skyline: the mutually non-dominated
// subset of the points folded so far. Objective values are computed
// once per point and stored in a flat arena, so membership checks are
// branch-light float compares and the only growth is the entry/value
// slices themselves — no per-point allocations.
type blockFront struct {
	k       int
	entries []frontEntry
	objs    []float64 // len(entries)*k objective values
	vals    []float64 // candidate scratch, len k
}

func newBlockFront(k int) *blockFront {
	return &blockFront{k: k, vals: make([]float64, k)}
}

// add folds one point into the front.
func (f *blockFront) add(idx int, pt *Point, objectives []Metric) {
	for j, m := range objectives {
		f.vals[j] = m(*pt)
	}
	if f.admit(f.vals) {
		cp := *pt
		cp.Nodes = nil
		f.entries = append(f.entries, frontEntry{idx: idx, pt: cp})
		f.objs = append(f.objs, f.vals...)
	}
}

// merge folds every member of g into f, reusing g's objective values.
func (f *blockFront) merge(g *blockFront) {
	for e, en := range g.entries {
		vals := g.objs[e*g.k : (e+1)*g.k]
		if f.admit(vals) {
			f.entries = append(f.entries, en)
			f.objs = append(f.objs, vals...)
		}
	}
}

// reset empties the front, keeping its arenas.
func (f *blockFront) reset() {
	f.entries = f.entries[:0]
	f.objs = f.objs[:0]
}

// admit decides a candidate with objective values vals: false if any
// member dominates it, otherwise true after evicting the members it
// dominates (the caller appends it). Equal points do not dominate each
// other (matching ParetoFront), so exact duplicates coexist. The front
// invariant (mutual non-dominance) makes the two outcomes exclusive, so
// a single pass suffices.
func (f *blockFront) admit(vals []float64) bool {
	for e := 0; e < len(f.entries); {
		ov := f.objs[e*f.k : (e+1)*f.k]
		memberBetter, candidateBetter := false, false
		for j := 0; j < f.k; j++ {
			switch {
			case ov[j] < vals[j]:
				memberBetter = true
			case ov[j] > vals[j]:
				candidateBetter = true
			}
		}
		if memberBetter && !candidateBetter {
			return false // dominated by a member
		}
		if candidateBetter && !memberBetter {
			// Candidate dominates the member: swap-delete (order is
			// restored by the slot sort before the final pass).
			last := len(f.entries) - 1
			f.entries[e] = f.entries[last]
			f.entries = f.entries[:last]
			copy(f.objs[e*f.k:(e+1)*f.k], f.objs[last*f.k:(last+1)*f.k])
			f.objs = f.objs[:last*f.k]
			continue
		}
		e++
	}
	return true
}
