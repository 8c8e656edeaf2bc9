package explore

import (
	"context"
	"fmt"
	"sync"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/engine"
	"ecochip/internal/floorplan"
	"ecochip/internal/kernel"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/tech"
)

// This file implements compiled sweep plans: the "compile once, stream
// cheap per-point deltas" evaluation of a full-factorial node sweep.
//
// The heavy lifting lives in internal/kernel: kernel.BuildTable
// precomputes the dense nc × len(nodes) table of per-(chiplet, node)
// invariants — area, manufacturing result, design carbon, NRE share, die
// dollar cost — so the hot loop replaces per-point cloning,
// re-validation, mutex-guarded memo lookups and sub-model calls with
// array indexing, and kernel.SweepScratch carries each worker's
// reusable arena (packaging estimator, chiplet descriptors, package
// memos, operational-term memo). This file owns the sweep-specific
// parts: combinations are enumerated in mixed-radix reflected
// Gray-code order, so successive points differ in exactly one chiplet —
// each step refreshes only the changed chiplet's scratch state — and
// the result is addressed by the point's mixed-radix output slot so the
// point order is identical to the historical recursive walk.
//
// One deliberate deviation from a textbook incremental evaluator: the
// per-point metric totals are NOT maintained as running sums patched by
// "new − old" deltas. Floating-point addition is not associative, so a
// patched running sum drifts from the in-order sum the uncompiled path
// computes, and the contract here is bit-identical output (guarded by
// the randomized equivalence test). Instead each point re-reduces its
// nc table cells in chiplet order — an O(nc) handful of adds that is
// noise next to the per-point floorplan — which preserves exact float
// parity while the Gray walk keeps every other per-point cost flat.

// nodesChunkBytes bounds the shared Nodes backing arrays RunCtx hands
// out (the largest small-object size class).
const nodesChunkBytes = 32 << 10

// SweepStats counts the work a compiled plan performed; ecodse prints it
// under -progress. Each worker scratch counts its own work, and the
// counts reach the plan's Stats when the scratch is released at the end
// of its walk (or of its EvalPoint call): they are added into the
// plan's totals and zeroed, so Stats covers every finished run and a
// second Stats call adds nothing.
type SweepStats struct {
	// Points is the number of design points evaluated from the table.
	// A walk evaluates all Combos() of them; an orbit-path front
	// (ParetoFrontCtx) evaluates only its representatives and the
	// members of the orbits that survive pruning, usually far fewer.
	Points uint64
	// BlockInits is the number of Gray walks started (one per worker
	// block, and one per point an orbit-path front evaluates): points
	// whose full scratch state was built from scratch.
	BlockInits uint64
	// GraySteps is the number of incremental single-chiplet steps; all
	// other scratch state was reused from the previous point.
	GraySteps uint64
	// TableCells is the size of the precomputed die table.
	TableCells int
	// Floorplan aggregates the per-worker floorplan-tree counters: how
	// many packaging estimates reused an unchanged plan versus laid out
	// or rebuilt from scratch.
	Floorplan floorplan.TreeStats
	// PkgMemo aggregates the per-worker package-memo counters. Every
	// point of a walk (RunCtx, Walk, WalkRange, EvalPoint, a walked
	// front) looks its orbit rank up once, so Hits+Misses counts those
	// points; an orbit-path front bypasses the memo. Collisions counts
	// the recomputes forced by the memo's direct-mapped slot table (the
	// observable an eviction policy would be justified by).
	PkgMemo kernel.PkgMemoStats
}

// CompiledPlan is a compiled node sweep: the dense per-(chiplet, node)
// invariant table plus everything point evaluation needs. Compile it
// once, run it any number of times; a plan is immutable after Compile
// and safe for concurrent use.
type CompiledPlan struct {
	tbl *kernel.Table

	nodes []int
	nc    int // chiplets in the base system
	r     int // candidate nodes (the mixed radix)

	combos int
	weight []int // weight[i] = r^(nc-1-i): chiplet 0 is the most significant digit

	// monolith selects the single-die evaluation path (single-chiplet or
	// monolithic bases): no packaging, no communication fabric.
	monolith bool

	// classes are the classes of interchangeable chiplets, free the
	// chiplets outside them, and orbits the number of orbits of node
	// assignments under permutations within each class (see orbit.go).
	// classOf maps a chiplet to its class (-1 if free), keyWeight to the
	// weight of its class's (or its own) digit in the orbit rank, and
	// rankSkip is the table the walk ranks a class's digits with (see
	// initOrbit).
	classes   [][]int
	free      []int
	orbits    int
	classOf   []int
	keyWeight []int
	rankSkip  []int

	// scratches pools per-worker evaluation arenas across runs of this
	// plan, so retained state — the package memo, the estimator's
	// communication cells and package-term memo — survives from one
	// request to the next, and a re-walk of the same block serves its
	// points from the package memo. Safe because the plan is immutable
	// and every retained cache verifies or is keyed by its exact inputs.
	scratches sync.Pool

	// totals holds the counters of every released scratch (putScratch).
	mu     sync.Mutex
	totals SweepStats
}

// Compile builds the sweep plan for evaluating base under every
// combination of the candidate nodes. It performs every node-independent
// computation and every per-(chiplet, node) sub-model call exactly once
// (see kernel.BuildTable); errors any point of the sweep would hit
// (invalid base description, unsupported candidate node, sub-model
// domain violations, missing cost table entries) surface here instead of
// mid-sweep. A multi-chiplet monolith has no plan: its blocks share one
// die, and NodeSweepCtx sweeps it with a single evaluation.
func Compile(base *core.System, db *tech.DB, nodes []int, cp cost.Params) (*CompiledPlan, error) {
	// BuildTable owns the shared preconditions (system validation, node
	// membership); Compile adds only the sweep-specific ones.
	nc := len(base.Chiplets)
	combos, err := comboCount(nodes, nc)
	if err != nil {
		return nil, err
	}
	if base.Monolithic && nc > 1 {
		return nil, fmt.Errorf("explore: cannot compile monolithic system %q: its %d blocks share one die (NodeSweepCtx sweeps it)", base.Name, nc)
	}
	tbl, err := kernel.BuildTable(base, db, nodes, cp)
	if err != nil {
		return nil, err
	}

	p := &CompiledPlan{
		tbl:      tbl,
		nodes:    tbl.Nodes,
		nc:       nc,
		r:        len(nodes),
		combos:   combos,
		monolith: tbl.Monolith,
	}
	p.weight = make([]int, nc)
	w := 1
	for i := nc - 1; i >= 0; i-- {
		p.weight[i] = w
		w *= p.r
	}
	if !p.monolith {
		p.setClasses(orbitClasses(tbl))
	}
	return p, nil
}

// Combos returns the number of design points the plan enumerates.
func (p *CompiledPlan) Combos() int { return p.combos }

// Stats snapshots the plan's work counters (cumulative across runs).
func (p *CompiledPlan) Stats() SweepStats {
	p.mu.Lock()
	s := p.totals
	p.mu.Unlock()
	s.TableCells = len(p.tbl.Cells) * p.r
	return s
}

// RunCtx evaluates every point of the plan: workers walk contiguous
// Gray-code blocks of the combination sequence and write each point into
// its mixed-radix slot, so the output order (and every float in it) is
// identical to NodeSweepReference at any worker count. Points share
// their Nodes backing arrays in chunks of at most nodesChunkBytes, never
// more than the block has points left (capped windows, so appending to
// one still copies): one allocation per chunk instead of one per point.
// A chunk stays within Go's small-object size classes, so a materialised
// sweep still allocates as it walks — a single combos×nc slab up front
// raised the peak RSS of the benchmark's 262,144-point EPYC sweep
// workload by 10–17%.
func (p *CompiledPlan) RunCtx(ctx context.Context, opts ...engine.Option) ([]Point, error) {
	results := make([]Point, p.combos)
	chunk := max(1, nodesChunkBytes/(8*p.nc))
	err := engine.RunBlocks(ctx, p.combos, func(ctx context.Context, lo, hi int, tick func()) error {
		var slab []int
		left := hi - lo // points of the block not yet given a window
		return p.walkBlock(ctx, lo, hi, func(idx int, pt *Point) error {
			if len(slab) == 0 {
				slab = make([]int, min(chunk, left)*p.nc)
			}
			left--
			cp := *pt
			cp.Nodes, slab = slab[:p.nc:p.nc], slab[p.nc:]
			copy(cp.Nodes, pt.Nodes)
			results[idx] = cp
			return nil
		}, tick)
	}, opts...)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Walk evaluates every point of the plan and streams each to visit
// without materializing a result slice — the batch shape of
// million-point serving scenarios, where the caller folds points into a
// running reduction (a Pareto front, a histogram, a wire encoder) as
// they are produced. visit is called concurrently from the worker
// goroutines (one walker per contiguous Gray-code block); within a block
// calls arrive in walk order, and idx is the point's mixed-radix output
// slot — its index in the RunCtx result slice. The *Point (including its
// Nodes slice) is owned by the walker and reused after visit returns:
// copy what must be retained. A visit error cancels the walk.
func (p *CompiledPlan) Walk(ctx context.Context, visit func(idx int, pt *Point) error, opts ...engine.Option) error {
	return engine.RunBlocks(ctx, p.combos, func(ctx context.Context, lo, hi int, tick func()) error {
		return p.walkBlock(ctx, lo, hi, visit, tick)
	}, opts...)
}

// WalkRange walks the contiguous sequence segment [lo, hi) of the
// plan's Gray-code combination order serially on the calling goroutine,
// streaming each point to visit exactly as Walk does (idx is the
// point's mixed-radix output slot — NOT its sequence position; a
// contiguous sequence segment covers a scattered but deterministic set
// of output slots). It is the resumable unit of a sharded sweep: any
// party that compiled the same plan can walk any segment and the
// streamed points are bit-identical to the corresponding points of a
// full Walk, so segments can be computed remotely, retried after
// failures and reassembled in any order. The *Point is reused after
// visit returns; copy what must be retained.
func (p *CompiledPlan) WalkRange(ctx context.Context, lo, hi int, visit func(idx int, pt *Point) error) error {
	if lo < 0 || hi > p.combos || lo > hi {
		return fmt.Errorf("explore: WalkRange [%d,%d) outside the %d-point plan", lo, hi, p.combos)
	}
	if lo == hi {
		return ctx.Err()
	}
	return p.walkBlock(ctx, lo, hi, visit, func() {})
}

// nodesFor decodes an output slot back into its per-chiplet node
// assignment, sharing the standard mixed-radix decode with the
// reference path so the two can never order nodes differently.
func (p *CompiledPlan) nodesFor(idx int) []int {
	return combo(idx, p.nodes, p.nc)
}

// blockScratch is one worker's reusable per-point state: the Gray-code
// odometer buffers, the reusable output point, the kernel arena
// (packaging estimator with its retained floorplan tree, chiplet
// descriptors, package memo, operational-term memo) and the work
// counters that putScratch folds into the plan. Scratches are pooled on
// the plan and survive across runs.
type blockScratch struct {
	digits []int // current Gray digits (indices into plan.nodes)
	std    []int // standard mixed-radix digits of the current index
	par    []int // parity of the standard value of the digits above i
	picked []int // reusable Point.Nodes buffer
	// below[c*(r+1)+v] is how many chiplets of class c sit at a digit
	// below v, and orbit is the current point's orbit rank, the key of
	// the package memo (-1: unknown, the memo is bypassed). Every walk
	// rebuilds both at its start (initOrbit) and each Gray step updates
	// them in O(1) (stepOrbit); plans without classes leave below empty.
	below []int
	orbit int
	// rows is the current point's per-chiplet metric entries, gathered
	// from the table's Cells and dollar rows: five dense nc-length slices
	// packed in one backing array (mfg, design, NRE kg, die USD, NRE
	// USD). A block init fills every row; a Gray step refreshes only the
	// changed chiplet's five entries, and evalInto reduces the slices
	// sequentially in chiplet order.
	rows                           []float64
	rowMfg, rowDes, rowNre, rowUSD []float64
	rowNREUSD                      []float64
	pt                             Point
	sc                             *kernel.SweepScratch
	// points, blockInits and graySteps count the scratch's work since
	// its last release (see SweepStats).
	points, blockInits, graySteps uint64
}

// refreshRow regathers chiplet row i's five metric entries for node
// digit d from the table.
func (sc *blockScratch) refreshRow(t *kernel.Table, i, d int) {
	cell := &t.Cells[i][d]
	sc.rowMfg[i] = cell.MfgKg
	sc.rowDes[i] = cell.DesignKgAmortized
	sc.rowNre[i] = cell.NREKg
	sc.rowUSD[i] = t.DieUSD[i][d]
	sc.rowNREUSD[i] = t.NREUSD[d]
}

// getScratch takes a pooled worker scratch or builds a fresh one.
func (p *CompiledPlan) getScratch() (*blockScratch, error) {
	if v := p.scratches.Get(); v != nil {
		return v.(*blockScratch), nil
	}
	var pkg *pkgcarbon.Params
	if !p.monolith {
		pkg = &p.tbl.Base.Packaging
	}
	ksc, err := kernel.NewSweepScratch(pkg, p.nc)
	if err != nil {
		return nil, err
	}
	rows := make([]float64, 5*p.nc)
	return &blockScratch{
		digits:    make([]int, p.nc),
		std:       make([]int, p.nc),
		par:       make([]int, p.nc),
		picked:    make([]int, p.nc),
		below:     make([]int, len(p.classes)*(p.r+1)),
		rows:      rows,
		rowMfg:    rows[0*p.nc : 1*p.nc],
		rowDes:    rows[1*p.nc : 2*p.nc],
		rowNre:    rows[2*p.nc : 3*p.nc],
		rowUSD:    rows[3*p.nc : 4*p.nc],
		rowNREUSD: rows[4*p.nc : 5*p.nc],
		sc:        ksc,
	}, nil
}

// putScratch releases the scratch: its counters are added into the
// plan totals and zeroed, and it returns to the pool.
func (p *CompiledPlan) putScratch(sc *blockScratch) {
	p.mu.Lock()
	t := &p.totals
	t.Points += sc.points
	t.BlockInits += sc.blockInits
	t.GraySteps += sc.graySteps
	if !p.monolith {
		sc.sc.FoldFloorplan(&t.Floorplan)
		sc.sc.FoldMemo(&t.PkgMemo)
	}
	p.mu.Unlock()
	sc.points, sc.blockInits, sc.graySteps = 0, 0, 0
	p.scratches.Put(sc)
}

// walkBlock walks the Gray-code segment [lo, hi) of the combination
// sequence, streaming each evaluated point (and its output slot) to
// visit from a block-local scratch. Each Gray step refreshes only the
// changed chiplet's rows and packaging descriptor; the point's package
// terms come from the package memo or, on a miss, one estimate over
// the current descriptors.
func (p *CompiledPlan) walkBlock(ctx context.Context, lo, hi int, visit func(idx int, pt *Point) error, tick func()) error {
	sc, err := p.getScratch()
	if err != nil {
		return err
	}
	defer p.putScratch(sc)
	return p.walkScratch(ctx, sc, lo, hi, visit, tick)
}

// walkScratch is walkBlock on a caller-held scratch.
func (p *CompiledPlan) walkScratch(ctx context.Context, sc *blockScratch, lo, hi int, visit func(idx int, pt *Point) error, tick func()) error {
	out := p.initAt(sc, lo)
	if !p.monolith {
		p.initOrbit(sc)
	}
	pkgCh := sc.sc.Chiplets()
	sc.blockInits++
	steps := uint64(0)

	for k := lo; k < hi; k++ {
		// The first point of a block builds its full scratch state.
		if k > lo {
			// Successive Gray codes differ in exactly one digit: refresh
			// only that chiplet's scratch state and output weight.
			j, old, d := p.grayStep(sc)
			out += (d - old) * p.weight[j]
			sc.refreshRow(p.tbl, j, d)
			if !p.monolith {
				cell := &p.tbl.Cells[j][d]
				pkgCh[j].AreaMM2, pkgCh[j].Node = cell.AreaMM2, cell.Node
				p.stepOrbit(sc, j, old, d)
			}
			steps++
		}
		// Cancellation is polled every 64 points: a context check per
		// point was measurable against the per-point evaluation cost.
		if (k-lo)&63 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := p.evalInto(sc, &sc.pt); err != nil {
			return err
		}
		if err := visit(out, &sc.pt); err != nil {
			return err
		}
		tick()
	}
	sc.graySteps += steps
	sc.points += uint64(hi - lo)
	return nil
}

// initAt builds the scratch's full per-point state for sequence index
// k — odometer, metric rows and packaging descriptors — and returns the
// point's output slot.
func (p *CompiledPlan) initAt(sc *blockScratch, k int) (out int) {
	p.grayInit(k, sc)
	pkgCh := sc.sc.Chiplets()
	for i, d := range sc.digits {
		out += d * p.weight[i]
		sc.refreshRow(p.tbl, i, d)
		if !p.monolith {
			cell := &p.tbl.Cells[i][d]
			pkgCh[i] = pkgcarbon.Chiplet{Name: p.tbl.Names[i], AreaMM2: cell.AreaMM2, Node: cell.Node}
		}
	}
	return out
}

// evalInto assembles one design point from the scratch's gathered row
// buffers into out. Per-chiplet contributions are reduced in chiplet
// order (see the file comment on why the totals are not running sums) as
// a sequential fold over the five dense row slices the walk gathered
// from the table for the current digits. out.Nodes aliases the
// scratch's reusable buffer: callers that retain the point must copy
// it. packagePoint supplies the whole-package terms.
func (p *CompiledPlan) evalInto(sc *blockScratch, out *Point) error {
	t := p.tbl
	var mfgKg, desKg, nreKg, diesUSD, nreUSD float64
	rowDes := sc.rowDes[:len(sc.rowMfg)]
	rowNre := sc.rowNre[:len(sc.rowMfg)]
	rowUSD := sc.rowUSD[:len(sc.rowMfg)]
	rowNREUSD := sc.rowNREUSD[:len(sc.rowMfg)]
	for i, m := range sc.rowMfg {
		mfgKg += m
		desKg += rowDes[i]
		nreKg += rowNre[i]
		diesUSD += rowUSD[i]
		nreUSD += rowNREUSD[i]
	}

	var v kernel.PkgTerms
	if p.monolith {
		v = kernel.PkgTerms{AreaMM2: t.Cells[0][sc.digits[0]].AreaMM2, AssemblyYield: 1}
	} else {
		var err error
		if v, err = p.packagePoint(sc); err != nil {
			return err
		}
		desKg += t.CommShare[sc.digits[0]]
	}

	var opKg float64
	if t.HasOp {
		kg, err := sc.sc.OperationKg(t.Base.Operation, v.RouterPowerW)
		if err != nil {
			return err
		}
		opKg = kg
	}

	asmUSD, err := t.Asm.USD(v.AreaMM2, v.AssemblyYield)
	if err != nil {
		return err
	}

	for i, d := range sc.digits {
		sc.picked[i] = p.nodes[d]
	}
	embodied := mfgKg + desKg + v.HIKg() + nreKg
	*out = Point{
		Nodes:          sc.picked,
		EmbodiedKg:     embodied,
		TotalKg:        embodied + opKg,
		CostUSD:        diesUSD + asmUSD + nreUSD,
		PackageAreaMM2: v.AreaMM2,
	}
	return nil
}

// packagePoint returns the package terms of the scratch's current
// point. A point of known orbit rank looks the rank up in the scratch's
// package memo. On a hit the estimator is skipped; on a plan with
// interchangeable chiplets the hit re-folds only the routing terms, in
// chiplet order, through the estimator's own routing method, so with
// the stored package carbon they carry the estimator's bits for this
// member of the orbit (see the invariance claim in orbit.go). On a plan
// without classes the rank is the point itself, and the stored terms
// are its own. Otherwise the estimator runs over the current chiplet
// descriptors and the terms are filed under the rank.
func (p *CompiledPlan) packagePoint(sc *blockScratch) (kernel.PkgTerms, error) {
	key, span := uint64(sc.orbit), uint64(p.orbits)
	if sc.orbit >= 0 {
		if v, ok := sc.sc.LoadPackage(key, span); ok {
			if len(p.classes) > 0 {
				r, err := sc.sc.PackageRouting()
				if err != nil {
					return kernel.PkgTerms{}, err
				}
				v.RoutingKg, v.RouterPowerW = r.RoutingKg, r.RouterTotalPowerW
			}
			return v, nil
		}
	}
	pkg, err := sc.sc.EstimatePackage()
	if err != nil {
		return kernel.PkgTerms{}, err
	}
	v := kernel.PkgTerms{
		PackageKg:     pkg.PackageKg,
		RoutingKg:     pkg.RoutingKg,
		AreaMM2:       pkg.PackageAreaMM2,
		AssemblyYield: pkg.AssemblyYield,
		RouterPowerW:  pkg.RouterTotalPowerW,
	}
	if sc.orbit >= 0 {
		sc.sc.StorePackage(key, span, v)
	}
	return v, nil
}

// grayInit seeds the scratch's odometer at sequence index k: the
// standard mixed-radix digits (most significant first, uniform radix
// r), the parity of the standard value above each digit, and the
// reflected Gray digits. Digit i runs its 0..r-1 sweep forward or
// reflected depending on that parity, which makes consecutive codes
// differ in exactly one digit by ±1 while the map from k to codes stays
// a bijection onto the full factorial space.
func (p *CompiledPlan) grayInit(k int, sc *blockScratch) {
	b := 0 // standard value of the more significant digits (parity is what matters)
	for i := 0; i < p.nc; i++ {
		a := k / p.weight[i] % p.r
		sc.std[i] = a
		sc.par[i] = b & 1
		if b&1 == 0 {
			sc.digits[i] = a
		} else {
			sc.digits[i] = p.r - 1 - a
		}
		b = b*p.r + a
	}
}

// EvalPoint evaluates the single design point with the given
// per-chiplet node assignment (nodes[i] is chiplet i's node in nm; every
// entry must come from the plan's candidate set). It is the what-if
// primitive of the serving layer: a node-swap request against a warm
// plan inverts the Gray code to the point's sequence index and walks
// that one-point range, so the returned point carries the exact float
// bits of the same point in a full RunCtx — and a warm scratch serves
// the package terms of the point's orbit from its package memo,
// skipping the estimator on repeat requests.
func (p *CompiledPlan) EvalPoint(ctx context.Context, nodes []int) (Point, error) {
	sc, err := p.getScratch()
	if err != nil {
		return Point{}, err
	}
	defer p.putScratch(sc)
	return p.evalPoint(ctx, sc, nodes)
}

// evalPoint is EvalPoint on a caller-held scratch.
func (p *CompiledPlan) evalPoint(ctx context.Context, sc *blockScratch, nodes []int) (Point, error) {
	if len(nodes) != p.nc {
		return Point{}, fmt.Errorf("explore: EvalPoint got %d nodes for a %d-chiplet plan", len(nodes), p.nc)
	}
	// Recover each chiplet's Gray digit (its index in the candidate
	// list); the walk below re-derives the digits from the index.
	for i, nm := range nodes {
		sc.digits[i] = -1
		for j, cand := range p.nodes {
			if cand == nm {
				sc.digits[i] = j
				break
			}
		}
		if sc.digits[i] < 0 {
			return Point{}, fmt.Errorf("explore: EvalPoint node %dnm for chiplet %d is outside the plan's candidate set %v", nm, i, p.nodes)
		}
	}
	k := p.grayIndex(sc.digits)
	var out Point
	err := p.walkScratch(ctx, sc, k, k+1, func(idx int, pt *Point) error {
		out = *pt
		out.Nodes = append([]int(nil), pt.Nodes...)
		return nil
	}, func() {})
	if err != nil {
		return Point{}, err
	}
	return out, nil
}

// grayIndex inverts grayInit: it un-reflects each Gray digit (an index
// into the candidate list) by the running parity into the standard
// digit and accumulates the sequence index whose code is digits.
func (p *CompiledPlan) grayIndex(digits []int) int {
	k, b := 0, 0
	for i, d := range digits {
		a := d
		if b&1 == 1 {
			a = p.r - 1 - d
		}
		k += a * p.weight[i]
		b = b*p.r + a
	}
	return k
}

// grayStep advances the odometer one sequence index and returns the
// single changed Gray digit (its position, old and new value). The
// standard digits carry like a counter; the changed Gray position is
// where the carry chain ends, and only the parities below it need a
// refresh — amortized O(1) work per step, against the O(nc) div/mod
// decode of re-deriving the code from the index.
func (p *CompiledPlan) grayStep(sc *blockScratch) (j, old, d int) {
	j = p.nc - 1
	for sc.std[j] == p.r-1 {
		sc.std[j] = 0
		j--
	}
	sc.std[j]++
	// Digits above j are untouched, so par[0..j] stand; the zeroed
	// trailing digits' parities refresh from j+1 down. Their Gray
	// digits do not change (the reflection flips in step with the
	// parity — the Gray property), so only position j is reported.
	rodd := p.r & 1
	for i := j + 1; i < p.nc; i++ {
		sc.par[i] = (sc.par[i-1] & rodd) ^ (sc.std[i-1] & 1)
	}
	old = sc.digits[j]
	if sc.par[j] == 0 {
		d = sc.std[j]
	} else {
		d = p.r - 1 - sc.std[j]
	}
	sc.digits[j] = d
	return j, old, d
}
