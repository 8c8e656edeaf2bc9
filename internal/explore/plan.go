package explore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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
// array indexing, and kernel.Scratch carries each worker's reusable
// arena (packaging estimator, chiplet descriptors, operational-term
// memo). This file owns the sweep-specific parts: combinations are
// enumerated in mixed-radix reflected Gray-code order, so successive
// points differ in exactly one chiplet — each step refreshes only the
// changed chiplet's scratch state — and the result is addressed by the
// point's mixed-radix output slot so the point order is identical to the
// historical recursive walk.
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

// ErrNoFastPath reports that a system cannot be compiled into a dense
// sweep plan and callers should fall back to the per-point reference
// path. Today this only covers multi-chiplet monolithic bases, whose
// sweeps are degenerate (every mixed-node combination fails validation).
var ErrNoFastPath = errors.New("explore: system has no compiled fast path")

// SweepStats counts the work a compiled plan performed; the CLI surfaces
// it under -progress next to the engine cache statistics.
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
	// many packaging estimates were served from the shape memo or an
	// unchanged plan versus laid out or rebuilt from scratch.
	Floorplan floorplan.TreeStats
	// PkgMemo aggregates the per-worker point-memo counters; its
	// Collisions field counts the recomputes forced by the memo's
	// direct-mapped slot table (the observable an eviction policy would
	// be justified by).
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
	classes [][]int
	free    []int
	orbits  int

	// scratches pools per-worker evaluation arenas across runs of this
	// plan, so retained state — the estimator's floorplan tree, its
	// communication cells and package-term memo — survives from one
	// request to the next. A re-walk of the same block then starts on a
	// warm tree (often the Unchanged fast path) instead of rebuilding
	// it. Safe because the plan is immutable and every retained cache
	// verifies or is keyed by its exact inputs.
	scratches sync.Pool

	points, blockInits, graySteps atomic.Uint64
	// Folded floorplan.TreeStats and point-memo counters of the
	// per-block estimator scratches.
	fpMu     sync.Mutex
	fpTotals floorplan.TreeStats
	pmTotals kernel.PkgMemoStats
}

// Compile builds the sweep plan for evaluating base under every
// combination of the candidate nodes. It performs every node-independent
// computation and every per-(chiplet, node) sub-model call exactly once
// (see kernel.BuildTable); errors any point of the sweep would hit
// (invalid base description, unsupported candidate node, sub-model
// domain violations, missing cost table entries) surface here instead of
// mid-sweep.
func Compile(base *core.System, db *tech.DB, nodes []int, cp cost.Params) (*CompiledPlan, error) {
	// BuildTable owns the shared preconditions (non-empty node list,
	// system validation, node membership); Compile adds only the
	// sweep-specific ones.
	nc := len(base.Chiplets)
	combos, err := comboCount(len(nodes), nc)
	if err != nil {
		return nil, err
	}
	if base.Monolithic && nc > 1 {
		return nil, ErrNoFastPath
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

// Nodes returns the candidate node list the plan was compiled for.
func (p *CompiledPlan) Nodes() []int { return append([]int(nil), p.nodes...) }

// Stats snapshots the plan's work counters (cumulative across runs).
func (p *CompiledPlan) Stats() SweepStats {
	p.fpMu.Lock()
	fp := p.fpTotals
	pm := p.pmTotals
	p.fpMu.Unlock()
	return SweepStats{
		Points:     p.points.Load(),
		BlockInits: p.blockInits.Load(),
		GraySteps:  p.graySteps.Load(),
		TableCells: len(p.tbl.Cells) * p.r,
		Floorplan:  fp,
		PkgMemo:    pm,
	}
}

// Run evaluates every point of the plan with default engine options.
func (p *CompiledPlan) Run() ([]Point, error) {
	return p.RunCtx(context.Background())
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
// odometer buffers, the reusable output point, and the kernel arena
// (packaging estimator with its retained floorplan tree, chiplet
// descriptors, operational-term memo). Scratches are pooled on the plan
// and survive across runs; folded records the floorplan counters
// already folded into the plan totals, so each release folds only the
// increment.
type blockScratch struct {
	digits []int // current Gray digits (indices into plan.nodes)
	std    []int // standard mixed-radix digits of the current index
	par    []int // parity of the standard value of the digits above i
	picked []int // reusable Point.Nodes buffer
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
	sc                             *kernel.Scratch
	// estValid reports that the kernel scratch's packaging estimator ran
	// on the previous point of the current walk, so a Gray step may take
	// the single-changed-chiplet delta path. Serving a point from the
	// per-point package memo skips the estimator and clears the flag:
	// the next miss must re-run the full estimate because the retained
	// floorplan no longer tracks the walk.
	estValid bool
	// walks counts the walkBlock calls this scratch served. The walk
	// visits each point of its segment once, so a scratch's first walk
	// can never hit the per-point package memo: it neither reads nor
	// fills it (sparing a fresh scratch the memo's allocation).
	walks  int
	folded floorplan.TreeStats
	// memoFolded is the point-memo snapshot already folded into the
	// plan totals (the PkgMemoStats twin of folded).
	memoFolded kernel.PkgMemoStats
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
	ksc, err := p.tbl.NewScratch()
	if err != nil {
		return nil, err
	}
	rows := make([]float64, 5*p.nc)
	return &blockScratch{
		digits:    make([]int, p.nc),
		std:       make([]int, p.nc),
		par:       make([]int, p.nc),
		picked:    make([]int, p.nc),
		rows:      rows,
		rowMfg:    rows[0*p.nc : 1*p.nc],
		rowDes:    rows[1*p.nc : 2*p.nc],
		rowNre:    rows[2*p.nc : 3*p.nc],
		rowUSD:    rows[3*p.nc : 4*p.nc],
		rowNREUSD: rows[4*p.nc : 5*p.nc],
		sc:        ksc,
	}, nil
}

// putScratch folds the scratch's new floorplan and point-memo work into
// the plan totals and returns it to the pool.
func (p *CompiledPlan) putScratch(sc *blockScratch) {
	if !p.monolith {
		cur := sc.sc.FloorplanStats()
		mem := sc.sc.PkgMemoStats()
		p.fpMu.Lock()
		p.fpTotals.Add(cur.Delta(sc.folded))
		p.pmTotals.Add(mem.Delta(sc.memoFolded))
		p.fpMu.Unlock()
		sc.folded, sc.memoFolded = cur, mem
	}
	p.scratches.Put(sc)
}

// walkBlock walks the Gray-code segment [lo, hi) of the combination
// sequence, streaming each evaluated point (and its output slot) to
// visit from a block-local scratch. Each Gray step names the single
// changed chiplet, and the packaging estimate for the point runs
// through the kernel scratch's delta path: the floorplan tree repairs
// its sorted order for that one chiplet and serves a recurring shape
// from its memo instead of re-planning.
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
	sc.walks++

	out := p.initAt(sc, lo)
	pkgCh := sc.sc.Chiplets()
	p.blockInits.Add(1)
	steps := uint64(0)

	for k := lo; k < hi; k++ {
		// The first point of a block builds its full scratch state.
		changed := -1
		if k > lo {
			// Successive Gray codes differ in exactly one digit: refresh
			// only that chiplet's scratch state and output weight.
			j, old, d := p.grayStep(sc)
			out += (d - old) * p.weight[j]
			sc.refreshRow(p.tbl, j, d)
			if !p.monolith {
				cell := &p.tbl.Cells[j][d]
				pkgCh[j].AreaMM2, pkgCh[j].Node = cell.AreaMM2, cell.Node
			}
			changed = j
			steps++
		}
		// Cancellation is polled every 64 points: a context check per
		// point was measurable against the delta-path evaluation cost.
		if (k-lo)&63 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := p.evalInto(sc, &sc.pt, changed, out); err != nil {
			return err
		}
		if err := visit(out, &sc.pt); err != nil {
			return err
		}
		tick()
	}
	p.graySteps.Add(steps)
	p.points.Add(uint64(hi - lo))
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
// from the table for the current digits. Whole-package terms come from the scratch
// estimator — through its single-changed-chiplet delta path when changed
// names the Gray step's chiplet (changed < 0 runs the full estimate) —
// and out.Nodes aliases the scratch's reusable buffer: callers that
// retain the point must copy it. pointIdx is the point's standard
// mixed-radix index, the key of the scratch's per-point package memo: a
// pooled scratch that has estimated this exact point on an earlier walk
// serves the package quadruple straight from the memo (the estimate is
// pure in the digit vector, so the served bits are the estimator's own
// prior output). A scratch on its first walk skips the memo entirely.
func (p *CompiledPlan) evalInto(sc *blockScratch, out *Point, changed, pointIdx int) error {
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

	var hiKg, area, powerW float64
	assemblyYield := 1.0
	memo := sc.walks > 1 && !p.monolith
	var v kernel.PkgPoint
	hit := false
	if memo {
		v, hit = sc.sc.LoadPackagePoint(uint64(pointIdx), uint64(p.combos))
	}
	if p.monolith {
		area = t.Cells[0][sc.digits[0]].AreaMM2
	} else if hit {
		hiKg, area, assemblyYield, powerW = v.HIKg, v.AreaMM2, v.AssemblyYield, v.RouterPowerW
		desKg += t.CommShare[sc.digits[0]]
		sc.estValid = false
	} else {
		var pkg *pkgcarbon.Result
		var err error
		if changed >= 0 && sc.estValid {
			pkg, err = sc.sc.EstimatePackageDelta(changed)
		} else {
			pkg, err = sc.sc.EstimatePackage()
		}
		if err != nil {
			return err
		}
		sc.estValid = true
		desKg += t.CommShare[sc.digits[0]]
		hiKg = pkg.TotalKg()
		area = pkg.PackageAreaMM2
		assemblyYield = pkg.AssemblyYield
		powerW = pkg.RouterTotalPowerW
		if memo {
			sc.sc.StorePackagePoint(uint64(pointIdx), uint64(p.combos),
				kernel.PkgPoint{HIKg: hiKg, AreaMM2: area, AssemblyYield: assemblyYield, RouterPowerW: powerW})
		}
	}

	var opKg float64
	if t.HasOp {
		v, err := sc.sc.OperationKg(t.Base.Operation, powerW)
		if err != nil {
			return err
		}
		opKg = v
	}

	asmUSD, err := t.Asm.USD(area, assemblyYield)
	if err != nil {
		return err
	}

	for i, d := range sc.digits {
		sc.picked[i] = p.nodes[d]
	}
	embodied := mfgKg + desKg + hiKg + nreKg
	*out = Point{
		Nodes:          sc.picked,
		EmbodiedKg:     embodied,
		TotalKg:        embodied + opKg,
		CostUSD:        diesUSD + asmUSD + nreUSD,
		PackageAreaMM2: area,
	}
	return nil
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
// the package term straight from the per-point memo, skipping the
// estimator entirely on repeat requests.
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
