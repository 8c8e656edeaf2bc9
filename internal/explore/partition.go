package explore

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"ecochip/internal/core"
	"ecochip/internal/engine"
	"ecochip/internal/floorplan"
	"ecochip/internal/kernel"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/tech"
)

// This file implements the grouping half of SoC-to-chiplet
// disaggregation (Section VI): given a system described at fine block
// granularity, decide which blocks should share a die. Merging blocks
// saves packaging overhead and amortizes per-die waste, but grows die
// area (hurting yield) and forces every member onto the most advanced
// node in the group. The optimizer runs a deterministic greedy merge:
// starting from the fully disaggregated system, it repeatedly applies
// the pairwise merge that lowers embodied carbon the most, stopping when
// no merge helps.
//
// The search runs end-to-end on retained state — one step-spanning
// compiled plan for the whole greedy loop:
//
//   - Merged-die cells are memoized per stable GROUP-PAIR id across
//     steps: a candidate pair that survives a step unchanged re-reads
//     its cell from a plain map instead of re-entering the mutex-guarded
//     engine cache (and re-paying the merge's name concatenation).
//     Missing entries are filled serially before each step's parallel
//     fan-out, so candidate evaluation itself never touches a lock.
//   - The per-step unchanged-chiplet cells and communication design
//     shares are tabulated the same way.
//   - Worker scratches (the packaging estimator with its retained
//     floorplan tree, per-node communication memo and per-area package
//     memo) come from a kernel.ScratchPool that spans the whole search,
//     so engine.RunScratch batches no longer rebuild them per step.
//     Each candidate's changed die set rebuilds the retained floorplan
//     tree from scratch.
//
// The greedy trajectory stays bit-identical to the evaluate-per-candidate
// reference (DisaggregateReference) because every memoized value is a
// pure function of the same inputs the per-candidate code computed, and
// the reduction order is unchanged (guarded by the equivalence suite).

// Plan is the result of a disaggregation search.
type Plan struct {
	// System is the optimized system (chiplets are merged groups).
	System *core.System
	// Groups maps each result chiplet to the names of the original
	// blocks it absorbed.
	Groups [][]string
	// EmbodiedKg is the optimized embodied carbon.
	EmbodiedKg float64
	// InitialKg is the fully disaggregated starting point's carbon.
	InitialKg float64
	// Steps is the number of merges applied.
	Steps int
	// Stats counts the work the compiled search performed (zero for
	// DisaggregateReference runs).
	Stats DisaggregateStats
}

// DisaggregateStats counts the work of one compiled Disaggregate
// search: the greedy steps and candidate evaluations, the per-search
// merged-cell memo traffic, the pooled-scratch reuse, and the folded
// incremental-floorplan counters (whose DiffFallbacks count the
// candidates' block-set rebuilds).
type DisaggregateStats struct {
	// Steps is the number of accepted merges; Candidates the number of
	// pairwise merge evaluations across all steps.
	Steps, Candidates uint64
	// MergedCellHits / MergedCellMisses count the per-search merged-die
	// cell memo: a hit skips the merge construction and die sub-models
	// for a candidate pair carried over from an earlier step.
	MergedCellHits, MergedCellMisses uint64
	// ScratchReuses counts engine batches served by a pooled worker
	// scratch (warm estimator memos and floorplan trees) instead of a
	// fresh build.
	ScratchReuses uint64
	// Floorplan folds the pooled estimators' retained-tree counters.
	Floorplan floorplan.TreeStats
}

// String renders the summary ecodse prints under -progress (the single
// source of the format, like floorplan.TreeStats.String).
func (s DisaggregateStats) String() string {
	return fmt.Sprintf("disaggregate plan: %d steps, %d candidates, merged-cell memo %d hits / %d misses, %d pooled-scratch reuses\n%s",
		s.Steps, s.Candidates, s.MergedCellHits, s.MergedCellMisses, s.ScratchReuses, s.Floorplan)
}

// mergeable reports whether two chiplets may share a die: same scaling
// type (a die is floorplanned per class here) and neither is a reused
// hard IP (merging would forfeit its pre-designed status).
func mergeable(a, b core.Chiplet) bool {
	return a.Type == b.Type && !a.Reused && !b.Reused
}

// merge combines two chiplets: transistor budgets add, the group settles
// on the most advanced (smallest) node so every member can be built.
func merge(a, b core.Chiplet) core.Chiplet {
	node := a.NodeNm
	if b.NodeNm < node {
		node = b.NodeNm
	}
	parts := a.ManufacturedParts
	if b.ManufacturedParts < parts || parts == 0 {
		parts = b.ManufacturedParts
	}
	return core.Chiplet{
		Name:              a.Name + "+" + b.Name,
		Type:              a.Type,
		Transistors:       a.Transistors + b.Transistors,
		NodeNm:            node,
		ManufacturedParts: parts,
	}
}

// Disaggregate runs the greedy merge search on the system's blocks and
// returns the best grouping found.
func Disaggregate(base *core.System, db *tech.DB) (*Plan, error) {
	return DisaggregateCtx(context.Background(), base, db)
}

// mergeCandidate is one (i, j) pairwise merge considered in a greedy
// step, with its evaluated embodied carbon and the step-table entries
// it reads: the memoized merged-die entry (an arena index — the arena
// may grow while the step compiles) and the communication design share
// of its survivor set.
type mergeCandidate struct {
	i, j    int
	cellIdx int32 // index+1 into disaggState.mergedEntries, 0 = none
	share   float64
}

// mergedCell is one memoized merged-die entry: the merged chiplet (its
// name string built once) and its die cell.
type mergedCell struct {
	ch   core.Chiplet
	cell core.DieCell
}

// candScratch is one worker's per-batch state: the run's memo hooks and
// the pooled kernel arena (packaging estimator + descriptor buffer).
type candScratch struct {
	h  *core.Hooks
	sc *kernel.Scratch
}

// disaggState is the step-spanning compiled state of one search. The
// cell memos are flat arenas indexed by the dense group ids (initial
// groups take 0..nc-1, each accepted merge mints the next id, and a
// search of nc blocks can mint at most nc-1 more), not maps: candidate
// tabulation is the per-step serial section, and for the handful of
// groups a search holds, array indexing beats hashing — and keeps the
// whole search's allocation profile flat.
type disaggState struct {
	db   *tech.DB
	pool *kernel.ScratchPool

	nextID int
	maxID  int   // bound on minted ids: 2*nc
	ids    []int // current chiplet position -> stable group id

	singleCells   []core.DieCell // group id -> unchanged-die cell
	singleOK      []bool
	pairIdx       []int32 // a*maxID+b -> index+1 into mergedEntries, 0 = none
	mergedEntries []mergedCell
	commShares    map[commKey]float64 // (first survivor node, dies) -> design share
	stats         DisaggregateStats

	// mergedMfg..mergedNode are the struct-of-arrays columns of the
	// merged-cell arena's hot fields, appended in step with
	// mergedEntries: the per-candidate fold reads its merged term and
	// packaging descriptor from these instead of dragging the whole
	// mergedCell record through the cache.
	mergedMfg, mergedDes, mergedNre, mergedArea []float64
	mergedNode                                  []*tech.Node

	// Per-step buffers reused across the greedy loop. stepMfg..stepArea
	// are four dense per-position columns packed in one backing array
	// (stepCols), gathered from the unchanged-die cells by compileStep;
	// every candidate evaluation of the step folds its survivor terms
	// from them in position order — the same additions in the same order
	// as a DieCell-row walk, over contiguous memory.
	stepCols                            []float64
	stepMfg, stepDes, stepNre, stepArea []float64
	stepNode                            []*tech.Node
	pairs                               []mergeCandidate
}

// commKey keys the communication design share, which depends on the
// first surviving chiplet's node and the candidate's die count.
type commKey struct {
	nodeNm int
	dies   int
}

// DisaggregateCtx is Disaggregate with cancellation and engine options.
// Each greedy step evaluates all O(n^2) candidate merges through the
// batch engine on the search's step-spanning compiled state (see the
// file comment); one memo cache is shared across all steps because
// successive steps re-price mostly unchanged die sets. The greedy
// trajectory is bit-identical to DisaggregateReference.
func DisaggregateCtx(ctx context.Context, base *core.System, db *tech.DB, opts ...engine.Option) (*Plan, error) {
	ds, err := CompileDisaggregate(base, db)
	if err != nil {
		return nil, err
	}
	return ds.Run(ctx, opts...)
}

// DisaggregateSearch is a compiled, retained disaggregation search for
// one (base system, database) pair — DisaggregateCtx split into a
// compile and a run so the serving layer can keep the search warm in a
// plan cache (keyed by DisaggregateKey). Everything the greedy loop
// tabulates is retained across runs: the merged-die and unchanged-die
// cell memos, the communication-share memo, the engine cache behind the
// full evaluations, and the pooled worker scratches with their warm
// floorplan trees. The trajectory is deterministic in (base, db), so a
// warm re-run revisits exactly the memoized groups and pairs — it
// re-prices almost nothing — and returns a Plan bit-identical to the
// first run (and to a cold DisaggregateCtx), which the parity suite
// pins. Runs serialize on the retained state; concurrent callers queue.
type DisaggregateSearch struct {
	base  *core.System // private clone; runs clone it again to mutate
	db    *tech.DB
	cache *engine.Cache
	mu    sync.Mutex
	st    *disaggState
}

// CompileDisaggregate validates the system and builds the search's
// retained state without running it.
func CompileDisaggregate(base *core.System, db *tech.DB) (*DisaggregateSearch, error) {
	if err := base.Validate(db); err != nil {
		return nil, err
	}
	if base.Monolithic {
		return nil, fmt.Errorf("explore: disaggregation needs a chiplet-form system, not a monolith")
	}
	template := cloneSystem(base)
	nc := len(template.Chiplets)
	st := &disaggState{
		db:          db,
		nextID:      nc,
		maxID:       2 * nc,
		ids:         make([]int, nc),
		singleCells: make([]core.DieCell, 2*nc),
		singleOK:    make([]bool, 2*nc),
		pairIdx:     make([]int32, 4*nc*nc),
		commShares:  make(map[commKey]float64),
		// Presized for the common trajectory: roughly half the pair
		// space is mergeable up front plus one fresh pair per later
		// step; the arena grows past this without harm.
		mergedEntries: make([]mergedCell, 0, nc*(nc-1)/4+nc),
	}
	pkg := template.Packaging
	st.pool = kernel.NewScratchPool(func() (*kernel.Scratch, error) {
		return kernel.NewSweepScratch(&pkg, nc)
	})
	return &DisaggregateSearch{
		base: template,
		db:   db,
		// Share one cache across every step — and across runs — unless a
		// run's caller provides their own engine configuration. The cache
		// backs the full evaluations (the starting point and the final
		// 2 -> 1 merge); the per-step cell tabulation runs on the
		// search's own flat memos instead, which dedup at least as well
		// without the hashed-key layer.
		cache: engine.NewCache(),
		st:    st,
	}, nil
}

// Stats snapshots the search's work counters. They accumulate across
// runs of a retained search (Steps reflects the latest run; the memo
// and scratch counters are cumulative, so a warm re-run shows up as
// pure MergedCellHits growth).
func (ds *DisaggregateSearch) Stats() DisaggregateStats {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	s := ds.st.stats
	s.ScratchReuses = ds.st.pool.Reuses()
	s.Floorplan = ds.st.pool.FloorplanStats()
	return s
}

// Run executes the greedy search on the retained state. The group-id
// trajectory is deterministic, so the per-run reset touches only the
// position→id map and the id counter: every memo keyed by group id or
// pair stays valid because a re-run mints the same ids for the same
// groups in the same order (an aborted run leaves only a prefix of that
// same assignment behind).
func (ds *DisaggregateSearch) Run(ctx context.Context, opts ...engine.Option) (*Plan, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	st := ds.st
	current := cloneSystem(ds.base)
	nc := len(current.Chiplets)
	st.nextID = nc
	if cap(st.ids) < nc {
		st.ids = make([]int, nc)
	}
	st.ids = st.ids[:nc]
	for i := range st.ids {
		st.ids[i] = i
	}
	opts = append([]engine.Option{engine.WithCache(ds.cache)}, opts...)

	groups := make([][]string, nc)
	for i, c := range current.Chiplets {
		groups[i] = []string{c.Name}
	}
	currentKg, err := st.baseEmbodied(current)
	if err != nil {
		return nil, err
	}
	initialKg := currentKg

	steps := 0
	for len(current.Chiplets) > 1 {
		pairs, err := st.compileStep(current)
		if err != nil {
			return nil, err
		}
		evaluated, err := engine.RunScratchRelease(ctx, len(pairs),
			func(h *core.Hooks) (*candScratch, error) {
				sc, err := st.pool.Get()
				if err != nil {
					return nil, err
				}
				return &candScratch{h: h, sc: sc}, nil
			},
			func(cs *candScratch) { st.pool.Put(cs.sc) },
			func(_ context.Context, k int, cs *candScratch) (float64, error) {
				return st.evalMergeCandidate(current, &pairs[k], cs)
			}, opts...)
		if err != nil {
			return nil, err
		}
		st.stats.Candidates += uint64(len(pairs))
		// The pick is a serial scan in (i, j) order, so parallel
		// candidate evaluation reproduces the serial search exactly:
		// only a strictly lower carbon displaces the incumbent.
		bestKg := currentKg
		bestI, bestJ := -1, -1
		for k, kg := range evaluated {
			if kg < bestKg {
				bestKg, bestI, bestJ = kg, pairs[k].i, pairs[k].j
			}
		}
		if bestI < 0 {
			break // no merge improves
		}
		mergedGroup := append(append([]string{}, groups[bestI]...), groups[bestJ]...)
		var nextGroups [][]string
		for k := range groups {
			if k != bestI && k != bestJ {
				nextGroups = append(nextGroups, groups[k])
			}
		}
		groups = append(nextGroups, mergedGroup)
		st.applyMergeIDs(current, bestI, bestJ)
		// current is privately owned (cloned from base), so the accepted
		// merge mutates it in place instead of cloning per step.
		applyMergeInPlace(current, bestI, bestJ)
		currentKg = bestKg
		steps++
	}

	for _, g := range groups {
		sort.Strings(g)
	}
	sort.Slice(groups, func(i, j int) bool {
		return strings.Join(groups[i], ",") < strings.Join(groups[j], ",")
	})
	st.stats.Steps = uint64(steps)
	st.stats.ScratchReuses = st.pool.Reuses()
	st.stats.Floorplan = st.pool.FloorplanStats()
	return &Plan{
		System:     current,
		Groups:     groups,
		EmbodiedKg: currentKg,
		InitialKg:  initialKg,
		Steps:      steps,
		Stats:      st.stats,
	}, nil
}

// compileStep tabulates everything the step's parallel candidate
// evaluations read: the unchanged-die metric columns of the current
// chiplets, the merged-die cell of every mergeable pair (served from
// the search-level memo; only pairs born in the previous step's merge
// are computed), and the communication design share of every distinct
// (first-survivor node, die count) a candidate can produce. All of it
// runs serially through the run's memo hooks, so the fan-out itself
// touches no locks.
func (st *disaggState) compileStep(current *core.System) ([]mergeCandidate, error) {
	n := len(current.Chiplets)
	if cap(st.stepNode) < n {
		st.stepCols = make([]float64, 4*n)
		st.stepMfg = st.stepCols[0*n : 1*n]
		st.stepDes = st.stepCols[1*n : 2*n]
		st.stepNre = st.stepCols[2*n : 3*n]
		st.stepArea = st.stepCols[3*n : 4*n]
		st.stepNode = make([]*tech.Node, n)
	}
	stride := cap(st.stepNode)
	st.stepMfg = st.stepCols[0*stride : 0*stride+n]
	st.stepDes = st.stepCols[1*stride : 1*stride+n]
	st.stepNre = st.stepCols[2*stride : 2*stride+n]
	st.stepArea = st.stepCols[3*stride : 3*stride+n]
	st.stepNode = st.stepNode[:n]
	for i, c := range current.Chiplets {
		id := st.ids[i]
		if !st.singleOK[id] {
			cell, err := current.CellFor(st.db, c, c.NodeNm, nil)
			if err != nil {
				return nil, err
			}
			st.singleCells[id] = cell
			st.singleOK[id] = true
		}
		cell := &st.singleCells[id]
		st.stepMfg[i] = cell.MfgKg
		st.stepDes[i] = cell.DesignKgAmortized
		st.stepNre[i] = cell.NREKg
		st.stepArea[i] = cell.AreaMM2
		st.stepNode[i] = cell.Node
	}

	pairs := st.pairs[:0]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !mergeable(current.Chiplets[i], current.Chiplets[j]) {
				continue
			}
			c := mergeCandidate{i: i, j: j}
			if n > 2 {
				// The final 2 -> 1 merge evaluates down the monolith
				// reference route and never reads a merged-die cell (a
				// whole-system die can violate per-die domain checks the
				// monolith path does not apply).
				key := st.ids[i]*st.maxID + st.ids[j]
				idx := st.pairIdx[key]
				if idx > 0 {
					st.stats.MergedCellHits++
				} else {
					st.stats.MergedCellMisses++
					merged := merge(current.Chiplets[i], current.Chiplets[j])
					cell, err := current.CellFor(st.db, merged, merged.NodeNm, nil)
					if err != nil {
						return nil, err
					}
					st.mergedEntries = append(st.mergedEntries, mergedCell{ch: merged, cell: cell})
					st.mergedMfg = append(st.mergedMfg, cell.MfgKg)
					st.mergedDes = append(st.mergedDes, cell.DesignKgAmortized)
					st.mergedNre = append(st.mergedNre, cell.NREKg)
					st.mergedArea = append(st.mergedArea, cell.AreaMM2)
					st.mergedNode = append(st.mergedNode, cell.Node)
					idx = int32(len(st.mergedEntries))
					st.pairIdx[key] = idx
				}
				c.cellIdx = idx
				// The candidate's communication share depends on its
				// first surviving chiplet's node and die count.
				first := 0
				if i == 0 {
					first = 1
					if j == 1 {
						first = 2
					}
				}
				ck := commKey{nodeNm: current.Chiplets[first].NodeNm, dies: n - 1}
				share, ok := st.commShares[ck]
				if !ok {
					var err error
					share, err = current.CommDesignShareKg(st.db, ck.nodeNm, ck.dies, nil)
					if err != nil {
						return nil, err
					}
					st.commShares[ck] = share
				}
				c.share = share
			}
			pairs = append(pairs, c)
		}
	}
	st.pairs = pairs
	return pairs, nil
}

// baseEmbodied evaluates the starting point's embodied carbon on the
// same cell-reduction seam the candidates use — tabulated die cells,
// a scratch packaging estimate (which doubles as the first step's base
// prime) and the communication design share — instead of a full
// System.Evaluate. The reduction mirrors evaluateHI's accumulation
// order over the full chiplet set, so the result carries the exact
// float bits of current.Evaluate(db).EmbodiedKg() (the randomized
// equivalence suite pins InitialKg against the reference). Degenerate
// single-chiplet systems take the full evaluation.
func (st *disaggState) baseEmbodied(current *core.System) (float64, error) {
	n := len(current.Chiplets)
	if n < 2 {
		return embodied(current, st.db)
	}
	sc, err := st.pool.Get()
	if err != nil {
		return 0, err
	}
	defer st.pool.Put(sc)
	var mfgKg, desKg, nreKg float64
	ch := sc.ResizeChiplets(n)
	for i, c := range current.Chiplets {
		id := st.ids[i]
		if !st.singleOK[id] {
			cell, err := current.CellFor(st.db, c, c.NodeNm, nil)
			if err != nil {
				return 0, err
			}
			st.singleCells[id] = cell
			st.singleOK[id] = true
		}
		cell := &st.singleCells[id]
		mfgKg += cell.MfgKg
		desKg += cell.DesignKgAmortized
		nreKg += cell.NREKg
		ch[i] = pkgcarbon.Chiplet{Name: c.Name, AreaMM2: cell.AreaMM2, Node: cell.Node}
	}
	pkg, err := sc.EstimatePackage()
	if err != nil {
		return 0, err
	}
	share, err := current.CommDesignShareKg(st.db, current.Chiplets[0].NodeNm, n, nil)
	if err != nil {
		return 0, err
	}
	desKg += share
	return mfgKg + desKg + pkg.TotalKg() + nreKg, nil
}

// applyMergeIDs mirrors applyMerge's chiplet move on the stable group
// ids and seeds the merged group's unchanged-die cell for the next step
// (the memoized merged cell IS that cell: same chiplet, same node).
func (st *disaggState) applyMergeIDs(current *core.System, i, j int) {
	idx := st.pairIdx[st.ids[i]*st.maxID+st.ids[j]]
	var ids []int
	for k, id := range st.ids {
		if k != i && k != j {
			ids = append(ids, id)
		}
	}
	newID := st.nextID
	st.nextID++
	st.ids = append(ids, newID)
	if idx > 0 {
		st.singleCells[newID] = st.mergedEntries[idx-1].cell
		st.singleOK[newID] = true
	}
}

// evalMergeCandidate returns the embodied carbon of s with chiplets i
// and j merged (i < j), without materializing the candidate system. The
// candidate's chiplet order is that of applyMerge — survivors in order,
// the merged die last — and the reduction follows evaluateHI's
// accumulation order exactly, so the result is bit-identical to
// applyMerge(s, i, j).EvaluateWith(db, h).EmbodiedKg(). The survivor
// terms fold from the step's dense metric columns and the merged term
// from the arena columns: the same additions in the same order as the
// old DieCell-record walk, bit for bit.
func (st *disaggState) evalMergeCandidate(s *core.System, c *mergeCandidate, cs *candScratch) (float64, error) {
	if len(s.Chiplets) == 2 {
		// The final merge collapses to a single die, which evaluates
		// down the monolith path; take the reference route for it.
		rep, err := applyMerge(s, c.i, c.j).EvaluateWith(st.db, cs.h)
		if err != nil {
			return 0, err
		}
		return rep.EmbodiedKg(), nil
	}
	var mfgKg, desKg, nreKg float64
	pkgCh := cs.sc.ResizeChiplets(len(s.Chiplets) - 1)
	idx := 0
	stepDes := st.stepDes[:len(st.stepMfg)]
	stepNre := st.stepNre[:len(st.stepMfg)]
	for k, m := range st.stepMfg {
		if k == c.i || k == c.j {
			continue
		}
		mfgKg += m
		desKg += stepDes[k]
		nreKg += stepNre[k]
		pkgCh[idx] = pkgcarbon.Chiplet{Name: s.Chiplets[k].Name, AreaMM2: st.stepArea[k], Node: st.stepNode[k]}
		idx++
	}
	m := int(c.cellIdx - 1)
	mfgKg += st.mergedMfg[m]
	desKg += st.mergedDes[m]
	nreKg += st.mergedNre[m]
	pkgCh[idx] = pkgcarbon.Chiplet{Name: st.mergedEntries[m].ch.Name, AreaMM2: st.mergedArea[m], Node: st.mergedNode[m]}
	pkg, err := cs.sc.EstimatePackage()
	if err != nil {
		return 0, err
	}
	desKg += c.share
	return mfgKg + desKg + pkg.TotalKg() + nreKg, nil
}

// DisaggregateReference is the evaluate-per-candidate greedy search the
// compiled step plan replaced, kept as its oracle and baseline: every
// candidate merge materializes the merged system and runs a full
// evaluation. It reproduces DisaggregateCtx's trajectory bit for bit
// (pinned by the randomized equivalence suite) at far more work per
// candidate, and its Plan carries zero Stats.
func DisaggregateReference(ctx context.Context, base *core.System, db *tech.DB) (*Plan, error) {
	if err := base.Validate(db); err != nil {
		return nil, err
	}
	if base.Monolithic {
		return nil, fmt.Errorf("explore: disaggregation needs a chiplet-form system, not a monolith")
	}
	current := cloneSystem(base)
	groups := make([][]string, len(current.Chiplets))
	for i, c := range current.Chiplets {
		groups[i] = []string{c.Name}
	}
	currentKg, err := embodied(current, db)
	if err != nil {
		return nil, err
	}
	initialKg := currentKg

	steps := 0
	for len(current.Chiplets) > 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bestKg := currentKg
		bestI, bestJ := -1, -1
		for i := 0; i < len(current.Chiplets); i++ {
			for j := i + 1; j < len(current.Chiplets); j++ {
				if !mergeable(current.Chiplets[i], current.Chiplets[j]) {
					continue
				}
				rep, err := applyMerge(current, i, j).Evaluate(db)
				if err != nil {
					return nil, err
				}
				if kg := rep.EmbodiedKg(); kg < bestKg {
					bestKg, bestI, bestJ = kg, i, j
				}
			}
		}
		if bestI < 0 {
			break
		}
		mergedGroup := append(append([]string{}, groups[bestI]...), groups[bestJ]...)
		var nextGroups [][]string
		for k := range groups {
			if k != bestI && k != bestJ {
				nextGroups = append(nextGroups, groups[k])
			}
		}
		groups = append(nextGroups, mergedGroup)
		current, currentKg = applyMerge(current, bestI, bestJ), bestKg
		steps++
	}

	for _, g := range groups {
		sort.Strings(g)
	}
	sort.Slice(groups, func(i, j int) bool {
		return strings.Join(groups[i], ",") < strings.Join(groups[j], ",")
	})
	return &Plan{
		System:     current,
		Groups:     groups,
		EmbodiedKg: currentKg,
		InitialKg:  initialKg,
		Steps:      steps,
	}, nil
}

// applyMergeInPlace rewrites s's chiplet list with i and j merged
// (i < j), merged die appended — applyMerge without the clone, for a
// privately owned system.
func applyMergeInPlace(s *core.System, i, j int) {
	merged := merge(s.Chiplets[i], s.Chiplets[j])
	out := s.Chiplets[:0]
	for k, c := range s.Chiplets {
		if k != i && k != j {
			out = append(out, c)
		}
	}
	s.Chiplets = append(out, merged)
}

// applyMerge returns a copy of s with chiplets i and j merged (i < j).
// The merged chiplet is appended so group bookkeeping can mirror the
// move.
func applyMerge(s *core.System, i, j int) *core.System {
	out := cloneSystem(s)
	merged := merge(out.Chiplets[i], out.Chiplets[j])
	var chiplets []core.Chiplet
	for k, c := range out.Chiplets {
		if k != i && k != j {
			chiplets = append(chiplets, c)
		}
	}
	out.Chiplets = append(chiplets, merged)
	return out
}

func cloneSystem(s *core.System) *core.System {
	out := *s
	out.Chiplets = make([]core.Chiplet, len(s.Chiplets))
	copy(out.Chiplets, s.Chiplets)
	return &out
}

func embodied(s *core.System, db *tech.DB) (float64, error) {
	rep, err := s.Evaluate(db)
	if err != nil {
		return 0, err
	}
	return rep.EmbodiedKg(), nil
}
