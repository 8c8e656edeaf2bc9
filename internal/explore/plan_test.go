package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/descarbon"
	"ecochip/internal/engine"
	"ecochip/internal/kernel"
	"ecochip/internal/mfg"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// --- Gray-code enumeration properties ---------------------------------

func newGrayScratch(nc int) *blockScratch {
	return &blockScratch{digits: make([]int, nc), std: make([]int, nc), par: make([]int, nc)}
}

func TestGrayOdometerProperties(t *testing.T) {
	for _, tc := range []struct{ nc, r int }{
		{1, 2}, {1, 5}, {2, 3}, {3, 2}, {3, 5}, {4, 3}, {5, 2},
	} {
		p := &CompiledPlan{nc: tc.nc, r: tc.r}
		p.weight = make([]int, tc.nc)
		w := 1
		for i := tc.nc - 1; i >= 0; i-- {
			p.weight[i] = w
			w *= tc.r
		}
		combos := w

		seen := make(map[int]bool, combos)
		prev := make([]int, tc.nc)
		sc := newGrayScratch(tc.nc)
		ref := newGrayScratch(tc.nc)
		p.grayInit(0, sc)
		for k := 0; k < combos; k++ {
			if k > 0 {
				j, old, d := p.grayStep(sc)
				// The reported change must be the only change, by ±1.
				if j < 0 || j >= tc.nc || old != prev[j] || d != sc.digits[j] {
					t.Fatalf("nc=%d r=%d k=%d: bogus step report (%d, %d, %d)", tc.nc, tc.r, k, j, old, d)
				}
				if diff := d - old; diff != 1 && diff != -1 {
					t.Fatalf("nc=%d r=%d k=%d: digit %d stepped by %d", tc.nc, tc.r, k, j, diff)
				}
				for i := range sc.digits {
					if i != j && sc.digits[i] != prev[i] {
						t.Fatalf("nc=%d r=%d k=%d: unreported change at digit %d: %v -> %v", tc.nc, tc.r, k, i, prev, sc.digits)
					}
				}
			}
			// The odometer must agree with a fresh decode at every k —
			// digits, standard digits and parities alike (a mid-sequence
			// block start initializes with grayInit, so the two must be
			// interchangeable at any index).
			p.grayInit(k, ref)
			idx := 0
			for i, d := range sc.digits {
				if d < 0 || d >= tc.r {
					t.Fatalf("nc=%d r=%d k=%d: digit %d out of range: %v", tc.nc, tc.r, k, i, sc.digits)
				}
				if d != ref.digits[i] || sc.std[i] != ref.std[i] || sc.par[i] != ref.par[i] {
					t.Fatalf("nc=%d r=%d k=%d: odometer diverges from decode:\nstep %v / %v / %v\ninit %v / %v / %v",
						tc.nc, tc.r, k, sc.digits, sc.std, sc.par, ref.digits, ref.std, ref.par)
				}
				idx += d * p.weight[i]
			}
			// Bijection onto the full factorial space.
			if seen[idx] {
				t.Fatalf("nc=%d r=%d k=%d: index %d visited twice", tc.nc, tc.r, k, idx)
			}
			seen[idx] = true
			copy(prev, sc.digits)
		}
		if len(seen) != combos {
			t.Fatalf("nc=%d r=%d: visited %d of %d combos", tc.nc, tc.r, len(seen), combos)
		}
	}
}

// --- randomized compiled-vs-reference byte identity -------------------

// randomSystem and randomNodeSet delegate to the shared generator in
// internal/testcases so every compiled-path equivalence suite draws from
// the same feature space.
func randomSystem(rng *rand.Rand, db *tech.DB) *core.System { return testcases.Random(rng, db) }

func randomNodeSet(rng *rand.Rand) []int { return testcases.RandomNodes(rng) }

func pointsBitIdentical(a, b Point) bool {
	if len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	return math.Float64bits(a.EmbodiedKg) == math.Float64bits(b.EmbodiedKg) &&
		math.Float64bits(a.TotalKg) == math.Float64bits(b.TotalKg) &&
		math.Float64bits(a.CostUSD) == math.Float64bits(b.CostUSD) &&
		math.Float64bits(a.PackageAreaMM2) == math.Float64bits(b.PackageAreaMM2)
}

// The compiled/incremental sweep must be byte-identical — same order,
// same float bits — to the per-point EvaluateWith path across random
// systems, node sets, packaging archetypes and NRE/reuse flags, at any
// worker count.
func TestCompiledSweepMatchesReferenceRandomized(t *testing.T) {
	checkCompiledSweepMatchesReference(t, 20240731)
}

// The same comparison under a second, independent generator seed. (The
// name is kept from when the table also carried a struct-of-arrays copy
// of its Cells rows.)
func TestSoAColumnsMatchAoSRandomized(t *testing.T) {
	checkCompiledSweepMatchesReference(t, 20260808)
}

// checkCompiledSweepMatchesReference runs 40 random trials from seed and
// requires each compiled sweep, at 1 and 3 workers, to match
// NodeSweepReference bit for bit (or to fail where the reference fails).
func checkCompiledSweepMatchesReference(t *testing.T, seed int64) {
	t.Helper()
	d := db()
	cp := cost.DefaultParams()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))

	evaluated := 0
	for trial := 0; trial < 40; trial++ {
		base := randomSystem(rng, d)
		nodes := randomNodeSet(rng)
		label := fmt.Sprintf("seed %d trial %d (arch %v, %d chiplets, nodes %v, nre=%v)",
			seed, trial, base.Packaging.Arch, len(base.Chiplets), nodes, base.IncludeNRE)

		want, refErr := NodeSweepReference(ctx, base, d, nodes, cp, engine.WithWorkers(2))
		for _, workers := range []int{1, 3} {
			got, err := NodeSweepCtx(ctx, base, d, nodes, cp, engine.WithWorkers(workers))
			if refErr != nil {
				if err == nil {
					t.Fatalf("%s: reference failed (%v) but compiled sweep succeeded", label, refErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: compiled sweep failed: %v", label, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
			}
			for i := range want {
				if !pointsBitIdentical(got[i], want[i]) {
					t.Fatalf("%s: workers=%d point %d differs\nwant %+v\ngot  %+v", label, workers, i, want[i], got[i])
				}
			}
		}
		if refErr == nil {
			evaluated++
		}
	}
	if evaluated < 20 {
		t.Fatalf("seed %d: only %d of 40 random trials evaluated cleanly; generator too error-prone", seed, evaluated)
	}
}

// An EPYC-style sweep over identical CCDs is the shape-memo workload:
// every Gray step moves one CCD between node areas, the identical CCDs
// swap sort positions, and most points are served from the floorplan
// tree's shape memo. The compiled sweep must stay bit-identical to the
// reference at any worker count, and again on re-runs over the pooled
// scratches: a scratch's second walk fills the per-point package memo
// and its third is served from it.
func TestCompiledSweepIdenticalCCDsMatchesReference(t *testing.T) {
	d := db()
	base, err := testcases.EPYC(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []int{7, 10, 14, 22}
	cp := cost.DefaultParams()
	ctx := context.Background()
	want, err := NodeSweepReference(ctx, base, d, nodes, cp)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		plan, err := Compile(base, d, nodes, cp)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			got, err := plan.RunCtx(ctx, engine.WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d run %d: %d points, want %d", workers, run, len(got), len(want))
			}
			for i := range want {
				if !pointsBitIdentical(got[i], want[i]) {
					t.Fatalf("workers=%d run %d: point %d differs\nwant %+v\ngot  %+v", workers, run, i, want[i], got[i])
				}
			}
		}
		if s := plan.Stats(); s.Floorplan.MemoHits == 0 {
			t.Errorf("workers=%d: no shape-memo hits: %v", workers, s.Floorplan)
		}
	}
}

// Reused chiplets must survive the compiled path with zero design and
// NRE shares, exactly like the reference.
func TestCompiledSweepAllReused(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false)
	for i := range base.Chiplets {
		base.Chiplets[i].Reused = true
	}
	base.IncludeNRE = true
	nodes := []int{7, 14}
	want, err := NodeSweepReference(context.Background(), base, d, nodes, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	got, err := NodeSweepCtx(context.Background(), base, d, nodes, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !pointsBitIdentical(got[i], want[i]) {
			t.Fatalf("point %d differs\nwant %+v\ngot  %+v", i, want[i], got[i])
		}
	}
}

// A single-chiplet system sweeps down the monolith path of the plan.
func TestCompiledSweepSingleChiplet(t *testing.T) {
	d := db()
	ref := d.MustGet(7)
	base := &core.System{
		Name:     "uni",
		Chiplets: []core.Chiplet{core.BlockFromArea("die", tech.Logic, 120, ref, 7)},
		Mfg:      mfg.DefaultParams(),
		Design:   descarbon.DefaultParams(),
	}
	nodes := []int{7, 10, 14, 22}
	want, err := NodeSweepReference(context.Background(), base, d, nodes, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	got, err := NodeSweepCtx(context.Background(), base, d, nodes, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(nodes) {
		t.Fatalf("%d points, want %d", len(got), len(nodes))
	}
	for i := range want {
		if !pointsBitIdentical(got[i], want[i]) {
			t.Fatalf("point %d differs\nwant %+v\ngot  %+v", i, want[i], got[i])
		}
	}
}

// Multi-chiplet monolithic bases have no fast path; NodeSweepCtx must
// fall back to the reference and still produce its exact output.
func TestCompiledSweepMonolithicFallback(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 7, 7, true)
	if _, err := Compile(base, d, []int{7}, cost.DefaultParams()); !errors.Is(err, ErrNoFastPath) {
		t.Fatalf("Compile(monolithic) = %v, want ErrNoFastPath", err)
	}
	want, err := NodeSweepReference(context.Background(), base, d, []int{7}, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	got, err := NodeSweepCtx(context.Background(), base, d, []int{7}, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !pointsBitIdentical(got[0], want[0]) {
		t.Fatalf("fallback output differs: %+v vs %+v", got, want)
	}
}

func TestCompileErrors(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false)
	cp := cost.DefaultParams()
	if _, err := Compile(base, d, nil, cp); err == nil {
		t.Error("empty node list should fail")
	}
	if _, err := Compile(base, d, []int{7, 3}, cp); err == nil {
		t.Error("unsupported candidate node should fail")
	}
	bad := *base
	bad.SystemVolume = -1
	if _, err := Compile(&bad, d, []int{7}, cp); err == nil {
		t.Error("invalid base system should fail at compile time")
	}
}

func TestPlanStatsAndReuse(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false)
	plan, err := Compile(base, d, []int{7, 10, 14}, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Combos() != 27 {
		t.Fatalf("Combos() = %d, want 27", plan.Combos())
	}
	first, err := plan.RunCtx(context.Background(), engine.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Stats()
	if s.Points != 27 {
		t.Errorf("Stats().Points = %d, want 27", s.Points)
	}
	if s.BlockInits+s.GraySteps != 27 {
		t.Errorf("block inits (%d) + gray steps (%d) should cover all 27 points", s.BlockInits, s.GraySteps)
	}
	if s.TableCells != 9 {
		t.Errorf("TableCells = %d, want 3 chiplets x 3 nodes = 9", s.TableCells)
	}
	// A fresh scratch's first walk can never revisit a point: the
	// per-point package memo is neither read nor filled. (A serial run
	// is one walk; parallel workers may hand a scratch on mid-run.)
	serial, err := Compile(base, d, []int{7, 10, 14}, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serial.RunCtx(context.Background(), engine.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if pm := serial.Stats().PkgMemo; pm != (kernel.PkgMemoStats{}) {
		t.Errorf("a first walk touched the point memo: %+v", pm)
	}
	// A plan is reusable: a second run returns identical points.
	second, err := plan.RunCtx(context.Background(), engine.WithWorkers(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if !pointsBitIdentical(first[i], second[i]) {
			t.Fatalf("rerun point %d differs", i)
		}
	}
}

// RunCtx hands out each point's Nodes as a capped window of a shared
// chunk: appending to one point's Nodes must copy, never overwrite the
// next point's assignment.
func TestRunCtxNodesAreCappedWindows(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false)
	plan, err := Compile(base, d, []int{7, 10, 14}, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := plan.RunCtx(context.Background(), engine.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		if len(pt.Nodes) != 3 || cap(pt.Nodes) != 3 {
			t.Fatalf("point %d: Nodes len %d cap %d, want 3 and 3", i, len(pt.Nodes), cap(pt.Nodes))
		}
		want := plan.nodesFor(i)
		for j := range want {
			if pt.Nodes[j] != want[j] {
				t.Fatalf("point %d: Nodes %v, want %v", i, pt.Nodes, want)
			}
		}
	}
	next := append([]int(nil), pts[1].Nodes...)
	_ = append(pts[0].Nodes, 99)
	for j := range next {
		if pts[1].Nodes[j] != next[j] {
			t.Fatalf("appending to point 0's Nodes overwrote point 1's: %v, was %v", pts[1].Nodes, next)
		}
	}
}

func TestPlanParetoFrontCtx(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false)
	plan, err := Compile(base, d, []int{7, 10, 14}, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	front, total, err := plan.ParetoFrontCtx(context.Background(), []Metric{ByEmbodied, ByCost})
	if err != nil {
		t.Fatal(err)
	}
	if total != 27 {
		t.Fatalf("total = %d, want 27", total)
	}
	points, err := plan.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := ParetoFront(points, ByEmbodied, ByCost)
	if len(front) != len(want) {
		t.Fatalf("front size %d, want %d", len(front), len(want))
	}
	for i := range want {
		if !pointsBitIdentical(front[i], want[i]) {
			t.Fatalf("front point %d differs", i)
		}
	}
}

// The compiled path must respect cancellation.
func TestPlanRunCtxCancelled(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false)
	plan, err := Compile(base, d, []int{7, 10, 14, 22, 28}, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx on cancelled ctx = %v, want context.Canceled", err)
	}
}

// --- Disaggregate equivalence -----------------------------------------

// The compiled step plan must reproduce the greedy trajectory of the
// evaluate-per-candidate search (the exported DisaggregateReference
// oracle) bit for bit, including the group bookkeeping.
func TestDisaggregateMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		sys  *core.System
	}{
		{"tiny-blocks", fineGrained(6, 2)},
		{"mid-blocks", fineGrained(4, 30)},
		{"coarse", fineGrained(2, 120)},
	} {
		want, err := DisaggregateReference(context.Background(), tc.sys, db())
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		plan, err := Disaggregate(tc.sys, db())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		comparePlanToReference(t, tc.name, plan, want)
	}
}

// comparePlanToReference asserts a compiled plan reproduces the
// reference trajectory: bit-exact carbon, identical merge count, result
// chiplets and groups.
func comparePlanToReference(t *testing.T, label string, plan, want *Plan) {
	t.Helper()
	if plan.Steps != want.Steps {
		t.Errorf("%s: %d steps, want %d", label, plan.Steps, want.Steps)
	}
	if math.Float64bits(plan.EmbodiedKg) != math.Float64bits(want.EmbodiedKg) {
		t.Errorf("%s: embodied %v, want %v (bit-exact)", label, plan.EmbodiedKg, want.EmbodiedKg)
	}
	if math.Float64bits(plan.InitialKg) != math.Float64bits(want.InitialKg) {
		t.Errorf("%s: initial %v, want %v (bit-exact)", label, plan.InitialKg, want.InitialKg)
	}
	if len(plan.System.Chiplets) != len(want.System.Chiplets) {
		t.Fatalf("%s: %d result chiplets, want %d", label, len(plan.System.Chiplets), len(want.System.Chiplets))
	}
	for i := range want.System.Chiplets {
		if plan.System.Chiplets[i].Name != want.System.Chiplets[i].Name ||
			plan.System.Chiplets[i].NodeNm != want.System.Chiplets[i].NodeNm {
			t.Errorf("%s: chiplet %d = %+v, want %+v", label, i, plan.System.Chiplets[i], want.System.Chiplets[i])
		}
	}
	if len(plan.Groups) != len(want.Groups) {
		t.Fatalf("%s: %d groups, want %d", label, len(plan.Groups), len(want.Groups))
	}
	for i := range want.Groups {
		if fmt.Sprint(plan.Groups[i]) != fmt.Sprint(want.Groups[i]) {
			t.Errorf("%s: group %d = %v, want %v", label, i, plan.Groups[i], want.Groups[i])
		}
	}
}

// Randomized Disaggregate equivalence: random fine-grained systems
// across packaging architectures, block mixes and sizes must reproduce
// the reference trajectory at any worker count, and the compiled plan's
// stats must show the step-spanning state actually engaged.
func TestDisaggregateMatchesReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	d := db()
	archs := []pkgcarbon.Architecture{
		pkgcarbon.RDLFanout, pkgcarbon.SiliconBridge, pkgcarbon.PassiveInterposer,
		pkgcarbon.ActiveInterposer, pkgcarbon.ThreeD,
	}
	evaluated := 0
	for trial := 0; trial < 10; trial++ {
		ref := d.MustGet(7)
		n := 3 + rng.Intn(5)
		var chiplets []core.Chiplet
		for i := 0; i < n; i++ {
			c := core.BlockFromArea(fmt.Sprintf("blk%c", 'a'+i), tech.Logic, 2+rng.Float64()*40, ref, 7)
			if rng.Intn(5) == 0 {
				c.Reused = true
			}
			chiplets = append(chiplets, c)
		}
		chiplets = append(chiplets, core.BlockFromArea("mem", tech.Memory, 30+rng.Float64()*60, ref, 14))
		base := &core.System{
			Name:      fmt.Sprintf("rand%d", trial),
			Chiplets:  chiplets,
			Packaging: pkgcarbon.DefaultParams(archs[trial%len(archs)]),
			Mfg:       mfg.DefaultParams(),
			Design:    descarbon.DefaultParams(),
		}
		// Flexible shape curves plan candidates through PlanFlexible
		// instead of the retained tree; cover them too.
		if trial%3 == 0 {
			base.Packaging.FlexibleFloorplan = true
		}
		want, refErr := DisaggregateReference(context.Background(), base, d)
		for _, workers := range []int{1, 3} {
			plan, err := DisaggregateCtx(context.Background(), base, d, engine.WithWorkers(workers))
			if refErr != nil {
				if err == nil {
					t.Fatalf("trial %d: reference failed (%v) but compiled search succeeded", trial, refErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			comparePlanToReference(t, fmt.Sprintf("trial %d workers=%d", trial, workers), plan, want)
			if plan.Steps > 0 && plan.Stats.Candidates == 0 {
				t.Errorf("trial %d: no candidates counted: %+v", trial, plan.Stats)
			}
		}
		if refErr == nil {
			evaluated++
		}
	}
	if evaluated < 6 {
		t.Fatalf("only %d of 10 random trials evaluated cleanly", evaluated)
	}
}

// The step-spanning scratch pool and merged-cell memo must actually
// engage on a many-block search, and the pooled estimators' floorplan
// counters must fold in the candidates' block-set rebuilds.
func TestDisaggregateStepSpanningStats(t *testing.T) {
	plan, err := Disaggregate(fineGrained(6, 2), db())
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Stats
	if s.Steps == 0 || s.Candidates == 0 {
		t.Fatalf("expected a multi-step search: %+v", s)
	}
	if s.ScratchReuses == 0 {
		t.Errorf("worker scratches were not pooled across steps: %+v", s)
	}
	if s.MergedCellHits == 0 {
		t.Errorf("merged-cell memo never hit across steps: %+v", s)
	}
	if s.Floorplan.DiffFallbacks == 0 {
		t.Errorf("candidate block-set rebuilds were not folded into the stats: %+v", s.Floorplan)
	}
}

// --- Walk: streaming visitor ------------------------------------------

// Walk must stream every point of the sweep exactly once, with the same
// slot addressing and float bits as the materializing RunCtx path.
func TestWalkStreamsAllPoints(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false)
	plan, err := Compile(base, d, []int{7, 10, 14}, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got := make([]Point, plan.Combos())
		seen := make([]bool, plan.Combos())
		var mu sync.Mutex
		err = plan.Walk(context.Background(), func(idx int, pt *Point) error {
			cp := *pt
			cp.Nodes = append([]int(nil), pt.Nodes...)
			mu.Lock()
			defer mu.Unlock()
			if seen[idx] {
				return fmt.Errorf("slot %d visited twice", idx)
			}
			seen[idx] = true
			got[idx] = cp
			return nil
		}, engine.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !seen[i] {
				t.Fatalf("workers=%d: slot %d never visited", workers, i)
			}
			if !pointsBitIdentical(got[i], want[i]) {
				t.Fatalf("workers=%d: point %d differs\nwant %+v\ngot  %+v", workers, i, want[i], got[i])
			}
		}
	}
}

// A visit error must cancel the walk and surface to the caller.
func TestWalkVisitError(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false)
	plan, err := Compile(base, d, []int{7, 10, 14}, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop here")
	err = plan.Walk(context.Background(), func(idx int, pt *Point) error {
		if idx == 5 {
			return sentinel
		}
		return nil
	}, engine.WithWorkers(1))
	if !errors.Is(err, sentinel) {
		t.Fatalf("Walk error = %v, want the visitor's sentinel", err)
	}
}

// Walk's result allocations must scale with the block count, not the
// point count: the visited *Point (including Nodes) is scratch-owned, so
// a full 125-point sweep stays within a fixed per-block scratch budget.
func TestWalkAllocationsPerBlock(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false)
	plan, err := Compile(base, d, []int{7, 10, 14, 22, 28}, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Combos() != 125 {
		t.Fatalf("combos = %d, want 125", plan.Combos())
	}
	ctx := context.Background()
	count := 0
	allocs := testing.AllocsPerRun(5, func() {
		count = 0
		if err := plan.Walk(ctx, func(int, *Point) error { count++; return nil }, engine.WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
	})
	if count != 125 {
		t.Fatalf("visited %d points, want 125", count)
	}
	// One single-block walk costs a handful of scratch allocations
	// (digit buffers, estimator, floorplan arena); 125 retained points
	// would cost at least 125.
	if allocs > 60 {
		t.Errorf("Walk allocated %.0f times for a 125-point sweep; result allocations must be O(blocks), not O(points)", allocs)
	}
}

// --- ParetoFrontCtx: folded skyline reduction -------------------------

// The fold must return byte-identical fronts to the materializing
// ParetoFront(RunCtx(...)) path across random systems, node sets, worker
// counts and objective mixes — including a quantized objective that
// forces exact ties and duplicates.
func TestParetoFrontCtxMatchesMaterializedRandomized(t *testing.T) {
	d := db()
	cp := cost.DefaultParams()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20260728))
	quantCost := func(p Point) float64 { return math.Floor(p.CostUSD/50) * 50 }
	objectiveSets := [][]Metric{
		{ByEmbodied, ByCost},
		{ByTotal, ByArea},
		{quantCost, ByEmbodied},
		{ByEmbodied, ByCost, ByArea},
	}

	evaluated := 0
	for trial := 0; trial < 25; trial++ {
		base := testcases.Random(rng, d)
		nodes := testcases.RandomNodes(rng)
		objectives := objectiveSets[trial%len(objectiveSets)]
		plan, err := Compile(base, d, nodes, cp)
		if err != nil {
			continue
		}
		points, err := plan.RunCtx(ctx)
		if err != nil {
			continue
		}
		want := ParetoFront(points, objectives...)
		for _, workers := range []int{1, 3} {
			got, total, err := plan.ParetoFrontCtx(ctx, objectives, engine.WithWorkers(workers))
			if err != nil {
				t.Fatalf("trial %d: fold failed: %v", trial, err)
			}
			if total != len(points) {
				t.Fatalf("trial %d: total = %d, want %d", trial, total, len(points))
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d workers=%d: front size %d, want %d", trial, workers, len(got), len(want))
			}
			for i := range want {
				if !pointsBitIdentical(got[i], want[i]) {
					t.Fatalf("trial %d workers=%d front point %d differs\nwant %+v\ngot  %+v",
						trial, workers, i, want[i], got[i])
				}
			}
		}
		evaluated++
	}
	if evaluated < 15 {
		t.Fatalf("only %d of 25 random trials evaluated cleanly", evaluated)
	}
}
