package floorplan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// boxBitIdentical compares a tree's result with a from-scratch
// plan at float-bit granularity: the bounding box and the total must
// carry the same bits, and the tree's result carries no placements or
// adjacencies.
func boxBitIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if math.Float64bits(want.WidthMM) != math.Float64bits(got.WidthMM) ||
		math.Float64bits(want.HeightMM) != math.Float64bits(got.HeightMM) ||
		math.Float64bits(want.ChipletAreaMM2) != math.Float64bits(got.ChipletAreaMM2) {
		t.Fatalf("%s: box differs: want %g x %g (total %g), got %g x %g (total %g)", label,
			want.WidthMM, want.HeightMM, want.ChipletAreaMM2, got.WidthMM, got.HeightMM, got.ChipletAreaMM2)
	}
	if got.Placements != nil || got.Adjacencies != nil {
		t.Fatalf("%s: tree result carries placements or adjacencies", label)
	}
}

// dimsIdentical checks a tree result against a from-scratch plan of
// blocks at float-bit granularity.
func dimsIdentical(t *testing.T, label string, blocks []Block, spacing float64, got *Result) {
	t.Helper()
	var sc Scratch
	want, err := sc.Plan(blocks, spacing)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	boxBitIdentical(t, label, want, got)
}

// One Tree fed arbitrary block sets through PlanDims must stay bit
// identical to the from-scratch planner, whatever mix of rebuilds and
// same-shape layouts it takes internally.
func TestTreePlanMatchesScratchPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var tr Tree
	var sc Scratch
	for trial := 0; trial < 300; trial++ {
		var blocks []Block
		if trial%3 == 0 || trial == 0 {
			blocks = randBlocks(rng)
		} else {
			// Mostly reuse the previous shape with a few areas nudged, so
			// the same-shape layout actually runs.
			blocks = append([]Block(nil), tr.blocks...)
			for i := range blocks {
				if rng.Intn(2) == 0 {
					blocks[i].AreaMM2 = 1 + rng.Float64()*200
				}
			}
		}
		want, err := sc.Plan(blocks, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.PlanDims(blocks, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		boxBitIdentical(t, fmt.Sprintf("trial %d", trial), want, got)
	}
	s := tr.Stats
	if s.Fallbacks == 0 {
		t.Errorf("randomized plan sequence did not exercise same-shape layouts: %+v", s)
	}
	if s.Rebuilds == 0 {
		t.Errorf("randomized plan sequence never rebuilt: %+v", s)
	}
}

// PlanDims must match a from-scratch plan after every single-area step
// of a random walk (the step a compiled sweep's package-memo miss
// plans), including steps that change nothing, whether the step is
// laid out or served by the previous Result.
func TestTreeUpdateMatchesScratchPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sc Scratch
	var total TreeStats
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(8)
		blocks := make([]Block, n)
		for i := range blocks {
			blocks[i] = Block{Name: fmt.Sprintf("b%d", i), AreaMM2: 1 + rng.Float64()*300}
			if rng.Intn(3) == 0 {
				blocks[i].AspectRatio = 0.5 + rng.Float64()
			}
		}
		var tr Tree
		if _, err := tr.PlanDims(blocks, 0.5); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 60; step++ {
			idx := rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				blocks[idx].AreaMM2 = 1 + rng.Float64()*300 // anything goes
			case 1:
				blocks[idx].AreaMM2 *= 1 + 0.01*rng.Float64() // tiny nudge: usually keeps topology
			case 2:
				// re-assert the current value: a no-op step
			default:
				blocks[idx].AreaMM2 = blocks[(idx+1)%n].AreaMM2 // force an area tie
			}
			want, err := sc.Plan(blocks, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tr.PlanDims(blocks, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			boxBitIdentical(t, fmt.Sprintf("round %d step %d", round, step), want, got)
		}
		total.Add(tr.Stats)
	}
	if total.Fallbacks == 0 || total.Unchanged == 0 {
		t.Errorf("random walk did not exercise layouts and unchanged steps: %+v", total)
	}
}

// Adversarial single-area perturbation sequences: each step is designed
// to flip the sorted order or an area-balanced partition decision, so
// the re-sort must land every block where a full sort would, and the
// layout must still be bit-identical.
func TestTreeUpdateForcedFallbacks(t *testing.T) {
	blocks := []Block{
		{Name: "a", AreaMM2: 400},
		{Name: "b", AreaMM2: 200},
		{Name: "c", AreaMM2: 100},
		{Name: "d", AreaMM2: 50},
		{Name: "e", AreaMM2: 25},
	}
	var tr Tree
	var sc Scratch
	if _, err := tr.PlanDims(blocks, 0.5); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		idx  int
		area float64
		why  string
	}{
		{4, 1000, "smallest becomes largest: sort-order flip"},
		{0, 10, "former largest collapses: sort-order flip"},
		{1, 960, "near-largest: partition balance flips"},
		{3, 999.5, "tie-adjacent insertion"},
		{2, 1000, "exact tie with the largest (stability check)"},
		{4, 0.001, "vanishingly small"},
		{0, 500, "recover mid-range"},
	}
	for i, st := range steps {
		blocks[st.idx].AreaMM2 = st.area
		want, err := sc.Plan(blocks, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.PlanDims(blocks, 0.5)
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, st.why, err)
		}
		boxBitIdentical(t, fmt.Sprintf("step %d (%s)", i, st.why), want, got)
	}
	if s := tr.Stats; s.Fallbacks != uint64(len(steps)) {
		t.Errorf("every adversarial step should lay out once: %+v", s)
	}
}

// sweepBlocks builds k identical CCD-style blocks plus odd ones, each
// block drawing its area from a small per-kind pool — the shape of a
// compiled node sweep, where every Gray step moves one die between a
// handful of node areas and identical dies swap sort positions.
func sweepBlocks(rng *rand.Rand, k, odd int, aspects bool) (blocks []Block, pools [][]float64) {
	ccd := []float64{74, 52.5, 61.25, 88}
	for i := 0; i < k; i++ {
		blocks = append(blocks, Block{Name: fmt.Sprintf("ccd%d", i), AreaMM2: ccd[rng.Intn(len(ccd))]})
		pools = append(pools, ccd)
	}
	for i := 0; i < odd; i++ {
		pool := []float64{416, 61.25, 150 + 50*rng.Float64(), 20 + rng.Float64()}
		b := Block{Name: fmt.Sprintf("odd%d", i), AreaMM2: pool[rng.Intn(len(pool))]}
		if aspects {
			b.AspectRatio = 0.5 + rng.Float64()
		}
		blocks = append(blocks, b)
		pools = append(pools, pool)
	}
	return blocks, pools
}

// Randomized sweep-shaped single-area steps through PlanDims over
// identical blocks, exact area ties (pools share values across kinds)
// and non-uniform aspect ratios: every step re-sorts blocks whose
// twins swap sort positions and must still match from scratch.
func TestTreeUpdateDimsMatchesScratchRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	var total TreeStats
	for round := 0; round < 40; round++ {
		k, odd := 2+rng.Intn(7), rng.Intn(3)
		blocks, pools := sweepBlocks(rng, k, odd, round%3 == 2)
		spacing := []float64{0.1, 0.5, 1}[round%3]
		var tr Tree
		if _, err := tr.PlanDims(blocks, spacing); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 300; step++ {
			i := rng.Intn(len(blocks))
			if rng.Intn(10) == 0 {
				blocks[i].AreaMM2 = 1 + 400*rng.Float64() // a shape never seen before
			} else {
				blocks[i].AreaMM2 = pools[i][rng.Intn(len(pools[i]))]
			}
			got, err := tr.PlanDims(blocks, spacing)
			if err != nil {
				t.Fatal(err)
			}
			dimsIdentical(t, fmt.Sprintf("round %d step %d", round, step), blocks, spacing, got)
		}
		total.Add(tr.Stats)
	}
	if total.Unchanged == 0 || total.Fallbacks == 0 {
		t.Errorf("sequence did not exercise unchanged plans and layouts: %+v", total)
	}
}

// Spacing changes count as Rebuilds; block-set and aspect changes
// count one DiffFallbacks each (and still match) — never serving the
// box of the previous shape either way.
func TestTreeRebuildOnShapeChange(t *testing.T) {
	var tr Tree
	var sc Scratch
	a := []Block{{Name: "a", AreaMM2: 100}, {Name: "b", AreaMM2: 60}}
	if _, err := tr.PlanDims(a, 0.5); err != nil {
		t.Fatal(err)
	}
	// Different spacing.
	want, _ := sc.Plan(a, 0.8)
	got, err := tr.PlanDims(a, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	boxBitIdentical(t, "spacing change", want, got)
	// Different block count.
	b := []Block{{Name: "a", AreaMM2: 100}, {Name: "b", AreaMM2: 60}, {Name: "c", AreaMM2: 10}}
	want, _ = sc.Plan(b, 0.8)
	got, err = tr.PlanDims(b, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	boxBitIdentical(t, "count change", want, got)
	// Different aspect ratio at equal areas.
	c := []Block{{Name: "a", AreaMM2: 100, AspectRatio: 2}, {Name: "b", AreaMM2: 60}, {Name: "c", AreaMM2: 10}}
	want, _ = sc.Plan(c, 0.8)
	got, err = tr.PlanDims(c, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	boxBitIdentical(t, "aspect change", want, got)
	s := tr.Stats
	if s.Rebuilds != 2 {
		t.Errorf("initial plan + spacing change should rebuild twice: %+v", s)
	}
	if s.DiffFallbacks != 2 || s.FastPath != 0 || s.Fallbacks != 0 || s.Unchanged != 0 {
		t.Errorf("count and aspect changes should each count one block-set rebuild and nothing else: %+v", s)
	}
}

// Rejected inputs leave the kept state intact: the next plan is still
// served against the last good one.
func TestTreeUpdateErrors(t *testing.T) {
	var tr Tree
	good := []Block{{Name: "a", AreaMM2: 10}, {Name: "b", AreaMM2: 5}}
	if _, err := tr.PlanDims(good, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.PlanDims(nil, 0.5); err == nil {
		t.Error("empty block list should fail")
	}
	if _, err := tr.PlanDims(good[:1], 7); err == nil {
		t.Error("out-of-range spacing should fail")
	}
	if _, err := tr.PlanDims([]Block{{Name: "a", AreaMM2: 10}, {Name: "b", AreaMM2: -3}}, 0.5); err == nil {
		t.Error("non-positive area should fail")
	}
	tr.Stats = TreeStats{}
	res, err := tr.PlanDims(good, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dimsIdentical(t, "unchanged after rejected inputs", good, 0.5, res)
	if tr.Stats != (TreeStats{Unchanged: 1}) {
		t.Errorf("rejected inputs disturbed the kept state: %+v", tr.Stats)
	}
	good[1].AreaMM2 = 6
	if res, err = tr.PlanDims(good, 0.5); err != nil {
		t.Fatal(err)
	}
	dimsIdentical(t, "after rejected inputs", good, 0.5, res)
}

// NaN areas are rejected at every entry point: the stable sort never
// moves a block across a NaN, and layoutDims's inline max assumes
// ordered dims.
func TestNaNAreasRejected(t *testing.T) {
	nan := math.NaN()
	blocks := []Block{{Name: "a", AreaMM2: 10}, {Name: "b", AreaMM2: nan}, {Name: "c", AreaMM2: 20}}
	if _, err := Plan(blocks, 0.5); err == nil {
		t.Error("Plan accepted a NaN area")
	}
	if _, err := PlanFlexible(blocks, 0.5, nil); err == nil {
		t.Error("PlanFlexible accepted a NaN area")
	}
	var tr Tree
	if _, err := tr.PlanDims(blocks, 0.5); err == nil {
		t.Error("Tree.PlanDims accepted a NaN area")
	}
	blocks[1].AreaMM2 = 5
	if _, err := tr.PlanDims(blocks, 0.5); err != nil {
		t.Fatal(err)
	}
	blocks[1].AreaMM2 = nan
	if _, err := tr.PlanDims(blocks, 0.5); err == nil {
		t.Error("Tree.PlanDims accepted a NaN area on a built tree")
	}
	blocks[1].AreaMM2 = 6
	got, err := tr.PlanDims(blocks, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dimsIdentical(t, "after rejected NaN", blocks, 0.5, got)
}

// Sanity-check the counters: a same-area plan is Unchanged, every
// changed area is a Fallback (laid out from scratch) whether or not it
// moves the block in the sorted order or revisits an earlier shape,
// and FastPath stays zero. Add carries the counts and String prints
// them.
func TestTreeStatsCounters(t *testing.T) {
	blocks := []Block{
		{Name: "a", AreaMM2: 400}, {Name: "b", AreaMM2: 200},
		{Name: "c", AreaMM2: 100}, {Name: "d", AreaMM2: 50},
	}
	var tr Tree
	for _, a := range []float64{
		50,   // first plan
		50,   // same area
		51,   // tiny nudge, topology intact
		5000, // sort flip
		51,   // revisited shape
	} {
		blocks[3].AreaMM2 = a
		if _, err := tr.PlanDims(blocks, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	s := tr.Stats
	if s != (TreeStats{Rebuilds: 1, Unchanged: 1, Fallbacks: 3}) {
		t.Errorf("unexpected counters: %+v", s)
	}
	var sum TreeStats
	sum.Add(s)
	sum.Add(s)
	if sum.Fallbacks != 6 || sum.Plans() != 2*s.Plans() {
		t.Errorf("Add lost counts: sum %+v of twice %+v", sum, s)
	}
	if str, want := s.String(), "floorplan tree: 1 unchanged / 3+0 fallbacks / 1 rebuilds"; str != want {
		t.Errorf("String() = %q, want %q", str, want)
	}
}

// Pin the counter meanings: one call of each kind raises Plans() by
// exactly one, through exactly the counter that kind names, returns the
// from-scratch box, and leaves FastPath at zero.
func TestTreeStatsEachCallCountsOnce(t *testing.T) {
	blocks := []Block{{Name: "a", AreaMM2: 100}, {Name: "b", AreaMM2: 60}, {Name: "c", AreaMM2: 30}}
	spacing := 0.5
	var tr Tree
	plan := func() (*Result, error) { return tr.PlanDims(blocks, spacing) }
	area := func(i int, a float64) func() (*Result, error) {
		return func() (*Result, error) {
			blocks[i].AreaMM2 = a
			return plan()
		}
	}
	steps := []struct {
		kind string
		call func() (*Result, error)
		want TreeStats
	}{
		{"first plan", plan, TreeStats{Rebuilds: 1}},
		{"spacing change", func() (*Result, error) {
			spacing = 0.8
			return plan()
		}, TreeStats{Rebuilds: 1}},
		{"block-set change", func() (*Result, error) {
			blocks = append(blocks, Block{Name: "d", AreaMM2: 20})
			return plan()
		}, TreeStats{DiffFallbacks: 1}},
		{"unchanged plan", plan, TreeStats{Unchanged: 1}},
		{"same area re-asserted", area(1, 60), TreeStats{Unchanged: 1}},
		{"area change", area(2, 40), TreeStats{Fallbacks: 1}},
		{"area change back", area(2, 30), TreeStats{Fallbacks: 1}},
		{"revisited area", area(2, 40), TreeStats{Fallbacks: 1}},
	}
	for _, st := range steps {
		tr.Stats = TreeStats{} // count this step alone, as an owner's fold leaves it
		got, err := st.call()
		if err != nil {
			t.Fatalf("%s: %v", st.kind, err)
		}
		dimsIdentical(t, st.kind, blocks, spacing, got)
		if d := tr.Stats; d != st.want {
			t.Errorf("%s: counted %+v, want %+v", st.kind, d, st.want)
		}
		if tr.Stats.Plans() != 1 {
			t.Errorf("%s: Plans() = %d, want one", st.kind, tr.Stats.Plans())
		}
		if tr.Stats.FastPath != 0 {
			t.Errorf("%s: FastPath = %d, want 0", st.kind, tr.Stats.FastPath)
		}
	}
}
