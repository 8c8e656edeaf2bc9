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

// Update must match a from-scratch plan after every single-area step of
// a random walk, including steps that change nothing, whether the step
// is served by a layout, the shape memo or the previous Result.
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
				// re-assert the current value: a no-op update
			default:
				blocks[idx].AreaMM2 = blocks[(idx+1)%n].AreaMM2 // force an area tie
			}
			want, err := sc.Plan(blocks, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tr.Update(idx, blocks[idx].AreaMM2)
			if err != nil {
				t.Fatal(err)
			}
			boxBitIdentical(t, fmt.Sprintf("round %d step %d", round, step), want, got)
		}
		total.Add(tr.Stats)
	}
	if total.Fallbacks == 0 || total.MemoHits == 0 || total.Unchanged == 0 {
		t.Errorf("random walk did not exercise layouts, memo hits and unchanged steps: %+v", total)
	}
}

// Adversarial single-area perturbation sequences: each step is designed
// to flip the sorted order or an area-balanced partition decision, so
// the O(n) order repair must land every block where a full sort would,
// and the layout of the repaired order must still be bit-identical.
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
		got, err := tr.Update(st.idx, st.area)
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, st.why, err)
		}
		boxBitIdentical(t, fmt.Sprintf("step %d (%s)", i, st.why), want, got)
	}
	if s := tr.Stats; s.Fallbacks == 0 {
		t.Errorf("adversarial sequence never laid out the repaired order: %+v", s)
	}
}

// Spacing changes count as Rebuilds; block-set and aspect changes
// count one DiffFallbacks each (and still match) — never serving a
// box or memo entry of the previous shape either way.
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
	if s.DiffFallbacks != 2 || s.FastPath != 0 || s.MemoHits != 0 {
		t.Errorf("count and aspect changes should each count one block-set rebuild and nothing else: %+v", s)
	}
}

func TestTreeUpdateErrors(t *testing.T) {
	var tr Tree
	if _, err := tr.Update(0, 10); err == nil {
		t.Error("Update before PlanDims should fail")
	}
	if _, err := tr.PlanDims([]Block{{Name: "a", AreaMM2: 10}, {Name: "b", AreaMM2: 5}}, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Update(2, 10); err == nil {
		t.Error("out-of-range index should fail")
	}
	if _, err := tr.Update(-1, 10); err == nil {
		t.Error("negative index should fail")
	}
	if _, err := tr.Update(0, -3); err == nil {
		t.Error("non-positive area should fail")
	}
	if _, err := tr.PlanDims(nil, 0.5); err == nil {
		t.Error("empty block list should fail")
	}
	if _, err := tr.PlanDims([]Block{{Name: "a", AreaMM2: 10}}, 7); err == nil {
		t.Error("out-of-range spacing should fail")
	}
	// The tree must survive rejected inputs: the kept state still
	// serves the last good plan.
	res, err := tr.Update(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	dimsIdentical(t, "after rejected inputs", []Block{{Name: "a", AreaMM2: 10}, {Name: "b", AreaMM2: 6}}, 0.5, res)
}

// Sanity-check the counters: a same-area update is Unchanged, every new
// shape is a Fallback (laid out from scratch) whether or not it moves
// the block in the sorted order, a revisited shape is a MemoHit, and
// FastPath stays zero.
func TestTreeStatsCounters(t *testing.T) {
	blocks := []Block{
		{Name: "a", AreaMM2: 400}, {Name: "b", AreaMM2: 200},
		{Name: "c", AreaMM2: 100}, {Name: "d", AreaMM2: 50},
	}
	var tr Tree
	if _, err := tr.PlanDims(blocks, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Update(3, 50); err != nil { // same area
		t.Fatal(err)
	}
	if _, err := tr.Update(3, 51); err != nil { // tiny nudge, topology intact
		t.Fatal(err)
	}
	if _, err := tr.Update(3, 5000); err != nil { // sort flip
		t.Fatal(err)
	}
	if _, err := tr.Update(3, 51); err != nil { // revisited shape
		t.Fatal(err)
	}
	s := tr.Stats
	if s.Rebuilds != 1 || s.Unchanged != 1 || s.Fallbacks != 2 || s.MemoHits != 1 || s.FastPath != 0 {
		t.Errorf("unexpected counters: %+v", s)
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
	update := func(i int, a float64) func() (*Result, error) {
		return func() (*Result, error) {
			blocks[i].AreaMM2 = a
			return tr.Update(i, a)
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
		{"unchanged PlanDims", plan, TreeStats{Unchanged: 1}},
		{"unchanged Update", update(1, 60), TreeStats{Unchanged: 1}},
		{"Update memo miss", update(2, 40), TreeStats{Fallbacks: 1}},
		{"area-changed PlanDims", func() (*Result, error) {
			blocks[2].AreaMM2 = 30
			return plan()
		}, TreeStats{Fallbacks: 1}},
		{"Update memo hit", update(2, 40), TreeStats{MemoHits: 1}},
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
