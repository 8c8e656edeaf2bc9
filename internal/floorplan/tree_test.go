package floorplan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// boxBitIdentical compares a retained tree's result with a from-scratch
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

// One retained Tree fed arbitrary block sets through PlanDims must stay
// bit identical to the from-scratch planner, whatever mix of rebuilds
// and incremental updates it takes internally.
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
			// the incremental path actually runs.
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
	s := tr.Stats()
	if s.FastPath == 0 || s.Fallbacks == 0 {
		t.Errorf("randomized plan sequence did not exercise relayouts and flip rebuilds: %+v", s)
	}
	if s.Rebuilds == 0 {
		t.Errorf("randomized plan sequence never rebuilt: %+v", s)
	}
}

// Update must match a from-scratch plan after every single-area step of
// a random walk, including steps that change nothing, whether the step
// is served by a relayout, a rebuild or the shape memo.
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
		total.Add(tr.Stats())
	}
	if total.FastPath == 0 || total.Fallbacks == 0 || total.MemoHits == 0 {
		t.Errorf("random walk did not exercise relayouts, rebuilds and memo hits: %+v", total)
	}
}

// Adversarial single-area perturbation sequences: each step is designed
// to flip the sorted order or an area-balanced partition decision, so
// the guard must detect the topology change and take the full-replan
// fallback — and the fallback must still be bit-identical.
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
	if s := tr.Stats(); s.Fallbacks == 0 {
		t.Errorf("adversarial sequence never exercised the full-replan fallback: %+v", s)
	}
}

// Spacing changes count as Rebuilds; block-set and aspect changes
// count one DiffFallbacks each (and still match) — never serving a
// stale topology either way.
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
	s := tr.Stats()
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
	// The tree must survive rejected inputs: the retained state still
	// serves the last good plan.
	res, err := tr.Update(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	dimsIdentical(t, "after rejected inputs", []Block{{Name: "a", AreaMM2: 10}, {Name: "b", AreaMM2: 6}}, 0.5, res)
}

// Sanity-check the counters: a same-area update is Unchanged, a
// topology-preserving one is FastPath with a positive relayout depth,
// and a flip is a Fallback.
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
	s := tr.Stats()
	if s.Rebuilds != 1 || s.Unchanged != 1 || s.FastPath != 1 || s.Fallbacks != 1 {
		t.Errorf("unexpected counters: %+v", s)
	}
	if s.MeanRelayoutDepth() <= 0 {
		t.Errorf("fast-path update should have recomposed nodes: %+v", s)
	}
}
