package floorplan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Tests of the name-keyed remove/insert diff: one retained Tree fed
// arbitrary block-set edits must stay bit-identical to the from-scratch
// planner, whatever mix of splices and fresh recursion it takes.

// mutateBlockSet applies a random remove/insert/rename/resize edit mix
// to a block set, returning the new caller-order list. nameSeq feeds
// fresh unique names for inserted blocks.
func mutateBlockSet(rng *rand.Rand, blocks []Block, nameSeq *int) []Block {
	out := append([]Block(nil), blocks...)
	// Remove up to 2 random blocks (keeping at least one).
	for k := rng.Intn(3); k > 0 && len(out) > 1; k-- {
		i := rng.Intn(len(out))
		out = append(out[:i], out[i+1:]...)
	}
	// Insert up to 2 fresh blocks at random positions.
	for k := rng.Intn(3); k > 0 && len(out) < 10; k-- {
		*nameSeq++
		b := Block{Name: fmt.Sprintf("n%d", *nameSeq), AreaMM2: 1 + rng.Float64()*200}
		if rng.Intn(4) == 0 {
			b.AspectRatio = 0.5 + rng.Float64()
		}
		i := rng.Intn(len(out) + 1)
		out = append(out[:i], append([]Block{b}, out[i:]...)...)
	}
	// Occasionally resize a survivor (a dirty leaf the diff cannot graft)
	// or force an area tie (the stable-sort tiebreak path).
	if len(out) > 0 && rng.Intn(2) == 0 {
		i := rng.Intn(len(out))
		if rng.Intn(3) == 0 && len(out) > 1 {
			out[i].AreaMM2 = out[(i+1)%len(out)].AreaMM2
		} else {
			out[i].AreaMM2 = 1 + rng.Float64()*200
		}
	}
	// Occasionally permute the caller order (same names, new positions).
	if rng.Intn(4) == 0 {
		rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	}
	return out
}

// Randomized parity: remove/insert sequences against the from-scratch
// planner.
func TestTreeDiffMatchesScratchPlanRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	var tr Tree
	var sc Scratch
	nameSeq := 0
	blocks := randBlocks(rng)
	for trial := 0; trial < 400; trial++ {
		blocks = mutateBlockSet(rng, blocks, &nameSeq)
		want, errW := sc.Plan(blocks, 0.5)
		got, errG := tr.PlanDims(blocks, 0.5)
		if errW != nil || errG != nil {
			t.Fatalf("trial %d: unexpected errors %v / %v", trial, errW, errG)
		}
		boxBitIdentical(t, fmt.Sprintf("trial %d", trial), want, got)
	}
	s := tr.Stats()
	if s.DiffFastPath == 0 {
		t.Errorf("randomized edit sequence never took the diff path: %+v", s)
	}
	if s.Splices == 0 {
		t.Errorf("diff plans never spliced a retained subtree: %+v", s)
	}
}

// The Disaggregate candidate shape: every greedy candidate removes two
// survivors and appends their merged die. Each candidate plan must be
// bit-identical to a from-scratch plan and almost all must be served by
// the diff with splices.
func TestTreeDiffDisaggregateShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := make([]Block, 9)
	for i := range base {
		base[i] = Block{Name: fmt.Sprintf("blk%d", i), AreaMM2: 5 + rng.Float64()*120}
	}
	var tr Tree
	var sc Scratch
	if _, err := tr.PlanDims(base, 0.5); err != nil {
		t.Fatal(err)
	}
	plans := 0
	for i := 0; i < len(base); i++ {
		for j := i + 1; j < len(base); j++ {
			cand := make([]Block, 0, len(base)-1)
			for k, b := range base {
				if k != i && k != j {
					cand = append(cand, b)
				}
			}
			cand = append(cand, Block{
				Name:    base[i].Name + "+" + base[j].Name,
				AreaMM2: base[i].AreaMM2 + base[j].AreaMM2,
			})
			want, err := sc.Plan(cand, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tr.PlanDims(cand, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			boxBitIdentical(t, fmt.Sprintf("candidate (%d,%d)", i, j), want, got)
			plans++
		}
	}
	s := tr.Stats()
	if s.DiffFastPath != uint64(plans) {
		t.Errorf("all %d candidate plans should be served by the diff: %+v", plans, s)
	}
	if s.Splices == 0 {
		t.Errorf("candidate plans should splice surviving subtrees: %+v", s)
	}
	if rate := s.ReuseRate(); rate < 0.5 {
		t.Errorf("candidate reuse rate %.2f below 0.5: %+v", rate, s)
	}
}

// ForkDims must reproduce the from-scratch bounding box of every merge
// candidate bit for bit, for every removed pair over random bases —
// without disturbing the retained plan (the base must still serve
// Unchanged after the forks).
func TestTreeForkDimsMatchesScratchPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	var sc Scratch
	for round := 0; round < 30; round++ {
		n := 2 + rng.Intn(8)
		base := make([]Block, n)
		for i := range base {
			base[i] = Block{Name: fmt.Sprintf("b%d", i), AreaMM2: 1 + rng.Float64()*200}
		}
		if n > 2 && rng.Intn(2) == 0 {
			base[n-1].AreaMM2 = base[0].AreaMM2 // exact tie
		}
		var tr Tree
		if _, err := tr.PlanDims(base, 0.5); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				merged := Block{
					Name:    base[i].Name + "+" + base[j].Name,
					AreaMM2: base[i].AreaMM2 + base[j].AreaMM2,
				}
				if rng.Intn(3) == 0 {
					merged.AreaMM2 = base[i].AreaMM2 // force sort ties with a survivor
				}
				cand := make([]Block, 0, n-1)
				for k, b := range base {
					if k != i && k != j {
						cand = append(cand, b)
					}
				}
				cand = append(cand, merged)
				want, err := sc.Plan(cand, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				w, h, total, err := tr.ForkDims(i, j, merged)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(w) != math.Float64bits(want.WidthMM) ||
					math.Float64bits(h) != math.Float64bits(want.HeightMM) ||
					math.Float64bits(total) != math.Float64bits(want.ChipletAreaMM2) {
					t.Fatalf("round %d fork (%d,%d): got %g x %g (%g), want %g x %g (%g)",
						round, i, j, w, h, total, want.WidthMM, want.HeightMM, want.ChipletAreaMM2)
				}
			}
		}
		// The retained base must be untouched by the forks.
		before := tr.Stats().Unchanged
		if _, err := tr.PlanDims(base, 0.5); err != nil {
			t.Fatal(err)
		}
		if got := tr.Stats().Unchanged; got != before+1 {
			t.Fatalf("round %d: forks disturbed the retained base: %+v", round, tr.Stats())
		}
	}
}

func TestTreeForkDimsErrors(t *testing.T) {
	var tr Tree
	if _, _, _, err := tr.ForkDims(0, 1, Block{Name: "x", AreaMM2: 5}); err == nil {
		t.Error("fork before PlanDims should fail")
	}
	base := []Block{{Name: "a", AreaMM2: 10}, {Name: "b", AreaMM2: 5}, {Name: "c", AreaMM2: 2}}
	if _, err := tr.PlanDims(base, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tr.ForkDims(0, 3, Block{Name: "x", AreaMM2: 5}); err == nil {
		t.Error("out-of-range removed index should fail")
	}
	if _, _, _, err := tr.ForkDims(1, 1, Block{Name: "x", AreaMM2: 5}); err == nil {
		t.Error("equal removed indices should fail")
	}
	if _, _, _, err := tr.ForkDims(0, 1, Block{Name: "x", AreaMM2: -5}); err == nil {
		t.Error("non-positive extra area should fail")
	}
}

// Adversarial shape changes the diff must decline (and still match): a
// fully disjoint name set, survivors that all changed area, and
// ambiguous (duplicate) retained names.
func TestTreeDiffForcedFallbacks(t *testing.T) {
	var tr Tree
	var sc Scratch
	a := []Block{{Name: "a", AreaMM2: 100}, {Name: "b", AreaMM2: 60}, {Name: "c", AreaMM2: 30}}
	if _, err := tr.PlanDims(a, 0.5); err != nil {
		t.Fatal(err)
	}

	// Disjoint names: no survivor, diff declines.
	b := []Block{{Name: "x", AreaMM2: 80}, {Name: "y", AreaMM2: 40}}
	want, _ := sc.Plan(b, 0.5)
	got, err := tr.PlanDims(b, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	boxBitIdentical(t, "disjoint names", want, got)
	if s := tr.Stats(); s.DiffFallbacks != 1 {
		t.Errorf("disjoint name set should count a diff fallback: %+v", s)
	}

	// Same names but every area changed: no clean survivor.
	c := []Block{{Name: "x", AreaMM2: 70}, {Name: "y", AreaMM2: 50}, {Name: "z", AreaMM2: 20}}
	want, _ = sc.Plan(c, 0.5)
	if got, err = tr.PlanDims(c, 0.5); err != nil {
		t.Fatal(err)
	}
	boxBitIdentical(t, "all areas changed", want, got)
	if s := tr.Stats(); s.DiffFallbacks != 2 {
		t.Errorf("all-dirty survivor set should count a diff fallback: %+v", s)
	}

	// Duplicate names: the ordered matcher pairs them first-come — the
	// plan must stay bit-identical either way (a graft's correctness
	// rests on area/aspect equality, not the name).
	d := []Block{{Name: "d", AreaMM2: 90}, {Name: "d", AreaMM2: 45}}
	want, _ = sc.Plan(d, 0.5)
	if got, err = tr.PlanDims(d, 0.5); err != nil {
		t.Fatal(err)
	}
	boxBitIdentical(t, "duplicate names", want, got)
	e := []Block{{Name: "d", AreaMM2: 90}, {Name: "d", AreaMM2: 45}, {Name: "e", AreaMM2: 10}}
	want, _ = sc.Plan(e, 0.5)
	if got, err = tr.PlanDims(e, 0.5); err != nil {
		t.Fatal(err)
	}
	boxBitIdentical(t, "after duplicate names", want, got)

	// A clean survivor set after the adversarial run serves via the diff.
	f := []Block{{Name: "f", AreaMM2: 90}, {Name: "g", AreaMM2: 45}, {Name: "h", AreaMM2: 10}}
	if _, err = tr.PlanDims(f, 0.5); err != nil {
		t.Fatal(err)
	}
	before := tr.Stats().DiffFastPath
	g := append(f[:2:2], Block{Name: "i", AreaMM2: 25})
	want, _ = sc.Plan(g, 0.5)
	if got, err = tr.PlanDims(g, 0.5); err != nil {
		t.Fatal(err)
	}
	boxBitIdentical(t, "recovered diff", want, got)
	if s := tr.Stats(); s.DiffFastPath != before+1 {
		t.Errorf("clean survivors should serve through the diff: %+v", s)
	}
}
