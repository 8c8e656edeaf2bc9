package floorplan

import (
	"fmt"
	"math/rand"
	"testing"
)

// Tests of block-set changes: one Tree fed arbitrary
// remove/insert/rename edits rebuilds from scratch on each, and must stay
// bit-identical to the from-scratch planner and count each rebuild as
// one DiffFallbacks.

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
	// Occasionally resize a survivor or force an area tie (the
	// stable-sort tiebreak path).
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
	if s := tr.Stats(); s.DiffFallbacks == 0 {
		t.Errorf("randomized edit sequence never changed the block set: %+v", s)
	}
}

// The Disaggregate candidate shape: every greedy candidate removes two
// survivors and appends their merged die. Each candidate plan must be
// bit-identical to a from-scratch plan and count one block-set rebuild.
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
	if s := tr.Stats(); s.DiffFallbacks != uint64(plans) {
		t.Errorf("all %d candidate plans should count a block-set rebuild: %+v", plans, s)
	}
}

// Adversarial shape changes — a fully disjoint name set, survivors that
// all changed area, duplicate names, and a two-survivor edit — must
// each match the from-scratch plan and add exactly one DiffFallbacks,
// never moving any other counter.
func TestTreeDiffForcedFallbacks(t *testing.T) {
	var tr Tree
	var sc Scratch
	a := []Block{{Name: "a", AreaMM2: 100}, {Name: "b", AreaMM2: 60}, {Name: "c", AreaMM2: 30}}
	if _, err := tr.PlanDims(a, 0.5); err != nil {
		t.Fatal(err)
	}
	f := []Block{{Name: "f", AreaMM2: 90}, {Name: "g", AreaMM2: 45}, {Name: "h", AreaMM2: 10}}
	edits := []struct {
		why    string
		blocks []Block
	}{
		{"disjoint names", []Block{{Name: "x", AreaMM2: 80}, {Name: "y", AreaMM2: 40}}},
		{"all areas changed", []Block{{Name: "x", AreaMM2: 70}, {Name: "y", AreaMM2: 50}, {Name: "z", AreaMM2: 20}}},
		{"duplicate names", []Block{{Name: "d", AreaMM2: 90}, {Name: "d", AreaMM2: 45}}},
		{"after duplicate names", []Block{{Name: "d", AreaMM2: 90}, {Name: "d", AreaMM2: 45}, {Name: "e", AreaMM2: 10}}},
		{"fresh set", f},
		{"two survivors", append(f[:2:2], Block{Name: "i", AreaMM2: 25})},
	}
	for k, e := range edits {
		before := tr.Stats()
		want, err := sc.Plan(e.blocks, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.PlanDims(e.blocks, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		boxBitIdentical(t, e.why, want, got)
		d := tr.Stats().Delta(before)
		if d != (TreeStats{DiffFallbacks: 1}) {
			t.Errorf("edit %d (%s): want exactly one DiffFallbacks, got %+v", k, e.why, d)
		}
	}
}
