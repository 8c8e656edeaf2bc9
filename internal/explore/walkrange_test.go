package explore

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ecochip/internal/cost"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// WalkRange is the resumable unit of a sharded sweep: walking the
// sequence space as arbitrary contiguous segments — in any order, with
// overlaps re-walked — must reassemble to the bit-exact RunCtx result.
func TestWalkRangeSegmentsReassembleBitIdentical(t *testing.T) {
	db := tech.Default()
	cp := cost.DefaultParams()
	rng := rand.New(rand.NewSource(23))

	for trial := 0; trial < 5; trial++ {
		sys := testcases.Random(rng, db)
		nodes := testcases.RandomNodes(rng)
		plan, err := Compile(sys, db, nodes, cp)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plan.RunCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		got := make([]Point, plan.Combos())
		filled := make([]bool, plan.Combos())
		// Random segment boundaries, walked in shuffled order; one
		// segment re-walked to model a retried shard block.
		var cuts []int
		for k := 0; k < plan.Combos(); k += 1 + rng.Intn(5) {
			cuts = append(cuts, k)
		}
		cuts = append(cuts, plan.Combos())
		order := rng.Perm(len(cuts) - 1)
		if len(order) > 1 {
			order = append(order, order[0]) // duplicate walk of one segment
		}
		for _, s := range order {
			err := plan.WalkRange(context.Background(), cuts[s], cuts[s+1], func(idx int, pt *Point) error {
				cp := *pt
				cp.Nodes = append([]int(nil), pt.Nodes...)
				got[idx] = cp
				filled[idx] = true
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}

		for i := range want {
			if !filled[i] {
				t.Fatalf("trial %d: slot %d never visited", trial, i)
			}
			if !samePoint(want[i], got[i]) {
				t.Fatalf("trial %d: slot %d differs: %+v vs %+v", trial, i, want[i], got[i])
			}
		}
	}
}

func samePoint(a, b Point) bool {
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

// Out-of-range segments are authoring errors and must be rejected, and
// an empty segment is a no-op.
func TestWalkRangeBounds(t *testing.T) {
	db := tech.Default()
	sys := testcases.GA102(db, 7, 14, 10, false)
	plan, err := Compile(sys, db, []int{7, 14}, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	visit := func(int, *Point) error { return nil }
	if err := plan.WalkRange(context.Background(), 0, plan.Combos()+1, visit); err == nil {
		t.Error("hi beyond the plan accepted")
	}
	if err := plan.WalkRange(context.Background(), -1, 2, visit); err == nil {
		t.Error("negative lo accepted")
	}
	if err := plan.WalkRange(context.Background(), 3, 3, visit); err != nil {
		t.Errorf("empty segment errored: %v", err)
	}
}
