package floorplan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randBlocks(rng *rand.Rand) []Block {
	n := 1 + rng.Intn(7)
	out := make([]Block, n)
	for i := range out {
		out[i] = Block{Name: fmt.Sprintf("b%d", i), AreaMM2: 1 + rng.Float64()*200}
		if rng.Intn(4) == 0 {
			out[i].AspectRatio = 0.5 + rng.Float64()
		}
	}
	// Duplicate areas exercise the stable-sort path.
	if n > 2 && rng.Intn(2) == 0 {
		out[n-1].AreaMM2 = out[0].AreaMM2
	}
	return out
}

func placementsEqual(a, b []Placement) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name ||
			math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) ||
			math.Float64bits(a[i].Width) != math.Float64bits(b[i].Width) ||
			math.Float64bits(a[i].Height) != math.Float64bits(b[i].Height) {
			return false
		}
	}
	return true
}

// One reused Scratch must keep producing results bit-identical to the
// allocate-fresh Plan across random block sets.
func TestScratchPlanMatchesPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sc Scratch
	for trial := 0; trial < 100; trial++ {
		blocks := randBlocks(rng)
		want, err := Plan(blocks, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.Plan(blocks, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(want.WidthMM) != math.Float64bits(got.WidthMM) ||
			math.Float64bits(want.HeightMM) != math.Float64bits(got.HeightMM) ||
			math.Float64bits(want.ChipletAreaMM2) != math.Float64bits(got.ChipletAreaMM2) {
			t.Fatalf("trial %d: bounding box differs: %+v vs %+v", trial, want, got)
		}
		if !placementsEqual(want.Placements, got.Placements) {
			t.Fatalf("trial %d: placements differ\nwant %+v\ngot  %+v", trial, want.Placements, got.Placements)
		}
		if len(want.Adjacencies) != len(got.Adjacencies) {
			t.Fatalf("trial %d: adjacency counts differ: %d vs %d", trial, len(want.Adjacencies), len(got.Adjacencies))
		}
		for i := range want.Adjacencies {
			if want.Adjacencies[i] != got.Adjacencies[i] {
				t.Fatalf("trial %d: adjacency %d differs: %+v vs %+v", trial, i, want.Adjacencies[i], got.Adjacencies[i])
			}
		}
	}
}

func TestScratchPlanValidates(t *testing.T) {
	var sc Scratch
	if _, err := sc.Plan(nil, 0.5); err == nil {
		t.Error("empty block list should fail")
	}
	if _, err := sc.Plan([]Block{{Name: "a", AreaMM2: 10}}, 5); err == nil {
		t.Error("out-of-range spacing should fail")
	}
	if _, err := sc.Plan([]Block{{Name: "a", AreaMM2: -1}}, 0.5); err == nil {
		t.Error("non-positive area should fail")
	}
}
