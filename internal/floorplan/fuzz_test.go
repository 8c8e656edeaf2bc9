package floorplan_test

import (
	"fmt"
	"math"
	"testing"

	"ecochip/internal/floorplan"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// Fuzz target for the floorplanner's structural invariants and the
// memoized Tree's parity, seeded with the chiplet areas of the
// EPYC and GA102 testcases (the external test package avoids the
// floorplan -> testcases import cycle).
//
// Invariants checked for every accepted input, on the from-scratch plan
// and again after a single-area perturbation:
//
//  1. no two placed rectangles overlap,
//  2. the bounding box contains every rectangle,
//  3. ChipletAreaMM2 is conserved (it carries the exact bits of the
//     in-order block-area sum),
//  4. the Tree's bounding box and total are bit-identical to the
//     from-scratch plan's, after the first plan and after a single-area
//     Update,
//  5. after a remove/insert delta (one block dropped, one fresh block
//     appended — the Disaggregate candidate shape), the tree's
//     block-set rebuild box is bit-identical to a from-scratch plan,
//     whose invariants still hold;
//  6. a tree driven through a sequence of single-block Updates (areas
//     drawn from the input's own areas, so identical blocks swap sort
//     positions and shapes recur in the shape memo) returns the
//     from-scratch bounding box after every step.

// chipletAreas extracts the per-chiplet die areas of a testcase system.
func chipletAreas(t interface{ Fatal(...any) }, ccds int) (epyc, ga102 []float64) {
	db := tech.Default()
	sys, err := testcases.EPYC(db, ccds)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sys.Chiplets {
		epyc = append(epyc, db.MustGet(c.NodeNm).Area(c.Type, c.Transistors))
	}
	ga := testcases.GA102(db, 7, 14, 10, false)
	for _, c := range ga.Chiplets {
		ga102 = append(ga102, db.MustGet(c.NodeNm).Area(c.Type, c.Transistors))
	}
	return epyc, ga102
}

func pad8(areas []float64) (out [8]float64) {
	for i := 0; i < len(areas) && i < 8; i++ {
		out[i] = areas[i]
	}
	return out
}

func FuzzFloorplanInvariants(f *testing.F) {
	epyc, ga102 := chipletAreas(f, 7)
	e := pad8(epyc)
	g := pad8(ga102)
	// The trailing (removeIdx, insertArea) pair seeds the remove/insert
	// delta: drop one block, append a fresh one — the merge shape of a
	// Disaggregate candidate.
	// The trailing uint64 packs the dims-only Update sequence, one step
	// per byte (see dimsSteps).
	f.Add(uint8(len(epyc)), 0.5, e[0], e[1], e[2], e[3], e[4], e[5], e[6], e[7], uint8(0), 2*e[0], uint8(3), e[0]+e[1], uint64(0x0a1b2c3d4e5f6071))
	f.Add(uint8(len(epyc)), 0.1, e[0], e[1], e[2], e[3], e[4], e[5], e[6], e[7], uint8(7), e[7]/3, uint8(0), e[6]+e[7], uint64(0x3f01873f01873f01))
	f.Add(uint8(len(ga102)), 0.5, g[0], g[1], g[2], 0.0, 0.0, 0.0, 0.0, 0.0, uint8(1), g[2], uint8(2), g[0]+g[1], uint64(0x8811228811228811))
	f.Add(uint8(len(ga102)), 1.0, g[0], g[1], g[2], 0.0, 0.0, 0.0, 0.0, 0.0, uint8(2), g[0], uint8(1), g[1]/2, uint64(0xffeeddccbbaa9988))
	f.Add(uint8(2), 0.5, 100.0, 100.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(0), 100.0, uint8(1), 100.0, uint64(0x0809080908090809))
	f.Add(uint8(1), 0.3, 42.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(0), 7.0, uint8(0), 13.0, uint64(0x8080808080808080))

	f.Fuzz(func(t *testing.T, n uint8, spacing float64,
		a0, a1, a2, a3, a4, a5, a6, a7 float64, idx uint8, newArea float64,
		removeIdx uint8, insertArea float64, steps uint64) {
		areas := [8]float64{a0, a1, a2, a3, a4, a5, a6, a7}
		if n < 1 || n > 8 {
			return
		}
		if spacing < 0.1 || spacing > 1 || math.IsNaN(spacing) {
			return
		}
		blocks := make([]floorplan.Block, n)
		for i := range blocks {
			a := areas[i]
			if !(a > 0) || a > 1e8 || math.IsInf(a, 0) {
				return
			}
			blocks[i] = floorplan.Block{Name: fmt.Sprintf("b%d", i), AreaMM2: a}
		}
		dimsSteps(t, blocks, spacing, steps)

		res, err := floorplan.Plan(blocks, spacing)
		if err != nil {
			t.Fatalf("valid input rejected: %v", err)
		}
		checkInvariants(t, "plan", blocks, res, spacing)

		var tr floorplan.Tree
		tres, err := tr.PlanDims(blocks, spacing)
		if err != nil {
			t.Fatalf("tree rejected input the planner accepted: %v", err)
		}
		compareBoxes(t, "tree build", res, tres)

		// Update step: perturb one block and require both the
		// invariants and bit-parity with a fresh plan.
		j := int(idx) % int(n)
		if !(newArea > 0) || newArea > 1e8 || math.IsInf(newArea, 0) {
			return
		}
		blocks[j].AreaMM2 = newArea
		want, err := floorplan.Plan(blocks, spacing)
		if err != nil {
			t.Fatalf("perturbed input rejected: %v", err)
		}
		got, err := tr.Update(j, newArea)
		if err != nil {
			t.Fatalf("tree update rejected a valid perturbation: %v", err)
		}
		checkInvariants(t, "update", blocks, want, spacing)
		compareBoxes(t, "tree update", want, got)

		// Remove/insert delta: drop one block and append a fresh one,
		// then require the tree's block-set rebuild to match from scratch.
		if !(insertArea > 0) || insertArea > 1e8 || math.IsInf(insertArea, 0) {
			return
		}
		r := int(removeIdx) % int(n)
		edited := append(append([]floorplan.Block{}, blocks[:r]...), blocks[r+1:]...)
		edited = append(edited, floorplan.Block{Name: "inserted", AreaMM2: insertArea})
		want, err = floorplan.Plan(edited, spacing)
		if err != nil {
			t.Fatalf("edited input rejected: %v", err)
		}
		got, err = tr.PlanDims(edited, spacing)
		if err != nil {
			t.Fatalf("tree rejected a valid remove/insert delta: %v", err)
		}
		checkInvariants(t, "remove/insert", edited, want, spacing)
		compareBoxes(t, "tree remove/insert", want, got)
	})
}

// dimsSteps drives a tree over blocks through the Update
// sequence packed in steps, twice over so that shapes recur: byte k
// moves block (b & 7) % n to the initial area of block (b>>3 & 7) % n,
// scaled by 1.5 when the top bit is set. Every step must return the
// from-scratch bounding box.
func dimsSteps(t *testing.T, blocks []floorplan.Block, spacing float64, steps uint64) {
	t.Helper()
	n := len(blocks)
	cur := append([]floorplan.Block(nil), blocks...)
	var tr floorplan.Tree
	if _, err := tr.PlanDims(cur, spacing); err != nil {
		t.Fatalf("tree rejected input the planner accepted: %v", err)
	}
	for k := 0; k < 16; k++ {
		b := steps >> (8 * (k % 8))
		j := int(b&7) % n
		a := blocks[int(b>>3&7)%n].AreaMM2
		if b&0x80 != 0 {
			a *= 1.5
		}
		cur[j].AreaMM2 = a
		got, err := tr.Update(j, a)
		if err != nil {
			t.Fatalf("update %d rejected a valid area: %v", k, err)
		}
		want, err := floorplan.Plan(cur, spacing)
		if err != nil {
			t.Fatal(err)
		}
		compareBoxes(t, fmt.Sprintf("update %d", k), want, got)
	}
}

func checkInvariants(t *testing.T, label string, blocks []floorplan.Block, res *floorplan.Result, spacing float64) {
	t.Helper()
	if len(res.Placements) != len(blocks) {
		t.Fatalf("%s: placed %d of %d blocks", label, len(res.Placements), len(blocks))
	}
	// ChipletAreaMM2 conserved: the exact in-order sum.
	sum := 0.0
	for _, b := range blocks {
		sum += b.AreaMM2
	}
	if math.Float64bits(sum) != math.Float64bits(res.ChipletAreaMM2) {
		t.Fatalf("%s: ChipletAreaMM2 = %g, want in-order sum %g", label, res.ChipletAreaMM2, sum)
	}
	// Bounding box contains all rectangles.
	for _, p := range res.Placements {
		if p.X < -1e-9 || p.Y < -1e-9 ||
			p.X+p.Width > res.WidthMM+1e-9 || p.Y+p.Height > res.HeightMM+1e-9 {
			t.Fatalf("%s: placement %s (%g,%g %gx%g) escapes package %gx%g",
				label, p.Name, p.X, p.Y, p.Width, p.Height, res.WidthMM, res.HeightMM)
		}
	}
	// No overlapping placements. The spacing constraint makes the
	// no-overlap tolerance scale-free: rectangles either touch across a
	// gap >= spacing or share a bounding-box edge.
	for i := 0; i < len(res.Placements); i++ {
		for j := i + 1; j < len(res.Placements); j++ {
			a, b := res.Placements[i], res.Placements[j]
			ox := math.Min(a.X+a.Width, b.X+b.Width) - math.Max(a.X, b.X)
			oy := math.Min(a.Y+a.Height, b.Y+b.Height) - math.Max(a.Y, b.Y)
			if ox > 1e-9 && oy > 1e-9 {
				t.Fatalf("%s: placements %s and %s overlap by %g x %g", label, a.Name, b.Name, ox, oy)
			}
		}
	}
}

// compareBoxes checks a tree result against a from-scratch plan: the
// bounding box and total carry the same bits, and the tree returns no
// placements or adjacencies.
func compareBoxes(t *testing.T, label string, want, got *floorplan.Result) {
	t.Helper()
	if math.Float64bits(want.WidthMM) != math.Float64bits(got.WidthMM) ||
		math.Float64bits(want.HeightMM) != math.Float64bits(got.HeightMM) ||
		math.Float64bits(want.ChipletAreaMM2) != math.Float64bits(got.ChipletAreaMM2) {
		t.Fatalf("%s: box %g x %g (total %g), want %g x %g (total %g)", label,
			got.WidthMM, got.HeightMM, got.ChipletAreaMM2, want.WidthMM, want.HeightMM, want.ChipletAreaMM2)
	}
	if got.Placements != nil || got.Adjacencies != nil {
		t.Fatalf("%s: tree result carries placements or adjacencies", label)
	}
}
