package ecochip

// Facade coverage of compiled sweep plans: CompileNodeSweep /
// SweepPlan.RunCtx must agree bit for bit with the uncompiled
// explore.NodeSweepReference, and
// NodeSweepCtx must route through the compiled path transparently.

import (
	"context"
	"errors"
	"math"
	"testing"

	"ecochip/internal/explore"
)

func TestFacadeCompiledSweepMatchesReference(t *testing.T) {
	db := DefaultDB()
	base := GA102(db, 7, 14, 10, false)
	nodes := []int{7, 10, 14}
	cp := DefaultCostParams()

	want, err := explore.NodeSweepReference(context.Background(), base, db, nodes, cp)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileNodeSweep(base, db, nodes, cp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.RunCtx(context.Background(), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Label() != want[i].Label() ||
			math.Float64bits(got[i].EmbodiedKg) != math.Float64bits(want[i].EmbodiedKg) ||
			math.Float64bits(got[i].TotalKg) != math.Float64bits(want[i].TotalKg) ||
			math.Float64bits(got[i].CostUSD) != math.Float64bits(want[i].CostUSD) ||
			math.Float64bits(got[i].PackageAreaMM2) != math.Float64bits(want[i].PackageAreaMM2) {
			t.Fatalf("point %d differs\nwant %+v\ngot  %+v", i, want[i], got[i])
		}
	}
	if s := plan.Stats(); s.Points != uint64(len(want)) {
		t.Errorf("plan stats report %d points, want %d", s.Points, len(want))
	}
}

func TestFacadeErrNoSweepFastPath(t *testing.T) {
	db := DefaultDB()
	mono := GA102(db, 7, 7, 7, true)
	_, err := CompileNodeSweep(mono, db, []int{7}, DefaultCostParams())
	if !errors.Is(err, ErrNoSweepFastPath) {
		t.Fatalf("CompileNodeSweep(monolith) = %v, want ErrNoSweepFastPath", err)
	}
	// The plain sweep entry point still works via the reference fallback.
	points, err := NodeSweep(mono, db, []int{7}, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("%d points, want 1", len(points))
	}
}

func TestFacadeSweepPlanParetoFront(t *testing.T) {
	db := DefaultDB()
	base := GA102(db, 7, 14, 10, false)
	nodes := []int{7, 10, 14}
	plan, err := CompileNodeSweep(base, db, nodes, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	front, total, err := plan.ParetoFrontCtx(context.Background(),
		[]SweepMetric{SweepByEmbodied, SweepByCost}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if total != 27 {
		t.Fatalf("total = %d, want 27", total)
	}
	points, err := NodeSweep(base, db, nodes, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	want := ParetoFront(points, SweepByEmbodied, SweepByCost)
	if len(front) != len(want) {
		t.Fatalf("front size %d, want %d", len(front), len(want))
	}
}
