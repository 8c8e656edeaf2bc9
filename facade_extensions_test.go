package ecochip

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"ecochip/internal/explore"
)

func TestFacadeNodeSweepAndPareto(t *testing.T) {
	db := DefaultDB()
	points, err := NodeSweep(GA102(db, 7, 14, 10, false), db, []int{7, 14}, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("2^3 combinations expected, got %d", len(points))
	}
	front := ParetoFront(points, func(p DesignPoint) float64 { return p.EmbodiedKg },
		func(p DesignPoint) float64 { return p.CostUSD })
	if len(front) == 0 || len(front) > len(points) {
		t.Errorf("implausible front size %d", len(front))
	}
}

func TestFacadeTornado(t *testing.T) {
	db := DefaultDB()
	results, err := Tornado(A15(db, 7, 14, 10, false), db, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Error("tornado should produce factors")
	}
}

func TestFacadeEPYC(t *testing.T) {
	db := DefaultDB()
	hi, err := EPYC(db, 8)
	if err != nil {
		t.Fatal(err)
	}
	hiRep, err := hi.Evaluate(db)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := EPYCMonolith(db, 8)
	if err != nil {
		t.Fatal(err)
	}
	monoRep, err := mono.Evaluate(db)
	if err != nil {
		t.Fatal(err)
	}
	if hiRep.EmbodiedKg() >= monoRep.EmbodiedKg() {
		t.Error("EPYC chiplet design should beat its monolith")
	}
}

func TestFacadeRoadmap(t *testing.T) {
	db := DefaultDB()
	gen := func() *System { return A15(db, 7, 14, 10, false) }
	rep, err := EvaluateRoadmap(db, []Generation{
		{Name: "g1", System: gen()},
		{Name: "g2", System: gen()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Generations) != 2 {
		t.Fatalf("want 2 generations, got %d", len(rep.Generations))
	}
	// Identical systems: generation 2 reuses everything.
	if len(rep.Generations[1].CarriedOver) != 3 {
		t.Errorf("gen2 should carry all 3 chiplets over, got %v", rep.Generations[1].CarriedOver)
	}
}

func TestFacadeDisaggregate(t *testing.T) {
	db := DefaultDB()
	plan, err := Disaggregate(GA102(db, 7, 14, 10, false), db)
	if err != nil {
		t.Fatal(err)
	}
	if plan.EmbodiedKg > plan.InitialKg {
		t.Error("plan must never be worse than its input")
	}
}

// The compiled search, its cancellable variant and the evaluate-per-
// candidate reference must agree through the facade, and the compiled
// plan must surface its step-spanning statistics.
func TestFacadeDisaggregateCtxAndReference(t *testing.T) {
	db := DefaultDB()
	ref := db.MustGet(7)
	var chiplets []Chiplet
	for i := 0; i < 5; i++ {
		chiplets = append(chiplets, BlockFromArea(fmt.Sprintf("blk%d", i), Logic, 4, ref, 7))
	}
	base := &System{
		Name:      "facade-disagg",
		Chiplets:  chiplets,
		Packaging: DefaultPackaging(RDLFanout),
		Mfg:       DefaultMfgParams(),
		Design:    DefaultDesignParams(),
	}
	ctx := context.Background()
	plan, err := DisaggregateCtx(ctx, base, db, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := explore.DisaggregateReference(ctx, base, db)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(plan.EmbodiedKg) != math.Float64bits(want.EmbodiedKg) || plan.Steps != want.Steps {
		t.Fatalf("compiled plan diverges from the reference: %+v vs %+v", plan, want)
	}
	var s DisaggregationStats = plan.Stats
	if s.Candidates == 0 {
		t.Errorf("compiled plan reported no candidate evaluations: %+v", s)
	}
	if !strings.Contains(s.String(), "disaggregate plan:") {
		t.Errorf("stats summary missing its header: %q", s.String())
	}
}
