package kernel

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

func db() *tech.DB { return tech.Default() }

// A clean Eval (empty dirty set) must re-derive the base point from the
// tabulation with the exact float bits of a direct evaluation, across
// random systems covering monolith and every packaging archetype.
func TestParamPlanBaseEvalBitIdentical(t *testing.T) {
	d := db()
	rng := rand.New(rand.NewSource(7))
	evaluated := 0
	for trial := 0; trial < 25; trial++ {
		base := testcases.Random(rng, d)
		rep, refErr := base.Evaluate(d)
		plan, err := CompileParams(base, d)
		if refErr != nil {
			if err == nil {
				// Compile tabulates the base evaluation, so it must
				// surface the same failures.
				t.Fatalf("trial %d: Evaluate failed (%v) but CompileParams succeeded", trial, refErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: CompileParams: %v", trial, err)
		}
		sc, err := plan.NewScratch()
		if err != nil {
			t.Fatal(err)
		}
		tot, err := plan.Eval(sc, base, d, 0)
		if err != nil {
			t.Fatalf("trial %d: Eval: %v", trial, err)
		}
		if math.Float64bits(tot.EmbodiedKg()) != math.Float64bits(rep.EmbodiedKg()) ||
			math.Float64bits(tot.TotalKg()) != math.Float64bits(rep.TotalKg()) ||
			math.Float64bits(tot.MfgKg) != math.Float64bits(rep.MfgKg) ||
			math.Float64bits(tot.DesignKg) != math.Float64bits(rep.DesignKg) ||
			math.Float64bits(tot.HIKg) != math.Float64bits(rep.HIKg) ||
			math.Float64bits(tot.NREKg) != math.Float64bits(rep.NREKg) ||
			math.Float64bits(tot.OperationalKg) != math.Float64bits(rep.OperationalKg) {
			t.Fatalf("trial %d (%d chiplets, arch %v): base totals differ\nreport %+v\ntotals %+v",
				trial, len(base.Chiplets), base.Packaging.Arch, rep, tot)
		}
		evaluated++
	}
	if evaluated < 15 {
		t.Fatalf("only %d of 25 random trials evaluated cleanly", evaluated)
	}
}

// The dirty set controls exactly which sub-models recompute: a clean
// eval serves everything from the table, a node-dirty eval re-runs die
// manufacturing and refreshes routing but never re-floorplans, and a
// packaging-dirty eval runs the full package model. Stats reads the
// counters after each Fold releases the scratch's.
func TestParamPlanStatsTrackDirtySets(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false)
	plan, err := CompileParams(base, d)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := plan.NewScratch()
	if err != nil {
		t.Fatal(err)
	}
	nc := uint64(len(base.Chiplets))
	// The counters live in the scratch until it is released.
	stats := func() ParamStats {
		plan.Fold(sc)
		return plan.Stats()
	}

	if _, err := plan.Eval(sc, base, d, 0); err != nil {
		t.Fatal(err)
	}
	s := stats()
	if s.Evals != 1 || s.DieRecomputes != 0 || s.DesignRecomputes != 0 || s.PackageEstimates != 0 || s.RoutingRefreshes != 0 {
		t.Fatalf("clean eval should be all table hits: %+v", s)
	}
	if s.DieTableHits != nc {
		t.Fatalf("clean eval made %d die table hits, want %d", s.DieTableHits, nc)
	}

	dirtyDB, err := d.Clone(func(n *tech.Node) { n.DefectDensity = tech.Clamp(n.DefectDensity*1.1, 0.07, 0.3) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Eval(sc, base, dirtyDB, DirtyNodes); err != nil {
		t.Fatal(err)
	}
	s = stats()
	if s.DieRecomputes != nc || s.RoutingRefreshes != 1 || s.PackageEstimates != 0 {
		t.Fatalf("node-dirty eval should recompute %d dies and refresh routing without a package estimate: %+v", nc, s)
	}
	if s.DesignRecomputes != 0 {
		t.Fatalf("node-dirty eval must not recompute design carbon: %+v", s)
	}

	pkgSys := *base
	pkgSys.Packaging.CarbonIntensity = 0.5
	if _, err := plan.Eval(sc, &pkgSys, d, DirtyPackaging); err != nil {
		t.Fatal(err)
	}
	if s = stats(); s.FloorplanReuses != 1 || s.PackageEstimates != 0 {
		t.Fatalf("packaging-dirty eval with untouched geometry should reuse the base floorplan: %+v", s)
	}

	// A packaging perturbation that moves a floorplan-shaping input
	// cannot reuse the base geometry: it must re-floorplan fully.
	spacingSys := *base
	spacingSys.Packaging.SpacingMM = 0.8
	if _, err := plan.Eval(sc, &spacingSys, d, DirtyPackaging); err != nil {
		t.Fatal(err)
	}
	if s = stats(); s.PackageEstimates != 1 || s.FloorplanReuses != 1 {
		t.Fatalf("geometry-dirty eval should run one full package estimate: %+v", s)
	}

	// An area-dirty eval recomputes every per-chiplet sub-model and the
	// whole package estimate.
	areaSys := *base
	chiplets := make([]core.Chiplet, len(base.Chiplets))
	copy(chiplets, base.Chiplets)
	chiplets[0].Transistors *= 1.25
	areaSys.Chiplets = chiplets
	before := stats()
	if _, err := plan.Eval(sc, &areaSys, d, DirtyAreas); err != nil {
		t.Fatal(err)
	}
	s = stats()
	if s.PackageEstimates != before.PackageEstimates+1 {
		t.Fatalf("area-dirty eval should run a full package estimate: %+v", s)
	}
	if s.DieRecomputes != before.DieRecomputes+nc || s.DesignRecomputes <= before.DesignRecomputes {
		t.Fatalf("area-dirty eval should recompute per-chiplet sub-models: %+v", s)
	}
}

// A DirtyAreas evaluation must carry the exact float bits of the direct
// evaluation of the perturbed system — areas move the floorplan, the
// package carbon, die manufacturing and design carbon all at once.
func TestParamPlanDirtyAreasParity(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false)
	plan, err := CompileParams(base, d)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := plan.NewScratch()
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{0.5, 0.9, 1.1, 2.0, 10.0} {
		s := *base
		chiplets := make([]core.Chiplet, len(base.Chiplets))
		copy(chiplets, base.Chiplets)
		for i := range chiplets {
			chiplets[i].Transistors *= scale
		}
		s.Chiplets = chiplets
		rep, err := s.Evaluate(d)
		if err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		tot, err := plan.Eval(sc, &s, d, DirtyAreas)
		if err != nil {
			t.Fatalf("scale %g: Eval: %v", scale, err)
		}
		if math.Float64bits(tot.EmbodiedKg()) != math.Float64bits(rep.EmbodiedKg()) ||
			math.Float64bits(tot.TotalKg()) != math.Float64bits(rep.TotalKg()) {
			t.Fatalf("scale %g: area-dirty eval diverges from direct evaluation:\nreport %+v\ntotals %+v", scale, rep, tot)
		}
	}
}

// A geometry-moving packaging perturbation (spacing) must also match the
// direct evaluation bit for bit through the re-floorplan path.
func TestParamPlanGeometryDirtyParity(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false)
	plan, err := CompileParams(base, d)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := plan.NewScratch()
	if err != nil {
		t.Fatal(err)
	}
	for _, spacing := range []float64{0.1, 0.3, 0.8, 1.0} {
		s := *base
		s.Packaging.SpacingMM = spacing
		rep, err := s.Evaluate(d)
		if err != nil {
			t.Fatalf("spacing %g: %v", spacing, err)
		}
		tot, err := plan.Eval(sc, &s, d, DirtyPackaging)
		if err != nil {
			t.Fatalf("spacing %g: Eval: %v", spacing, err)
		}
		if math.Float64bits(tot.EmbodiedKg()) != math.Float64bits(rep.EmbodiedKg()) ||
			math.Float64bits(tot.TotalKg()) != math.Float64bits(rep.TotalKg()) {
			t.Fatalf("spacing %g: geometry-dirty eval diverges:\nreport %+v\ntotals %+v", spacing, rep, tot)
		}
	}
}

// PerturbNodes must hand back base-valued nodes on every call, so a
// sample's perturbation can never leak into the next sample's draw.
func TestScratchPerturbNodesResets(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false)
	plan, err := CompileParams(base, d)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := plan.NewScratch()
	if err != nil {
		t.Fatal(err)
	}
	want := d.MustGet(7).DefectDensity
	first := sc.PerturbNodes(func(n *tech.Node) { n.DefectDensity = 0.3 })
	if got := first.MustGet(7).DefectDensity; got != 0.3 {
		t.Fatalf("mutation not applied: %g", got)
	}
	second := sc.PerturbNodes(func(n *tech.Node) { n.DefectDensity = n.DefectDensity * 1.0 })
	if got := second.MustGet(7).DefectDensity; got != want {
		t.Fatalf("sandbox did not reset: %g, want %g", got, want)
	}
	if d.MustGet(7).DefectDensity != want {
		t.Fatal("sandbox perturbation leaked into the source database")
	}
}

// Walk must hand every point the exact Totals a direct Eval on the same
// perturbation produces, in point order, and surface apply errors.
func TestParamPlanWalkMatchesEval(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false)
	plan, err := CompileParams(base, d)
	if err != nil {
		t.Fatal(err)
	}
	scales := []float64{0.5, 0.8, 1.0, 1.25, 2.0}
	perturb := func(scale float64) *core.System {
		s := *base
		s.Mfg.CarbonIntensity = tech.Clamp(base.Mfg.CarbonIntensity*scale, 0.030, 0.700)
		return &s
	}
	got, err := plan.Walk(context.Background(), len(scales),
		func(k int, _ *Scratch) (*core.System, *tech.DB, Dirty, error) {
			return perturb(scales[k]), d, DirtyMfg, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := plan.NewScratch()
	if err != nil {
		t.Fatal(err)
	}
	for k, scale := range scales {
		want, err := plan.Eval(sc, perturb(scale), d, DirtyMfg)
		if err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		if math.Float64bits(got[k].TotalKg()) != math.Float64bits(want.TotalKg()) ||
			math.Float64bits(got[k].EmbodiedKg()) != math.Float64bits(want.EmbodiedKg()) {
			t.Fatalf("scale %g: Walk totals diverge from Eval:\nwalk %+v\neval %+v", scale, got[k], want)
		}
	}

	wantErr := errors.New("bad point")
	if _, err := plan.Walk(context.Background(), 3,
		func(k int, _ *Scratch) (*core.System, *tech.DB, Dirty, error) {
			if k == 1 {
				return nil, nil, 0, wantErr
			}
			return base, d, 0, nil
		}); !errors.Is(err, wantErr) {
		t.Fatalf("Walk swallowed the apply error: %v", err)
	}
}

// DirtyOperation must invalidate the operational-term memo: a caller
// that mutates one Spec in place between evaluations (pointer identity
// unchanged) must not be served the previous spec's result.
func TestDirtyOperationDropsInPlaceSpecMemo(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false)
	if base.Operation == nil {
		t.Fatal("testcase lost its operating spec")
	}
	plan, err := CompileParams(base, d)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := plan.NewScratch()
	if err != nil {
		t.Fatal(err)
	}
	first, err := plan.Eval(sc, base, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	base.Operation.LifetimeYears *= 2
	defer func() { base.Operation.LifetimeYears /= 2 }()
	second, err := plan.Eval(sc, base, d, DirtyOperation)
	if err != nil {
		t.Fatal(err)
	}
	if second.OperationalKg == first.OperationalKg {
		t.Fatalf("in-place spec mutation served from the memo: %g both times", first.OperationalKg)
	}
	if want := 2 * first.OperationalKg; second.OperationalKg != want {
		t.Fatalf("doubled lifetime: OperationalKg = %g, want %g", second.OperationalKg, want)
	}
}
