package kernel

import (
	"math"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/mfg"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
	"ecochip/internal/wafer"
)

// withoutNode returns a copy of d lacking node nm.
func withoutNode(t *testing.T, d *tech.DB, nm int) *tech.DB {
	t.Helper()
	var nodes []tech.Node
	for _, size := range d.Sizes() {
		if size != nm {
			nodes = append(nodes, *d.MustGet(size))
		}
	}
	out, err := tech.NewDB(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Eval validates only the groups its dirty set names, in
// System.Validate's order; every other group equals the base. So for an
// invalid perturbation of each group, and of two groups at once, Eval
// must return exactly the error s.Validate(db) returns.
func TestParamPlanEvalValidationParity(t *testing.T) {
	d := db()
	hi := testcases.GA102(d, 7, 14, 10, false)
	if hi.Operation == nil {
		t.Fatal("testcase lost its operating spec")
	}
	mono := testcases.GA102(d, 7, 7, 7, true)
	noNode14 := withoutNode(t, d, 14)

	edit := func(base *core.System, f func(s *core.System)) *core.System {
		s := *base
		s.Chiplets = append([]core.Chiplet(nil), base.Chiplets...)
		f(&s)
		return &s
	}
	badOp := func(s *core.System) {
		op := *s.Operation
		op.LifetimeYears = -1
		s.Operation = &op
	}
	cases := []struct {
		name  string
		base  *core.System
		s     *core.System
		db    *tech.DB
		dirty Dirty
	}{
		{"areas", hi, edit(hi, func(s *core.System) { s.Chiplets[1].Transistors = -1 }), d, DirtyAreas},
		{"volume-system", hi, edit(hi, func(s *core.System) { s.SystemVolume = -5 }), d, DirtyVolume},
		{"volume-chiplet", hi, edit(hi, func(s *core.System) { s.Chiplets[2].ManufacturedParts = -1 }), d, DirtyVolume},
		{"nodes", hi, hi, noNode14, DirtyNodes},
		{"mfg", hi, edit(hi, func(s *core.System) { s.Mfg.CarbonIntensity = 5 }), d, DirtyMfg},
		{"design", hi, edit(hi, func(s *core.System) { s.Design.Iterations = 0 }), d, DirtyDesign},
		{"packaging", hi, edit(hi, func(s *core.System) { s.Packaging.RDLLayers = 99 }), d, DirtyPackaging},
		{"operation", hi, edit(hi, badOp), d, DirtyOperation},
		// Two invalid groups: Validate's order picks the first.
		{"mfg+design", hi, edit(hi, func(s *core.System) {
			s.Mfg.CarbonIntensity = 5
			s.Design.Iterations = 0
		}), d, DirtyMfg | DirtyDesign},
		{"design+packaging", hi, edit(hi, func(s *core.System) {
			s.Design.Iterations = 0
			s.Packaging.RDLLayers = 99
		}), d, DirtyDesign | DirtyPackaging},
		{"packaging+operation", hi, edit(hi, func(s *core.System) {
			s.Packaging.RDLLayers = 99
			badOp(s)
		}), d, DirtyPackaging | DirtyOperation},
		{"nodes+mfg", hi, edit(hi, func(s *core.System) { s.Mfg.CarbonIntensity = 5 }), noNode14, DirtyNodes | DirtyMfg},
		// Chiplet checks interleave per chiplet: chiplet 0's volume
		// error precedes chiplet 1's transistor error.
		{"volume+areas", hi, edit(hi, func(s *core.System) {
			s.Chiplets[0].ManufacturedParts = -1
			s.Chiplets[1].Transistors = -1
		}), d, DirtyVolume | DirtyAreas},
		{"areas+mfg", hi, edit(hi, func(s *core.System) {
			s.Chiplets[2].Transistors = 0
			s.Mfg.CarbonIntensity = 5
		}), d, DirtyAreas | DirtyMfg},
		{"mono-mfg", mono, edit(mono, func(s *core.System) { s.Mfg.Alpha = -1 }), d, DirtyMfg},
		{"mono-nodes", mono, mono, withoutNode(t, d, 7), DirtyNodes},
		// A monolith never reads Packaging: Validate accepts it, and so
		// must Eval.
		{"mono-packaging", mono, edit(mono, func(s *core.System) { s.Packaging.RDLLayers = 99 }), d, DirtyPackaging},
	}
	plans := map[*core.System]*ParamPlan{}
	for _, c := range cases {
		plan := plans[c.base]
		if plan == nil {
			var err error
			if plan, err = CompileParams(c.base, d); err != nil {
				t.Fatal(err)
			}
			plans[c.base] = plan
		}
		sc, err := plan.NewScratch()
		if err != nil {
			t.Fatal(err)
		}
		want := c.s.Validate(c.db)
		if want == nil && c.name != "mono-packaging" {
			t.Fatalf("%s: the perturbation is valid; the case checks nothing", c.name)
		}
		_, got := plan.Eval(sc, c.s, c.db, c.dirty)
		switch {
		case want == nil && got != nil:
			t.Errorf("%s: Eval error %q, Validate accepts", c.name, got)
		case want != nil && (got == nil || got.Error() != want.Error()):
			t.Errorf("%s: Eval error %v, want Validate's %q", c.name, got, want)
		}
	}
}

// A die- or design-dirty evaluation serves the tabulated wafer geometry
// and design hours while their inputs match the base and recomputes them
// when they move. Either way the run walk's totals carry the direct
// evaluation's bits: perturbations that keep the geometry and hours
// (fab intensity, design power, node fab parameters), ones that move
// them (wafer, wastage, iterations, verification share, analysis
// factor, EDA productivity, areas), and area or volume changes to one
// die, which split a run of identical dies. The bases cover distinct
// dies (GA102, A15), monoliths (GA102, EMR) and runs of identical dies
// (EPYC-8 with reused CCDs, and with the NRE extension, its CCDs
// designed or split between reused and designed).
func TestParamPlanTabulatedStepsParity(t *testing.T) {
	d := db()
	edaDB, err := d.Clone(func(n *tech.Node) { n.EDAProductivity = tech.Clamp(n.EDAProductivity*0.9, 0.05, 1) })
	if err != nil {
		t.Fatal(err)
	}
	nodeDB, err := d.Clone(func(n *tech.Node) {
		n.DefectDensity = tech.Clamp(n.DefectDensity*1.2, 0.07, 0.3)
		n.EquipEfficiency *= 0.9
	})
	if err != nil {
		t.Fatal(err)
	}
	bases := map[string]*core.System{
		"ga102":           testcases.GA102(d, 7, 14, 10, false),
		"a15":             testcases.A15(d, 7, 14, 10, false),
		"monolith":        testcases.GA102(d, 10, 10, 10, true),
		"emr-monolith":    testcases.EMR(d, 10, true),
		"epyc8":           epyc8(t, d),
		"epyc8-nre":       epyc8NRE(t, d, 0),
		"epyc8-nre-split": epyc8NRE(t, d, 3),
	}
	for name, base := range bases {
		plan, err := CompileParams(base, d)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := plan.NewScratch()
		if err != nil {
			t.Fatal(err)
		}
		edit := func(f func(s *core.System)) *core.System {
			s := *base
			s.Chiplets = append([]core.Chiplet(nil), base.Chiplets...)
			f(&s)
			return &s
		}
		cases := []struct {
			name  string
			s     *core.System
			db    *tech.DB
			dirty Dirty
		}{
			{"fab-intensity", edit(func(s *core.System) { s.Mfg.CarbonIntensity *= 0.7 }), d, DirtyMfg},
			{"wafer-300", edit(func(s *core.System) { s.Mfg.Wafer = wafer.Wafer{DiameterMM: 300} }), d, DirtyMfg},
			{"no-wastage", edit(func(s *core.System) { s.Mfg.IncludeWastage = false }), d, DirtyMfg},
			{"d0-override", edit(func(s *core.System) { s.Mfg.DefectDensityOverride = 0.2 }), d, DirtyMfg},
			{"design-power", edit(func(s *core.System) { s.Design.PowerW *= 1.3 }), d, DirtyDesign},
			{"design-intensity", edit(func(s *core.System) { s.Design.CarbonIntensity = 0.3 }), d, DirtyDesign},
			{"iterations", edit(func(s *core.System) { s.Design.Iterations = 130 }), d, DirtyDesign},
			{"verif-share", edit(func(s *core.System) { s.Design.VerifShare = 0.7 }), d, DirtyDesign},
			{"analyze", edit(func(s *core.System) { s.Design.AnalyzeFactor = 0.4 }), d, DirtyDesign},
			{"eda", base, edaDB, DirtyNodes | DirtyDesign},
			{"nodes", base, nodeDB, DirtyNodes},
			{"sample", edit(func(s *core.System) {
				s.Mfg.CarbonIntensity *= 0.9
				s.Design.PowerW *= 0.8
			}), nodeDB, DirtyNodes | DirtyMfg | DirtyDesign},
			{"one-area", edit(func(s *core.System) { s.Chiplets[len(s.Chiplets)/2].Transistors *= 1.15 }), d, DirtyAreas},
			{"one-area-wafer", edit(func(s *core.System) {
				s.Chiplets[len(s.Chiplets)/2].Transistors *= 0.85
				s.Mfg.Wafer = wafer.Wafer{DiameterMM: 300}
			}), d, DirtyAreas | DirtyMfg},
			{"one-volume", edit(func(s *core.System) { s.Chiplets[len(s.Chiplets)/2].ManufacturedParts = 30_000 }), d, DirtyVolume},
			{"system-volume", edit(func(s *core.System) { s.SystemVolume = 250_000 }), d, DirtyVolume},
			{"areas", edit(func(s *core.System) {
				for i := range s.Chiplets {
					s.Chiplets[i].Transistors *= 1.2
				}
			}), d, DirtyAreas},
			{"everything", edit(func(s *core.System) {
				s.Mfg = mfg.DefaultParams()
				s.Mfg.Wafer = wafer.Wafer{DiameterMM: 200}
				s.Mfg.CarbonIntensity = 0.1
				s.Design.Iterations = 40
				s.Chiplets[0].Transistors *= 0.8
			}), edaDB, DirtyNodes | DirtyMfg | DirtyDesign | DirtyAreas},
		}
		for _, c := range cases {
			rep, err := c.s.Evaluate(c.db)
			if err != nil {
				t.Fatalf("%s %s: %v", name, c.name, err)
			}
			tot, err := plan.Eval(sc, c.s, c.db, c.dirty)
			if err != nil {
				t.Fatalf("%s %s: Eval: %v", name, c.name, err)
			}
			assertTotalsMatchReport(t, name+" "+c.name, tot, rep)
			if math.Float64bits(tot.PackageAreaMM2) != math.Float64bits(totalsArea(rep)) {
				t.Errorf("%s %s: package area %v, direct %v", name, c.name, tot.PackageAreaMM2, totalsArea(rep))
			}
		}
	}
}

// totalsArea is the PackageAreaMM2 a Totals carries for the report: the
// package's for a multi-chiplet system, the merged die's for a monolith.
func totalsArea(rep *core.Report) float64 {
	if rep.Packaging != nil {
		return rep.Packaging.PackageAreaMM2
	}
	return rep.Chiplets[0].AreaMM2
}

// A plan's scratch resets only the plan's nodes; a Monte Carlo sample
// through PerturbNodes must still match the direct evaluation on a full
// clone under the same mutation, sample after sample.
func TestScratchPerturbNodesPlanNodesParity(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false) // chiplets on 7, 14 and 10 nm
	plan, err := CompileParams(base, d)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := plan.NewScratch()
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{0.8, 1.25, 0.9, 1.1} {
		mutate := func(n *tech.Node) {
			n.DefectDensity = tech.Clamp(n.DefectDensity*scale, 0.07, 0.3)
			n.EPA = tech.Clamp(n.EPA*scale, 0.8, 3.5)
		}
		cloned, err := d.Clone(mutate)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := base.Evaluate(cloned)
		if err != nil {
			t.Fatal(err)
		}
		tot, err := plan.Eval(sc, base, sc.PerturbNodes(mutate), DirtyNodes)
		if err != nil {
			t.Fatal(err)
		}
		assertTotalsMatchReport(t, "perturbed nodes", tot, rep)
	}
	// Nodes no chiplet sits on are never reset nor mutated.
	sandbox := sc.PerturbNodes(func(n *tech.Node) { n.EPA = 3.4 })
	for _, nm := range d.Sizes() {
		got, want := sandbox.MustGet(nm).EPA, d.MustGet(nm).EPA
		if nm == 7 || nm == 10 || nm == 14 {
			want = 3.4
		}
		if got != want {
			t.Errorf("node %dnm: EPA %g, want %g", nm, got, want)
		}
	}
}
