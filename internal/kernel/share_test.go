package kernel

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/engine"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// sameDie must compare every Chiplet field but Name: a field CellFor
// reads that sameDie ignores would let two different dies share one
// cell. Reflection walks the struct, so a new field fails this test
// until sameDie (and this test's perturbation table) learn about it.
func TestSameDieComparesEveryCellInput(t *testing.T) {
	base := core.Chiplet{Name: "a", Type: tech.Memory, Transistors: 1e9, NodeNm: 7, ManufacturedParts: 10}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		c := base
		v := reflect.ValueOf(&c).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() * 2)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("core.Chiplet.%s has kind %s, which this test cannot perturb", f.Name, v.Kind())
		}
		if got, want := sameDie(&base, &c), f.Name == "Name"; got != want {
			t.Errorf("changing core.Chiplet.%s: sameDie = %v, want %v", f.Name, got, want)
		}
	}
}

// epyc8 is the EPYC testcase with eight identical CCDs followed by the
// IO die: one run of eight shared cells plus one more.
func epyc8(t *testing.T, d *tech.DB) *core.System {
	t.Helper()
	s, err := testcases.EPYC(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// epyc8NRE is EPYC-8 with the NRE extension and the given number of
// reused CCDs, the first ones: 0 or 8 keep one run of eight CCDs,
// anything between splits it into a reused and a designed run.
func epyc8NRE(t *testing.T, d *tech.DB, reused int) *core.System {
	t.Helper()
	s := epyc8(t, d)
	s.IncludeNRE = true
	for i := range s.Chiplets[:8] {
		s.Chiplets[i].Reused = i < reused
	}
	return s
}

// assertTotalsMatchReport compares every Totals term with the report of
// the direct evaluation, bit for bit.
func assertTotalsMatchReport(t *testing.T, label string, tot Totals, rep *core.Report) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"MfgKg", tot.MfgKg, rep.MfgKg},
		{"DesignKg", tot.DesignKg, rep.DesignKg},
		{"HIKg", tot.HIKg, rep.HIKg},
		{"NREKg", tot.NREKg, rep.NREKg},
		{"OperationalKg", tot.OperationalKg, rep.OperationalKg},
		{"EmbodiedKg", tot.EmbodiedKg(), rep.EmbodiedKg()},
		{"TotalKg", tot.TotalKg(), rep.TotalKg()},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("%s: %s = %v (%#x), direct evaluation %v (%#x)", label, f.name,
				f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
		}
	}
}

// Every perturbation kind, on a system whose chiplets share cells, must
// match the direct evaluation bit for bit: runs that stay identical
// share one cell, and a perturbation that breaks a run (one scaled CCD)
// recomputes the diverging member.
func TestParamPlanSharedCellsParity(t *testing.T) {
	d := db()
	for _, reused := range []bool{true, false} {
		base := epyc8(t, d)
		base.IncludeNRE = true
		for i := range base.Chiplets[:8] {
			base.Chiplets[i].Reused = reused
		}
		checkSharedCellsParity(t, fmt.Sprintf("reused=%v", reused), base, d)
	}
}

func checkSharedCellsParity(t *testing.T, label string, base *core.System, d *tech.DB) {
	t.Helper()
	plan, err := CompileParams(base, d)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := plan.NewScratch()
	if err != nil {
		t.Fatal(err)
	}
	nodeDB, err := d.Clone(func(n *tech.Node) { n.DefectDensity = tech.Clamp(n.DefectDensity*1.15, 0.07, 0.3) })
	if err != nil {
		t.Fatal(err)
	}
	withChiplets := func(edit func(cs []core.Chiplet)) *core.System {
		s := *base
		s.Chiplets = append([]core.Chiplet(nil), base.Chiplets...)
		edit(s.Chiplets)
		return &s
	}
	mfgSys := *base
	mfgSys.Mfg.CarbonIntensity *= 0.8
	desSys := *base
	desSys.Design.PowerW *= 0.8
	cases := []struct {
		name  string
		s     *core.System
		db    *tech.DB
		dirty Dirty
	}{
		{"clean", base, d, 0},
		{"nodes", base, nodeDB, DirtyNodes},
		{"mfg", &mfgSys, d, DirtyMfg},
		{"design", &desSys, d, DirtyDesign},
		{"all-areas", withChiplets(func(cs []core.Chiplet) {
			for i := range cs {
				cs[i].Transistors *= 1.1
			}
		}), d, DirtyAreas},
		{"one-ccd", withChiplets(func(cs []core.Chiplet) { cs[3].Transistors *= 1.1 }), d, DirtyAreas},
		{"one-ccd-volume", withChiplets(func(cs []core.Chiplet) { cs[5].ManufacturedParts /= 2 }), d, DirtyVolume},
	}
	for _, c := range cases {
		rep, err := c.s.Evaluate(c.db)
		if err != nil {
			t.Fatalf("%s %s: %v", label, c.name, err)
		}
		tot, err := plan.Eval(sc, c.s, c.db, c.dirty)
		if err != nil {
			t.Fatalf("%s %s: Eval: %v", label, c.name, err)
		}
		assertTotalsMatchReport(t, label+" "+c.name, tot, rep)
	}
}

// A run's shared cell counts once, as a recompute or a table hit; a
// clean walk of the tabulated cells counts exactly the table hits a
// table-served walk that re-derives the runs does.
func TestParamPlanSharedCellsCounting(t *testing.T) {
	d := db()
	base := epyc8(t, d)
	plan, err := CompileParams(base, d)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := plan.NewScratch()
	if err != nil {
		t.Fatal(err)
	}
	eval := func(s *core.System, db *tech.DB, dirty Dirty) ParamStats {
		t.Helper()
		if _, err := plan.Eval(sc, s, db, dirty); err != nil {
			t.Fatal(err)
		}
		st := sc.stats
		plan.Fold(sc)
		return st
	}
	// CCDs are reused (no design step): the walk serves a die cell for
	// the CCD run and the IOD, and design carbon for the IOD and the
	// fabric.
	clean := eval(base, d, 0)
	walked := eval(base, d, DirtyVolume) // re-derived runs, served steps
	want := ParamStats{Evals: 1, DieTableHits: 2, DesignTableHits: 2}
	if clean != want || walked != want {
		t.Fatalf("clean fold counts %+v, table-served walk %+v, want %+v", clean, walked, want)
	}
	nodeDB, err := d.Clone(func(n *tech.Node) { n.EPA = tech.Clamp(n.EPA*1.1, 0.8, 3.5) })
	if err != nil {
		t.Fatal(err)
	}
	if st := eval(base, nodeDB, DirtyNodes); st.DieRecomputes != 2 || st.DieTableHits != 0 || st.RoutingRefreshes != 1 {
		t.Fatalf("node-dirty EPYC-8 eval: %+v, want 2 die recomputes", st)
	}
	if got := plan.Stats().Evals; got != 3 {
		t.Fatalf("folded Evals = %d, want 3", got)
	}
}

// An area- or volume-dirty evaluation re-derives the runs from the
// perturbed chiplets: perturbing one CCD of EPYC-8 splits its run of
// eight into three (CCDs 0-3, 4, 5-7), so the walk counts four die cells
// with the IO die, where the base walk counts two. The CCDs are reused,
// so the design steps are the IO die's and the fabric's either way.
func TestParamPlanRunWalkSplitsRuns(t *testing.T) {
	d := db()
	base := epyc8(t, d)
	plan, err := CompileParams(base, d)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := plan.NewScratch()
	if err != nil {
		t.Fatal(err)
	}
	mfgSys := *base
	mfgSys.Mfg.CarbonIntensity *= 0.5
	oneCCD := func(f func(c *core.Chiplet)) *core.System {
		s := *base
		s.Chiplets = append([]core.Chiplet(nil), base.Chiplets...)
		f(&s.Chiplets[4])
		return &s
	}
	for _, c := range []struct {
		name  string
		s     *core.System
		dirty Dirty
		want  ParamStats
	}{
		{"base", &mfgSys, DirtyMfg, ParamStats{Evals: 1, DieRecomputes: 2, DesignTableHits: 2}},
		{"area", oneCCD(func(c *core.Chiplet) { c.Transistors *= 1.1 }), DirtyAreas,
			ParamStats{Evals: 1, DieRecomputes: 4, DesignRecomputes: 2, PackageEstimates: 1}},
		{"volume", oneCCD(func(c *core.Chiplet) { c.ManufacturedParts = 40_000 }), DirtyVolume,
			ParamStats{Evals: 1, DieTableHits: 4, DesignTableHits: 2}},
	} {
		tot, err := plan.Eval(sc, c.s, d, c.dirty)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rep, err := c.s.Evaluate(d)
		if err != nil {
			t.Fatal(err)
		}
		assertTotalsMatchReport(t, c.name, tot, rep)
		if got := sc.stats; got != c.want {
			t.Errorf("%s: stats %+v, want %+v", c.name, got, c.want)
		}
		plan.Fold(sc)
	}
}

// The counters a Walk folds into Stats must not depend on how many
// workers split the points, and Evals must equal the point count.
func TestParamPlanWalkStatsWorkerInvariant(t *testing.T) {
	d := db()
	base := epyc8(t, d)
	const n = 40
	apply := func(k int, sc *Scratch) (*core.System, *tech.DB, Dirty, error) {
		s := *base
		scale := 0.8 + 0.01*float64(k)
		switch k % 4 {
		case 0:
			return base, d, 0, nil
		case 1:
			s.Mfg.CarbonIntensity = tech.Clamp(s.Mfg.CarbonIntensity*scale, 0.030, 0.700)
			return &s, d, DirtyMfg, nil
		case 2:
			dbk := sc.PerturbNodes(func(nd *tech.Node) { nd.DefectDensity = tech.Clamp(nd.DefectDensity*scale, 0.07, 0.3) })
			return base, dbk, DirtyNodes, nil
		default:
			s.Chiplets = append([]core.Chiplet(nil), base.Chiplets...)
			s.Chiplets[k%len(s.Chiplets)].Transistors *= scale
			return &s, d, DirtyAreas, nil
		}
	}
	var want ParamStats
	var wantTotals []Totals
	for _, workers := range []int{1, 2, 4} {
		plan, err := CompileParams(base, d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Walk(context.Background(), n, apply, engine.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		st := plan.Stats()
		if st.Evals != n {
			t.Fatalf("workers=%d: Evals = %d, want %d", workers, st.Evals, n)
		}
		if workers == 1 {
			want, wantTotals = st, got
			continue
		}
		if st != want {
			t.Errorf("workers=%d: stats %+v, serial %+v", workers, st, want)
		}
		for k := range got {
			if math.Float64bits(got[k].TotalKg()) != math.Float64bits(wantTotals[k].TotalKg()) {
				t.Fatalf("workers=%d point %d: TotalKg %v, serial %v", workers, k, got[k].TotalKg(), wantTotals[k].TotalKg())
			}
		}
	}
}
