package experiments

import (
	"fmt"

	"ecochip/internal/mfg"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/report"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

func init() {
	register("fig2a", plain(Fig2a))
	register("fig2b", plain(Fig2b))
	register("fig3b", plain(Fig3b))
	register("fig6a", plain(Fig6a))
	register("fig6b", plain(Fig6b))
}

// Fig2a sweeps the area of a monolithic 10 nm logic die up to 200 mm^2
// and reports the manufacturing CFP, exposing the exponential growth from
// yield loss (Fig. 2(a)).
func Fig2a(db *tech.DB) (*report.Table, error) {
	t := report.New("fig2a", "manufacturing CFP vs area, monolithic 10nm logic die",
		"area_mm2", "yield", "cmfg_kg")
	n := db.MustGet(10)
	p := mfg.DefaultParams()
	for area := 10.0; area <= 200.0; area += 10 {
		r, err := mfg.Die(n, tech.Logic, area, p)
		if err != nil {
			return nil, err
		}
		t.AddRow(report.F(area), report.F(r.Yield), report.F(r.TotalKg()))
	}
	return t, nil
}

// Fig2b compares the manufacturing CFP (C_mfg + C_HI) of the monolithic
// GA102 against a 4-chiplet version (digital split in two, memory and
// analog on their own dies) across technology nodes, normalized to the
// monolith (Fig. 2(b)).
func Fig2b(db *tech.DB) (*report.Table, error) {
	t := report.New("fig2b", "GA102 monolith vs 4-chiplet, normalized manufacturing CFP per node",
		"node_nm", "mono_kg", "chiplet_kg", "chiplet_over_mono")
	for _, nm := range []int{7, 10, 14} {
		mono, err := testcases.GA102(db, nm, nm, nm, true).Evaluate(db)
		if err != nil {
			return nil, err
		}
		split, err := testcases.GA102Split(db, 2, pkgcarbon.RDLFanout)
		if err != nil {
			return nil, err
		}
		// Retarget every chiplet of the split system to the same node.
		nodes := make([]int, len(split.Chiplets))
		for i := range nodes {
			nodes[i] = nm
		}
		split, err = split.WithNodes(nodes...)
		if err != nil {
			return nil, err
		}
		srep, err := split.Evaluate(db)
		if err != nil {
			return nil, err
		}
		monoMfg := mono.MfgKg
		chipletMfg := srep.MfgKg + srep.HIKg
		t.AddRow(report.I(nm), report.F(monoMfg), report.F(chipletMfg), report.F(chipletMfg/monoMfg))
	}
	return t, nil
}

// Fig3b compares manufacturing CFP with and without modeling the silicon
// wasted at the wafer periphery for the monolithic and 4-chiplet GA102 on
// a 450 mm wafer (Fig. 3(b)).
func Fig3b(db *tech.DB) (*report.Table, error) {
	t := report.New("fig3b", "wafer-periphery wastage effect, GA102 on 450mm wafer",
		"config", "with_wastage_kg", "without_wastage_kg", "wastage_share")
	rows := []struct {
		label string
		mk    func(wastage bool) (float64, error)
	}{
		{"GA102-monolith", func(w bool) (float64, error) {
			s := testcases.GA102(db, 7, 7, 7, true)
			s.Mfg.IncludeWastage = w
			rep, err := s.Evaluate(db)
			if err != nil {
				return 0, err
			}
			return rep.MfgKg + rep.HIKg, nil
		}},
		{"GA102-4chiplet", func(w bool) (float64, error) {
			s, err := testcases.GA102Split(db, 2, pkgcarbon.RDLFanout)
			if err != nil {
				return 0, err
			}
			s.Mfg.IncludeWastage = w
			rep, err := s.Evaluate(db)
			if err != nil {
				return 0, err
			}
			return rep.MfgKg + rep.HIKg, nil
		}},
	}
	for _, r := range rows {
		with, err := r.mk(true)
		if err != nil {
			return nil, err
		}
		without, err := r.mk(false)
		if err != nil {
			return nil, err
		}
		t.AddRow(r.label, report.F(with), report.F(without), report.F((with-without)/with))
	}
	return t, nil
}

// Fig6a reports the defect-density trend across nodes, normalized to the
// most advanced node (Fig. 6(a)).
func Fig6a(db *tech.DB) (*report.Table, error) {
	t := report.New("fig6a", "defect density vs technology node",
		"node_nm", "d0_per_cm2", "normalized")
	ref := db.MustGet(7).DefectDensity
	for _, nm := range db.Sizes() {
		d0 := db.MustGet(nm).DefectDensity
		t.AddRow(report.I(nm), report.F(d0), report.F(d0/ref))
	}
	return t, nil
}

// Fig6b sweeps the defect density (Table I range) for the GA102
// 3-chiplet system and reports total CFP (Fig. 6(b)).
func Fig6b(db *tech.DB) (*report.Table, error) {
	t := report.New("fig6b", "total CFP vs defect density, GA102 (7,14,10) RDL",
		"d0_per_cm2", "ctot_kg")
	for _, d0 := range []float64{0.07, 0.10, 0.15, 0.20, 0.25, 0.30} {
		s := testcases.GA102(db, 7, 14, 10, false)
		s.Mfg.DefectDensityOverride = d0
		rep, err := s.Evaluate(db)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.2f", d0), report.F(rep.TotalKg()))
	}
	return t, nil
}
