package experiments

import (
	"fmt"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/report"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

func init() {
	register("fig12a", plain(Fig12a))
	register("fig12b", plain(Fig12b))
	register("fig12c", plain(Fig12c))
	register("fig12d", plain(Fig12d))
	register("fig13", plain(Fig13))
	register("fig14", plain(Fig14))
	register("fig15a", plain(Fig15a))
	register("fig15b", plain(Fig15b))
}

// reuseRatios is the N_Mi / N_S sweep of Fig. 12 with N_Mi fixed at
// 100,000: a ratio of 10 means every manufactured chiplet is reused
// across 10 distinct systems.
var reuseRatios = []int{1, 2, 5, 10, 20, 50, 100}

// withRatio retargets a system to the reuse ratio: the system volume N_S
// stays at the default 100,000 while each chiplet is manufactured
// N_Mi = ratio * N_S times — i.e. the chiplet design is reused across
// `ratio` distinct systems, amortizing its design carbon further
// (Section V-C).
func withRatio(s *core.System, ratio int) {
	for i := range s.Chiplets {
		s.Chiplets[i].ManufacturedParts = ratio * core.DefaultVolume
	}
	s.SystemVolume = core.DefaultVolume
}

// Fig12a sweeps the reuse ratio for the EMR 2-chiplet testcase in 7 nm
// and reports the amortized design carbon (Fig. 12(a)).
func Fig12a(db *tech.DB) (*report.Table, error) {
	t := report.New("fig12a", "EMR design CFP vs N_Mi/N_S reuse ratio (7nm, N_Mi=100k)",
		"ratio", "cdes_kg")
	for _, ratio := range reuseRatios {
		s := testcases.EMR(db, 7, false)
		withRatio(s, ratio)
		rep, err := s.Evaluate(db)
		if err != nil {
			return nil, err
		}
		t.AddRow(report.I(ratio), report.F(rep.DesignKg))
	}
	return t, nil
}

// fig12Lifetime renders C_tot across lifetimes and reuse ratios for one
// testcase builder (Figs. 12(b)-(d)).
func fig12Lifetime(id, note string, db *tech.DB, build func() *core.System) (*report.Table, error) {
	t := report.New(id, note, "ratio", "lifetime_yr", "cemb_kg", "cop_kg", "ctot_kg")
	for _, ratio := range []int{1, 10, 100} {
		for lifetime := 1.0; lifetime <= 5.0; lifetime++ {
			s := build()
			withRatio(s, ratio)
			s.Operation.LifetimeYears = lifetime
			rep, err := s.Evaluate(db)
			if err != nil {
				return nil, err
			}
			t.AddRow(report.I(ratio), fmt.Sprintf("%.0f", lifetime),
				report.F(rep.EmbodiedKg()), report.F(rep.OperationalKg), report.F(rep.TotalKg()))
		}
	}
	return t, nil
}

// Fig12b is the GA102 lifetime/ratio sweep (Fig. 12(b)).
func Fig12b(db *tech.DB) (*report.Table, error) {
	return fig12Lifetime("fig12b", "GA102 C_tot vs reuse ratio and lifetime (RDL fanout)",
		db, func() *core.System { return testcases.GA102(db, 7, 14, 10, false) })
}

// Fig12c is the A15 lifetime/ratio sweep (Fig. 12(c)).
func Fig12c(db *tech.DB) (*report.Table, error) {
	return fig12Lifetime("fig12c", "A15 C_tot vs reuse ratio and lifetime (RDL fanout)",
		db, func() *core.System { return testcases.A15(db, 7, 14, 10, false) })
}

// Fig12d is the EMR lifetime/ratio sweep (Fig. 12(d)).
func Fig12d(db *tech.DB) (*report.Table, error) {
	return fig12Lifetime("fig12d", "EMR C_tot vs reuse ratio and lifetime (EMIB, 7nm)",
		db, func() *core.System { return testcases.EMR(db, 7, false) })
}

// Fig13 evaluates the AR/VR accelerator design points: carbon-delay,
// carbon-power and carbon-area products over a 2-year lifetime
// (Fig. 13(a)-(c)).
func Fig13(db *tech.DB) (*report.Table, error) {
	t := report.New("fig13", "AR/VR accelerator carbon-delay/power/area products (2-year lifetime)",
		"config", "latency_ms", "power_w", "area_mm2", "cemb_kg", "ctot_kg",
		"carbon_delay", "carbon_power", "carbon_area")
	for _, cfg := range testcases.ARVRConfigs() {
		s, err := testcases.ARVR(db, cfg)
		if err != nil {
			return nil, err
		}
		rep, err := s.Evaluate(db)
		if err != nil {
			return nil, err
		}
		perf := testcases.ARVRPerformance(cfg)
		area := rep.Packaging.PackageAreaMM2 // 2D footprint of the stack
		ctot := rep.TotalKg()
		t.AddRow(cfg.Name(), report.F(perf.LatencyMS), report.F(perf.PowerW), report.F(area),
			report.F(rep.EmbodiedKg()), report.F(ctot),
			report.F(ctot*perf.LatencyMS), report.F(ctot*perf.PowerW), report.F(ctot*area))
	}
	return t, nil
}

// Fig14 reports operational power x C_tot and area x C_tot for the
// GA102 3-chiplet RDL system across node tuples, normalized to the
// monolith (Fig. 14(a)-(b)).
func Fig14(db *tech.DB) (*report.Table, error) {
	t := report.New("fig14", "GA102 carbon-power and carbon-area products per node tuple, normalized to monolith",
		"config", "power_kwh_yr", "area_mm2", "ctot_kg", "carbon_power_norm", "carbon_area_norm")
	var basePower, baseArea, baseTot float64
	for i, nt := range fig7Tuples {
		s := ga102ForTuple(db, nt)
		rep, err := s.Evaluate(db)
		if err != nil {
			return nil, err
		}
		power, err := s.Operation.AnnualEnergyKWhTotal(rep.RouterPowerW)
		if err != nil {
			return nil, err
		}
		area := rep.Chiplets[0].AreaMM2
		if rep.Packaging != nil {
			area = rep.Packaging.PackageAreaMM2
		}
		ctot := rep.TotalKg()
		if i == 0 {
			basePower, baseArea, baseTot = power, area, ctot
		}
		t.AddRow(nt.label(), report.F(power), report.F(area), report.F(ctot),
			report.F((ctot*power)/(baseTot*basePower)), report.F((ctot*area)/(baseTot*baseArea)))
	}
	return t, nil
}

// Fig15a prices the GA102 3-chiplet system per node tuple with the
// third-party-style dollar-cost model (Fig. 15(a)).
func Fig15a(db *tech.DB) (*report.Table, error) {
	t := report.New("fig15a", "GA102 dollar cost per node tuple",
		"config", "dies_usd", "assembly_usd", "nre_usd", "total_usd")
	cp := cost.DefaultParams()
	for _, nt := range fig7Tuples {
		s := ga102ForTuple(db, nt)
		b, err := s.CostUSD(db, cp)
		if err != nil {
			return nil, err
		}
		t.AddRow(nt.label(), report.F(b.DiesUSD), report.F(b.AssemblyUSD),
			report.F(b.NREUSD), report.F(b.TotalUSD()))
	}
	return t, nil
}

// Fig15b prices the GA102 as its digital block splits into N_c chiplets
// (Fig. 15(b)).
func Fig15b(db *tech.DB) (*report.Table, error) {
	t := report.New("fig15b", "GA102 dollar cost vs digital chiplet count (RDL)",
		"nc_digital", "dies_usd", "assembly_usd", "total_usd")
	cp := cost.DefaultParams()
	for _, nc := range []int{1, 2, 3, 4, 6, 8} {
		s, err := testcases.GA102Split(db, nc, pkgcarbon.RDLFanout)
		if err != nil {
			return nil, err
		}
		b, err := s.CostUSD(db, cp)
		if err != nil {
			return nil, err
		}
		t.AddRow(report.I(nc), report.F(b.DiesUSD), report.F(b.AssemblyUSD), report.F(b.TotalUSD()))
	}
	return t, nil
}
