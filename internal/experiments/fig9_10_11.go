package experiments

import (
	"fmt"

	"ecochip/internal/pkgcarbon"
	"ecochip/internal/report"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

func init() {
	register("fig9", plain(Fig9))
	register("fig10", plain(Fig10))
	register("fig11a", plain(Fig11a))
	register("fig11b", plain(Fig11b))
	register("fig11c", plain(Fig11c))
	register("fig11d", plain(Fig11d))
}

// Fig9 evaluates the HI overheads (C_HI split into package and routing)
// of the five packaging architectures for the GA102's 500 mm^2 digital
// block split into N_c chiplets. 3D sweeps 2-4 tiers; the 2D
// architectures sweep N_c in {2, 4, 6, 8} (Fig. 9).
func Fig9(db *tech.DB) (*report.Table, error) {
	t := report.New("fig9", "C_HI per packaging architecture, 500mm^2 GA102 digital block split into Nc chiplets",
		"arch", "nc", "package_kg", "routing_kg", "chi_kg")
	for _, arch := range pkgcarbon.Architectures {
		counts := []int{2, 4, 6, 8}
		if arch == pkgcarbon.ThreeD {
			counts = []int{2, 3, 4}
		}
		for _, nc := range counts {
			s, err := testcases.GA102DigitalOnly(db, nc, arch)
			if err != nil {
				return nil, err
			}
			rep, err := s.Evaluate(db)
			if err != nil {
				return nil, err
			}
			p := rep.Packaging
			t.AddRow(arch.String(), report.I(nc), report.F(p.PackageKg), report.F(p.RoutingKg), report.F(p.TotalKg()))
		}
	}
	return t, nil
}

// Fig10 reports C_mfg and C_HI for the full GA102 as the digital block is
// split into N_c chiplets (memory at 10 nm, analog at 14 nm; Fig. 10).
func Fig10(db *tech.DB) (*report.Table, error) {
	t := report.New("fig10", "GA102 C_mfg vs C_HI as digital block splits into Nc chiplets (RDL)",
		"nc_digital", "total_chiplets", "cmfg_kg", "chi_kg", "sum_kg")
	for _, nc := range []int{1, 2, 3, 4, 6, 8} {
		s, err := testcases.GA102Split(db, nc, pkgcarbon.RDLFanout)
		if err != nil {
			return nil, err
		}
		rep, err := s.Evaluate(db)
		if err != nil {
			return nil, err
		}
		t.AddRow(report.I(nc), report.I(len(s.Chiplets)), report.F(rep.MfgKg),
			report.F(rep.HIKg), report.F(rep.MfgKg+rep.HIKg))
	}
	return t, nil
}

// a15HI evaluates the A15 3-chiplet testcase under the given packaging
// parameters and returns C_HI.
func a15HI(db *tech.DB, mutate func(*pkgcarbon.Params)) (float64, error) {
	s := testcases.A15(db, 7, 14, 10, false)
	mutate(&s.Packaging)
	rep, err := s.Evaluate(db)
	if err != nil {
		return 0, err
	}
	return rep.HIKg, nil
}

// Fig11a sweeps the RDL layer count for the A15 RDL-fanout package
// (Fig. 11(a)).
func Fig11a(db *tech.DB) (*report.Table, error) {
	t := report.New("fig11a", "A15 C_HI vs RDL layer count",
		"l_rdl", "chi_kg")
	for l := 4; l <= 9; l++ {
		hi, err := a15HI(db, func(p *pkgcarbon.Params) {
			*p = pkgcarbon.DefaultParams(pkgcarbon.RDLFanout)
			p.RDLLayers = l
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(report.I(l), report.F(hi))
	}
	return t, nil
}

// Fig11b sweeps the EMIB bridge range for the A15 silicon-bridge package
// (Fig. 11(b)).
func Fig11b(db *tech.DB) (*report.Table, error) {
	t := report.New("fig11b", "A15 C_HI vs EMIB bridge range",
		"range_mm", "chi_kg")
	for _, r := range []float64{0.5, 1, 2, 4} {
		hi, err := a15HI(db, func(p *pkgcarbon.Params) {
			*p = pkgcarbon.DefaultParams(pkgcarbon.SiliconBridge)
			p.BridgeRangeMM = r
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.1f", r), report.F(hi))
	}
	return t, nil
}

// Fig11c sweeps the active-interposer technology node for the A15
// (Fig. 11(c)).
func Fig11c(db *tech.DB) (*report.Table, error) {
	t := report.New("fig11c", "A15 C_HI vs active-interposer node",
		"interposer_nm", "chi_kg")
	for _, nm := range []int{22, 28, 40, 65} {
		node := db.MustGet(nm)
		hi, err := a15HI(db, func(p *pkgcarbon.Params) {
			*p = pkgcarbon.DefaultParams(pkgcarbon.ActiveInterposer)
			p.PackagingNode = node
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(report.I(nm), report.F(hi))
	}
	return t, nil
}

// Fig11d sweeps the TSV pitch for a 3D-stacked A15 (Fig. 11(d)).
func Fig11d(db *tech.DB) (*report.Table, error) {
	t := report.New("fig11d", "A15 C_HI vs TSV pitch (3D stacking)",
		"pitch_um", "chi_kg")
	for _, pitch := range []float64{10, 20, 30, 45} {
		hi, err := a15HI(db, func(p *pkgcarbon.Params) {
			*p = pkgcarbon.DefaultParams(pkgcarbon.ThreeD)
			p.Bond = pkgcarbon.TSV
			p.BondPitchUM = pitch
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f", pitch), report.F(hi))
	}
	return t, nil
}
