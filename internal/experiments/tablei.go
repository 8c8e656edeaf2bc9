package experiments

import (
	"fmt"

	"ecochip/internal/report"
	"ecochip/internal/tech"
)

func init() {
	register("tbl1", plain(TableI))
}

// TableI renders the built-in per-node parameter database and verifies
// every value sits inside the ranges of Table I of the paper.
func TableI(db *tech.DB) (*report.Table, error) {
	t := report.New("tbl1", "built-in technology database vs Table I ranges",
		"node_nm", "d0_per_cm2", "logic_mtr_mm2", "mem_mtr_mm2", "analog_mtr_mm2",
		"epa_kwh_cm2", "gas_kg_cm2", "eta_eq", "eta_eda", "vdd_v", "epla_rdl", "epla_bridge")
	for _, nm := range db.Sizes() {
		n := db.MustGet(nm)
		if err := n.Validate(); err != nil {
			return nil, fmt.Errorf("node %dnm violates Table I: %w", nm, err)
		}
		t.AddRow(report.I(nm), report.F(n.DefectDensity),
			report.F(n.Density[tech.Logic]), report.F(n.Density[tech.Memory]), report.F(n.Density[tech.Analog]),
			report.F(n.EPA), report.F(n.GasCFP), report.F(n.EquipEfficiency), report.F(n.EDAProductivity),
			report.F(n.Vdd), report.F(n.EPLARDL), report.F(n.EPLABridge))
	}
	return t, nil
}
