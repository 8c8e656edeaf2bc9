package experiments

import (
	"context"
	"fmt"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/explore"
	"ecochip/internal/mfg"
	"ecochip/internal/noc"
	"ecochip/internal/report"
	"ecochip/internal/sensitivity"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
	"ecochip/internal/uncertainty"
)

// Extension experiments beyond the paper's figures: the sensitivity
// tornado (generalizing Fig. 6(b)), the carbon-cost Pareto front of the
// Section VI design space, the NoC scaling table behind the
// communication overheads, and the NRE mask-carbon future-work study.

func init() {
	register("ext-tornado", func(db *tech.DB) (*report.Table, error) { return ExtTornado(db, Options{}) })
	register("ext-pareto", ExtPareto)
	register("ext-noc", ExtNoC)
	register("ext-nre", ExtNRE)
	register("ext-uncertainty", func(db *tech.DB) (*report.Table, error) { return ExtUncertainty(db, Options{}) })
	registerOpt("ext-tornado", ExtTornado)
	registerOpt("ext-uncertainty", ExtUncertainty)
}

// ExtUncertainty propagates Table I input uncertainty through the model
// (Section VII discussion): embodied-carbon percentiles for the three
// main testcases under the default parameter spreads. The options tune
// the workers and receive progress/statistics; the table is identical
// either way.
func ExtUncertainty(db *tech.DB, o Options) (*report.Table, error) {
	t := report.New("ext-uncertainty",
		"embodied-carbon distribution under +/-20% input uncertainty (500 Monte Carlo samples)",
		"testcase", "p5_kg", "p50_kg", "p95_kg", "relative_spread")
	cases := []struct {
		name string
		sys  *core.System
	}{
		{"GA102(7,14,10)", testcases.GA102(db, 7, 14, 10, false)},
		{"A15(7,14,10)", testcases.A15(db, 7, 14, 10, false)},
		{"EMR(10)", testcases.EMR(db, 10, false)},
	}
	ctx := context.Background()
	for _, c := range cases {
		d, plan, err := uncertainty.RunPlanned(ctx, c.sys, db, uncertainty.DefaultSpread(), 500, 2024, o.engineOpts()...)
		if err != nil {
			return nil, err
		}
		if o.StatsTo != nil {
			fmt.Fprintf(o.StatsTo, "ext-uncertainty %s: %v\n", c.name, plan.Stats())
		}
		t.AddRow(c.name, report.F(d.P5Kg), report.F(d.P50Kg), report.F(d.P95Kg), report.F(d.RelativeSpread()))
	}
	return t, nil
}

// ExtTornado ranks the model inputs by their command over the GA102's
// total carbon under a ±25% perturbation. The options tune the workers
// and receive progress/statistics.
func ExtTornado(db *tech.DB, o Options) (*report.Table, error) {
	t := report.New("ext-tornado", "GA102 (7,14,10) C_tot sensitivity, +/-25% per factor",
		"factor", "low_kg", "base_kg", "high_kg", "swing_kg")
	base := testcases.GA102(db, 7, 14, 10, false)
	ctx := context.Background()
	results, plan, err := sensitivity.TornadoPlanned(ctx, base, db, 0.25, o.engineOpts()...)
	if err != nil {
		return nil, err
	}
	if o.StatsTo != nil {
		fmt.Fprintf(o.StatsTo, "ext-tornado: %v\n", plan.Stats())
	}
	for _, r := range results {
		t.AddRow(r.Factor, report.F(r.LowKg), report.F(r.BaseKg), report.F(r.HighKg), report.F(r.Swing()))
	}
	return t, nil
}

// ExtPareto reports the carbon-cost Pareto front of the GA102 node
// design space.
func ExtPareto(db *tech.DB) (*report.Table, error) {
	t := report.New("ext-pareto", "GA102 node-assignment Pareto front (embodied carbon vs dollar cost)",
		"nodes", "cemb_kg", "cost_usd", "area_mm2")
	base := testcases.GA102(db, 7, 14, 10, false)
	points, err := explore.NodeSweep(base, db, []int{7, 10, 14}, cost.DefaultParams())
	if err != nil {
		return nil, err
	}
	front := explore.ParetoFront(points, explore.ByEmbodied, explore.ByCost)
	for _, p := range front {
		t.AddRow(p.Label(), report.F(p.EmbodiedKg), report.F(p.CostUSD), report.F(p.PackageAreaMM2))
	}
	return t, nil
}

// ExtNoC reports router area/power and network energy-per-flit across
// chiplet counts and nodes — the scaling data behind C_mfg,comm.
func ExtNoC(db *tech.DB) (*report.Table, error) {
	t := report.New("ext-noc", "NoC scaling: per-router area/power and per-flit energy (512-bit mesh)",
		"node_nm", "endpoints", "router_area_mm2", "router_power_w", "avg_hops", "energy_per_flit_nj")
	cfg := noc.DefaultConfig()
	pp := noc.DefaultPowerParams()
	for _, nm := range []int{7, 22, 65} {
		n := db.MustGet(nm)
		for _, endpoints := range []int{2, 4, 8, 16} {
			mesh, err := noc.NewMesh(endpoints, 2.0, cfg)
			if err != nil {
				return nil, err
			}
			area, err := noc.AreaMM2(cfg, n)
			if err != nil {
				return nil, err
			}
			power, err := noc.PowerW(cfg, n, pp)
			if err != nil {
				return nil, err
			}
			perFlit, err := mesh.EnergyPerFlitJ(n, pp)
			if err != nil {
				return nil, err
			}
			t.AddRow(report.I(nm), report.I(endpoints), report.F(area), report.F(power),
				report.F(mesh.AverageHops()), report.F(perFlit*1e9))
		}
	}
	return t, nil
}

// ExtNRE quantifies the future-work NRE split of Section V-C: per-part
// mask-set carbon across nodes and reuse volumes.
func ExtNRE(db *tech.DB) (*report.Table, error) {
	t := report.New("ext-nre", "amortized mask-set (NRE) carbon per part across nodes and volumes",
		"node_nm", "mask_set_kg", "per_part_at_10k", "per_part_at_100k", "per_part_at_1m")
	p := mfg.DefaultNREParams()
	for _, nm := range db.Sizes() {
		n := db.MustGet(nm)
		set, err := mfg.MaskSetKg(n, p)
		if err != nil {
			return nil, err
		}
		row := []string{report.I(nm), report.F(set)}
		for _, vol := range []int{10_000, 100_000, 1_000_000} {
			per, err := mfg.AmortizedNREKg(n, vol, p)
			if err != nil {
				return nil, err
			}
			row = append(row, report.F(per))
		}
		t.AddRow(row...)
	}
	if len(t.Rows) == 0 {
		return nil, fmt.Errorf("ext-nre: empty node database")
	}
	return t, nil
}
