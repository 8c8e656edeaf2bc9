package experiments

import (
	"ecochip/internal/core"
	"ecochip/internal/descarbon"
	"ecochip/internal/report"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

func init() {
	register("fig7a", plain(Fig7a))
	register("fig7b", plain(Fig7b))
	register("fig7c", plain(Fig7c))
	register("fig7d", plain(Fig7d))
	register("fig8a", plain(Fig8a))
	register("fig8b", plain(Fig8b))
}

func ga102ForTuple(db *tech.DB, nt nodeTuple) *core.System {
	return testcases.GA102(db, nt.digital, nt.memory, nt.analog, nt.monolithic)
}

// fig7Systems builds the tuple-sweep systems in figure order.
func fig7Systems(db *tech.DB) []*core.System {
	systems := make([]*core.System, len(fig7Tuples))
	for i, nt := range fig7Tuples {
		systems[i] = ga102ForTuple(db, nt)
	}
	return systems
}

// Fig7a reports C_mfg and C_HI of the GA102 3-chiplet system with RDL
// fanout for each technology-node tuple (Fig. 7(a)).
func Fig7a(db *tech.DB) (*report.Table, error) {
	t := report.New("fig7a", "GA102 manufacturing + HI CFP per (digital,memory,analog) node tuple",
		"config", "cmfg_kg", "chi_kg", "cmfg_plus_chi_kg")
	reports, err := evaluateAll(db, fig7Systems(db))
	if err != nil {
		return nil, err
	}
	for i, nt := range fig7Tuples {
		rep := reports[i]
		t.AddRow(nt.label(), report.F(rep.MfgKg), report.F(rep.HIKg), report.F(rep.MfgKg+rep.HIKg))
	}
	return t, nil
}

// Fig7b reports the design carbon of a single SP&R iteration for each
// chiplet of each tuple (Fig. 7(b)).
func Fig7b(db *tech.DB) (*report.Table, error) {
	t := report.New("fig7b", "GA102 design CFP of one SP&R pass per node tuple",
		"config", "digital_kg", "memory_kg", "analog_kg", "total_kg")
	p := descarbon.DefaultParams()
	for _, nt := range fig7Tuples {
		s := ga102ForTuple(db, nt)
		var cells []string
		var total float64
		for _, c := range s.Chiplets {
			gates := descarbon.GatesFromTransistors(c.Transistors)
			kg, err := descarbon.SinglePassKg(gates, db.MustGet(c.NodeNm), p)
			if err != nil {
				return nil, err
			}
			cells = append(cells, report.F(kg))
			total += kg
		}
		t.AddRow(nt.label(), cells[0], cells[1], cells[2], report.F(total))
	}
	return t, nil
}

// Fig7c reports embodied CFP per tuple (N_des = 100, N_S = 100,000)
// against the ACT baseline (Fig. 7(c)).
func Fig7c(db *tech.DB) (*report.Table, error) {
	t := report.New("fig7c", "GA102 embodied CFP per tuple vs ACT baseline",
		"config", "cemb_kg", "act_kg", "act_underestimate_kg")
	systems := fig7Systems(db)
	reports, err := evaluateAll(db, systems)
	if err != nil {
		return nil, err
	}
	for i, nt := range fig7Tuples {
		rep := reports[i]
		actKg, err := systems[i].ACTEmbodiedKg(db)
		if err != nil {
			return nil, err
		}
		t.AddRow(nt.label(), report.F(rep.EmbodiedKg()), report.F(actKg), report.F(rep.EmbodiedKg()-actKg))
	}
	return t, nil
}

// Fig7d reports total CFP split into embodied and operational per tuple
// over the GPU's 2-year lifetime (Fig. 7(d)).
func Fig7d(db *tech.DB) (*report.Table, error) {
	t := report.New("fig7d", "GA102 total CFP split per tuple, 2-year lifetime",
		"config", "cemb_kg", "cop_kg", "ctot_kg", "emb_share")
	reports, err := evaluateAll(db, fig7Systems(db))
	if err != nil {
		return nil, err
	}
	for i, nt := range fig7Tuples {
		rep := reports[i]
		t.AddRow(nt.label(), report.F(rep.EmbodiedKg()), report.F(rep.OperationalKg),
			report.F(rep.TotalKg()), report.F(rep.EmbodiedKg()/rep.TotalKg()))
	}
	return t, nil
}

// fig8Row renders one system's total-CFP split.
func fig8Row(t *report.Table, label string, rep *core.Report) {
	t.AddRow(label, report.F(rep.EmbodiedKg()), report.F(rep.OperationalKg),
		report.F(rep.TotalKg()), report.F(rep.EmbodiedKg()/rep.TotalKg()))
}

// Fig8a compares the EMR 2-chiplet EMIB system against its monolithic
// counterpart (Fig. 8(a)).
func Fig8a(db *tech.DB) (*report.Table, error) {
	t := report.New("fig8a", "EMR total CFP vs monolithic counterpart (EMIB, 5-year lifetime)",
		"config", "cemb_kg", "cop_kg", "ctot_kg", "emb_share")
	mono, err := testcases.EMR(db, 10, true).Evaluate(db)
	if err != nil {
		return nil, err
	}
	hi, err := testcases.EMR(db, 10, false).Evaluate(db)
	if err != nil {
		return nil, err
	}
	fig8Row(t, "EMR-monolith", mono)
	fig8Row(t, "EMR-2chiplet", hi)
	return t, nil
}

// Fig8b compares the A15 3-chiplet RDL system against its monolithic
// counterpart (Fig. 8(b)); the embodied share should sit near 80%.
func Fig8b(db *tech.DB) (*report.Table, error) {
	t := report.New("fig8b", "A15 total CFP vs monolithic counterpart (RDL fanout, 2-year lifetime)",
		"config", "cemb_kg", "cop_kg", "ctot_kg", "emb_share")
	mono, err := testcases.A15(db, 7, 7, 7, true).Evaluate(db)
	if err != nil {
		return nil, err
	}
	hi, err := testcases.A15(db, 7, 14, 10, false).Evaluate(db)
	if err != nil {
		return nil, err
	}
	fig8Row(t, "A15-monolith", mono)
	fig8Row(t, "A15-3chiplet", hi)
	return t, nil
}
