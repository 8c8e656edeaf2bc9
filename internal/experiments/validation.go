package experiments

import (
	"ecochip/internal/report"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

func init() {
	register("ext-validation", plain(ExtValidation))
}

// iPhone14TotalKg is the whole-product lifecycle CFP Apple reports for
// the iPhone 14 (Section VII sanity check; the paper compares its A15
// number against this).
const iPhone14TotalKg = 61.0

// ExtValidation reproduces the Section VII sanity check: the A15
// processor's CFP should be a modest fraction (the paper lands at ~16%)
// of the whole iPhone's reported footprint, with an ~80/20
// embodied/operational split.
func ExtValidation(db *tech.DB) (*report.Table, error) {
	t := report.New("ext-validation",
		"Section VII sanity check: A15 CFP vs Apple's whole-iPhone report",
		"quantity", "value")
	rep, err := testcases.A15(db, 7, 14, 10, false).Evaluate(db)
	if err != nil {
		return nil, err
	}
	t.AddRow("a15_ctot_kg", report.F(rep.TotalKg()))
	t.AddRow("iphone14_reported_kg", report.F(iPhone14TotalKg))
	t.AddRow("a15_share_of_phone", report.F(rep.TotalKg()/iPhone14TotalKg))
	t.AddRow("a15_embodied_share", report.F(rep.EmbodiedKg()/rep.TotalKg()))
	t.AddRow("a15_operational_share", report.F(rep.OperationalKg/rep.TotalKg()))
	return t, nil
}
