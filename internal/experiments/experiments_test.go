package experiments

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"ecochip/internal/tech"
)

func db() *tech.DB { return tech.Default() }

// Every paper figure must have a registered runner; extensions come on
// top of the 26 figure experiments.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2a", "fig2b", "fig3b", "fig6a", "fig6b",
		"fig7a", "fig7b", "fig7c", "fig7d",
		"fig8a", "fig8b", "fig9", "fig10",
		"fig11a", "fig11b", "fig11c", "fig11d",
		"fig12a", "fig12b", "fig12c", "fig12d",
		"fig13", "fig14", "fig15a", "fig15b", "tbl1",
		"ext-tornado", "ext-pareto", "ext-noc", "ext-nre", "ext-validation", "ext-uncertainty",
	}
	got := IDs()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// Extension shapes: the tornado is sorted by swing; the Pareto front is
// non-empty and contains the (7,14,10) carbon optimum; NoC per-flit
// energy grows with endpoints; NRE amortizes linearly.
func TestExtensionShapes(t *testing.T) {
	tor := mustRun(t, "ext-tornado")
	swings := tor["swing_kg"]
	for i := 1; i < len(swings); i++ {
		if swings[i] > swings[i-1] {
			t.Errorf("tornado not sorted by swing: %v", swings)
		}
	}

	par, err := RunWith("ext-pareto", db(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	foundOptimum := false
	for _, row := range par.Rows {
		if row[0] == "[7 14 10]" {
			foundOptimum = true
		}
	}
	if !foundOptimum {
		t.Error("the (7,14,10) carbon optimum must be on the Pareto front")
	}

	nocT := mustRun(t, "ext-noc")
	perFlit := nocT["energy_per_flit_nj"]
	// Within each node block of 4 endpoint counts, energy grows.
	for b := 0; b+4 <= len(perFlit); b += 4 {
		for i := 1; i < 4; i++ {
			if perFlit[b+i] <= perFlit[b+i-1] {
				t.Errorf("per-flit energy should grow with endpoints in block %d: %v", b/4, perFlit[b:b+4])
			}
		}
	}

	nre := mustRun(t, "ext-nre")
	at10k, at1m := nre["per_part_at_10k"], nre["per_part_at_1m"]
	for i := range at10k {
		if at1m[i] >= at10k[i] {
			t.Errorf("row %d: 1M-part NRE should be far below 10k-part", i)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := RunWith("fig99", db(), Options{}); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// Every experiment must run cleanly and produce a non-empty table whose
// rows match the header width.
func TestAllExperimentsRun(t *testing.T) {
	tables, err := RunAll(db())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(IDs()) {
		t.Fatalf("RunAll returned %d tables, want %d", len(tables), len(IDs()))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", tbl.Title)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Headers) {
				t.Errorf("%s: ragged row %v", tbl.Title, row)
			}
		}
		if tbl.Note == "" {
			t.Errorf("%s: missing note", tbl.Title)
		}
	}
}

func mustRun(t *testing.T, id string) map[string][]float64 {
	t.Helper()
	tbl, err := RunWith(id, db(), Options{})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := map[string][]float64{}
	for _, h := range tbl.Headers {
		if vals, err := tbl.Column(h); err == nil {
			out[h] = vals
		}
	}
	out["__rows"] = []float64{float64(len(tbl.Rows))}
	return out
}

// Fig. 2(a): CFP grows superlinearly with area.
func TestFig2aShape(t *testing.T) {
	cols := mustRun(t, "fig2a")
	kg := cols["cmfg_kg"]
	area := cols["area_mm2"]
	if len(kg) != 20 {
		t.Fatalf("want 20 sweep points, got %d", len(kg))
	}
	// Last/first CFP ratio must exceed the area ratio (superlinear).
	if kg[len(kg)-1]/kg[0] <= area[len(area)-1]/area[0] {
		t.Errorf("CFP growth %.1fx should exceed area growth %.1fx",
			kg[len(kg)-1]/kg[0], area[len(area)-1]/area[0])
	}
}

// Fig. 2(b): the 4-chiplet GA102 beats the monolith at every node.
func TestFig2bShape(t *testing.T) {
	cols := mustRun(t, "fig2b")
	for i, ratio := range cols["chiplet_over_mono"] {
		if ratio >= 1 {
			t.Errorf("row %d: chiplet/mono ratio %.2f should be < 1", i, ratio)
		}
	}
}

// Fig. 3(b): modeling wastage raises CFP, and the monolith wastes more
// (its share of periphery waste is larger).
func TestFig3bShape(t *testing.T) {
	cols := mustRun(t, "fig3b")
	with, without := cols["with_wastage_kg"], cols["without_wastage_kg"]
	share := cols["wastage_share"]
	for i := range with {
		if with[i] <= without[i] {
			t.Errorf("row %d: with-wastage %.1f should exceed without %.1f", i, with[i], without[i])
		}
	}
	if share[1] >= share[0] {
		t.Errorf("chiplet wastage share %.3f should be below monolith %.3f", share[1], share[0])
	}
}

// Fig. 6: defect density falls with mature nodes; total CFP rises with D0.
func TestFig6Shapes(t *testing.T) {
	a := mustRun(t, "fig6a")
	d0 := a["d0_per_cm2"]
	for i := 1; i < len(d0); i++ {
		if d0[i] >= d0[i-1] {
			t.Errorf("defect density should fall with node age: %v", d0)
		}
	}
	b := mustRun(t, "fig6b")
	kg := b["ctot_kg"]
	for i := 1; i < len(kg); i++ {
		if kg[i] <= kg[i-1] {
			t.Errorf("total CFP should rise with defect density: %v", kg)
		}
	}
}

// Fig. 7(a): the minimum C_mfg+C_HI tuple is (7,14,10); (10,10,10)
// exceeds the monolith.
func TestFig7aShape(t *testing.T) {
	tbl, err := RunWith("fig7a", db(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	total, err := tbl.Column("cmfg_plus_chi_kg")
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]float64{}
	for i, row := range tbl.Rows {
		byLabel[row[0]] = total[i]
	}
	best := "(7,14,10)"
	for label, v := range byLabel {
		if label != best && v < byLabel[best] {
			t.Errorf("tuple %s (%.1f kg) beats the expected minimum %s (%.1f kg)",
				label, v, best, byLabel[best])
		}
	}
	if byLabel["(10,10,10)"] <= byLabel["(7,7,7)-mono"] {
		t.Errorf("(10,10,10) %.1f should exceed the monolith %.1f",
			byLabel["(10,10,10)"], byLabel["(7,7,7)-mono"])
	}
}

// Fig. 7(b): older-node designs are cheaper to design.
func TestFig7bShape(t *testing.T) {
	tbl, err := RunWith("fig7b", db(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	total, err := tbl.Column("total_kg")
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]float64{}
	for i, row := range tbl.Rows {
		byLabel[row[0]] = total[i]
	}
	if byLabel["(14,14,14)"] >= byLabel["(7,7,7)"] {
		t.Error("all-14nm design carbon should be below all-7nm")
	}
}

// Fig. 7(c): ACT underestimates everywhere.
func TestFig7cShape(t *testing.T) {
	cols := mustRun(t, "fig7c")
	for i, gap := range cols["act_underestimate_kg"] {
		if gap <= 0 {
			t.Errorf("row %d: ACT should underestimate (gap %.2f)", i, gap)
		}
	}
}

// Fig. 7(d): GPU operational carbon dominates (embodied share ~20%).
func TestFig7dShape(t *testing.T) {
	cols := mustRun(t, "fig7d")
	for i, share := range cols["emb_share"] {
		if share < 0.05 || share > 0.45 {
			t.Errorf("row %d: embodied share %.2f outside GPU-plausible (0.05, 0.45)", i, share)
		}
	}
}

// Fig. 8: HI beats monolith for both EMR and A15; A15 embodied share ~80%.
func TestFig8Shapes(t *testing.T) {
	a := mustRun(t, "fig8a")
	if a["ctot_kg"][1] >= a["ctot_kg"][0] {
		t.Error("EMR 2-chiplet C_tot should beat the monolith")
	}
	b := mustRun(t, "fig8b")
	if b["ctot_kg"][1] >= b["ctot_kg"][0] {
		t.Error("A15 3-chiplet C_tot should beat the monolith")
	}
	for i, share := range b["emb_share"] {
		if share < 0.6 || share > 0.95 {
			t.Errorf("A15 row %d: embodied share %.2f should be ~0.8", i, share)
		}
	}
}

// Fig. 9: EMIB wins at Nc=2, RDL wins at Nc=8, interposers sit above RDL.
func TestFig9Shape(t *testing.T) {
	tbl, err := RunWith("fig9", db(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	chi := map[string]float64{}
	for _, row := range tbl.Rows {
		v, err := tbl.Column("chi_kg")
		if err != nil {
			t.Fatal(err)
		}
		_ = v
		key := row[0] + "/" + row[1]
		var x float64
		if _, err := sscan(row[4], &x); err != nil {
			t.Fatal(err)
		}
		chi[key] = x
	}
	if !(chi["EMIB/2"] < chi["RDL/2"]) {
		t.Errorf("EMIB should win at Nc=2: EMIB %.2f vs RDL %.2f", chi["EMIB/2"], chi["RDL/2"])
	}
	if !(chi["RDL/8"] < chi["EMIB/8"]) {
		t.Errorf("RDL should win at Nc=8: RDL %.2f vs EMIB %.2f", chi["RDL/8"], chi["EMIB/8"])
	}
	for _, nc := range []string{"2", "4", "6", "8"} {
		if !(chi["passive-interposer/"+nc] > chi["RDL/"+nc]) {
			t.Errorf("passive interposer should exceed RDL at Nc=%s", nc)
		}
		if !(chi["active-interposer/"+nc] > chi["passive-interposer/"+nc]) {
			t.Errorf("active interposer should exceed passive at Nc=%s", nc)
		}
	}
	// 3D CFP falls with tiers.
	if !(chi["3D/4"] < chi["3D/3"] && chi["3D/3"] < chi["3D/2"]) {
		t.Errorf("3D C_HI should fall with tiers: %v %v %v", chi["3D/2"], chi["3D/3"], chi["3D/4"])
	}
}

// Fig. 10: C_mfg monotone down; C_HI grows across the sweep.
func TestFig10Shape(t *testing.T) {
	cols := mustRun(t, "fig10")
	mfg := cols["cmfg_kg"]
	for i := 1; i < len(mfg); i++ {
		if mfg[i] >= mfg[i-1] {
			t.Errorf("C_mfg should fall with Nc: %v", mfg)
		}
	}
	hi := cols["chi_kg"]
	if hi[len(hi)-1] <= hi[0] {
		t.Errorf("C_HI should grow across the sweep: %v", hi)
	}
}

// Fig. 11: monotone parameter responses.
func TestFig11Shapes(t *testing.T) {
	up := func(id, col string) {
		cols := mustRun(t, id)
		v := cols[col]
		for i := 1; i < len(v); i++ {
			if v[i] <= v[i-1] {
				t.Errorf("%s: %s should increase: %v", id, col, v)
			}
		}
	}
	down := func(id, col string) {
		cols := mustRun(t, id)
		v := cols[col]
		for i := 1; i < len(v); i++ {
			if v[i] >= v[i-1] {
				t.Errorf("%s: %s should decrease: %v", id, col, v)
			}
		}
	}
	up("fig11a", "chi_kg")   // more RDL layers -> more carbon
	down("fig11b", "chi_kg") // longer bridge range -> fewer bridges
	down("fig11c", "chi_kg") // rows run 22nm -> 65nm; older node -> less carbon
	down("fig11d", "chi_kg") // larger TSV pitch -> fewer TSVs
}

// Fig. 12: design carbon ~ 1/ratio; lifetime raises C_op.
func TestFig12Shapes(t *testing.T) {
	a := mustRun(t, "fig12a")
	cdes := a["cdes_kg"]
	for i := 1; i < len(cdes); i++ {
		if cdes[i] >= cdes[i-1] {
			t.Errorf("design carbon should fall with reuse ratio: %v", cdes)
		}
	}
	for _, id := range []string{"fig12b", "fig12c", "fig12d"} {
		cols := mustRun(t, id)
		cop := cols["cop_kg"]
		// Within each ratio block of 5 lifetimes, C_op rises.
		for b := 0; b+5 <= len(cop); b += 5 {
			for i := 1; i < 5; i++ {
				if cop[b+i] <= cop[b+i-1] {
					t.Errorf("%s: C_op should rise with lifetime in block %d: %v", id, b/5, cop[b:b+5])
				}
			}
		}
	}
}

// Fig. 13: latency falls with tiers but C_tot rises within each series.
func TestFig13Shape(t *testing.T) {
	cols := mustRun(t, "fig13")
	lat, ctot := cols["latency_ms"], cols["ctot_kg"]
	if len(lat) != 8 {
		t.Fatalf("want 8 design points, got %d", len(lat))
	}
	for _, base := range []int{0, 4} { // two series of 4 tiers
		for i := 1; i < 4; i++ {
			if lat[base+i] >= lat[base+i-1] {
				t.Errorf("latency should fall with tiers in series at %d: %v", base, lat[base:base+4])
			}
			if ctot[base+i] <= ctot[base+i-1] {
				t.Errorf("C_tot should rise with tiers in series at %d: %v", base, ctot[base:base+4])
			}
		}
	}
}

// Fig. 14: normalized products are 1 for the monolith row.
func TestFig14Shape(t *testing.T) {
	cols := mustRun(t, "fig14")
	if cols["carbon_power_norm"][0] != 1 || cols["carbon_area_norm"][0] != 1 {
		t.Error("monolith row should normalize to 1")
	}
	// Older-node tuples occupy more area.
	area := cols["area_mm2"]
	if area[len(area)-1] <= area[0] {
		t.Errorf("(14,14,14) area %.0f should exceed monolith %.0f", area[len(area)-1], area[0])
	}
}

// Fig. 15: cost trend mirrors carbon; assembly cost grows with Nc while
// die cost falls.
func TestFig15Shapes(t *testing.T) {
	a, err := RunWith("fig15a", db(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	total, err := a.Column("total_usd")
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]float64{}
	for i, row := range a.Rows {
		byLabel[row[0]] = total[i]
	}
	if byLabel["(7,14,10)"] >= byLabel["(7,7,7)"] {
		t.Error("mixed-node tuple should cost less than all-7nm chiplets")
	}

	b := mustRun(t, "fig15b")
	dies, asm := b["dies_usd"], b["assembly_usd"]
	for i := 1; i < len(dies); i++ {
		if dies[i] >= dies[i-1] {
			t.Errorf("die cost should fall with Nc: %v", dies)
		}
	}
	if asm[len(asm)-1] <= asm[0] {
		t.Errorf("assembly cost should grow with Nc: %v", asm)
	}
}

func TestTableIRuns(t *testing.T) {
	tbl, err := RunWith("tbl1", db(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(db().Sizes()) {
		t.Errorf("Table I should have one row per node")
	}
}

// sscan parses one float cell (keeps the Fig. 9 test readable).
func sscan(s string, out *float64) (int, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, err
	}
	*out = v
	return 1, nil
}
