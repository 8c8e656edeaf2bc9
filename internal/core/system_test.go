package core

import (
	"math"
	"testing"

	"ecochip/internal/descarbon"
	"ecochip/internal/mfg"
	"ecochip/internal/opcarbon"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/tech"
)

func db() *tech.DB { return tech.Default() }

// threeChiplet builds a small GA102-like 3-chiplet system.
func threeChiplet(digital, memory, analog int) *System {
	ref := db().MustGet(7)
	return &System{
		Name: "test3",
		Chiplets: []Chiplet{
			BlockFromArea("digital", tech.Logic, 500, ref, digital),
			BlockFromArea("memory", tech.Memory, 80, ref, memory),
			BlockFromArea("analog", tech.Analog, 48, ref, analog),
		},
		Packaging: pkgcarbon.DefaultParams(pkgcarbon.RDLFanout),
		Mfg:       mfg.DefaultParams(),
		Design:    descarbon.DefaultParams(),
	}
}

func monolith(node int) *System {
	s := threeChiplet(node, node, node)
	s.Monolithic = true
	return s
}

func TestBlockFromArea(t *testing.T) {
	ref := db().MustGet(7)
	c := BlockFromArea("digital", tech.Logic, 500, ref, 7)
	// Round trip: 500 mm^2 at the same node.
	if got := ref.Area(tech.Logic, c.Transistors); math.Abs(got-500) > 1e-9 {
		t.Errorf("round-trip area = %g, want 500", got)
	}
	if c.NodeNm != 7 || c.Name != "digital" {
		t.Errorf("unexpected chiplet %+v", c)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []func(*System){
		func(s *System) { s.Chiplets = nil },
		func(s *System) { s.Chiplets[0].Name = "" },
		func(s *System) { s.Chiplets[0].Transistors = 0 },
		func(s *System) { s.Chiplets[0].Type = 3 },
		func(s *System) { s.Chiplets[1].Type = -1 },
		func(s *System) { s.Chiplets[0].NodeNm = 3 },
		func(s *System) { s.Chiplets[0].ManufacturedParts = -1 },
		func(s *System) { s.SystemVolume = -1 },
		func(s *System) { s.Mfg.CarbonIntensity = 9 },
		func(s *System) { s.Design.PowerW = 0 },
		func(s *System) { s.Packaging.RDLLayers = 99 },
		func(s *System) { s.Operation = &opcarbon.Spec{} },
	}
	for i, mutate := range bad {
		s := threeChiplet(7, 10, 14)
		mutate(s)
		if _, err := s.Evaluate(db()); err == nil {
			t.Errorf("mutation %d should fail Evaluate", i)
		}
	}
	// Monolithic node mixing.
	s := threeChiplet(7, 10, 14)
	s.Monolithic = true
	if _, err := s.Evaluate(db()); err == nil {
		t.Error("monolith with mixed nodes should fail")
	}
}

func TestMonolithHasNoHITerm(t *testing.T) {
	rep, err := monolith(7).Evaluate(db())
	if err != nil {
		t.Fatal(err)
	}
	if rep.HIKg != 0 || rep.Packaging != nil {
		t.Errorf("monolith must have zero HI carbon, got %g", rep.HIKg)
	}
	if len(rep.Chiplets) != 1 {
		t.Errorf("monolith should report one die, got %d", len(rep.Chiplets))
	}
	if math.Abs(rep.Chiplets[0].AreaMM2-628) > 1e-6 {
		t.Errorf("monolith area = %g, want 628", rep.Chiplets[0].AreaMM2)
	}
}

func TestReportAdditivity(t *testing.T) {
	s := threeChiplet(7, 14, 10)
	s.Operation = &opcarbon.Spec{
		DutyCycle: 0.2, LifetimeYears: 2, CarbonIntensity: 0.7, AnnualEnergyKWh: 228,
	}
	rep, err := s.Evaluate(db())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.EmbodiedKg()-(rep.MfgKg+rep.DesignKg+rep.HIKg)) > 1e-9 {
		t.Error("C_emb must equal C_mfg + C_des + C_HI")
	}
	if math.Abs(rep.TotalKg()-(rep.EmbodiedKg()+rep.OperationalKg)) > 1e-9 {
		t.Error("C_tot must equal C_emb + C_op")
	}
	var sumMfg float64
	for _, c := range rep.Chiplets {
		sumMfg += c.MfgKg
	}
	if math.Abs(sumMfg-rep.MfgKg) > 1e-9 {
		t.Error("system C_mfg must equal the per-chiplet sum")
	}
	if rep.OperationalKg <= 0 {
		t.Error("operational carbon should be positive with a spec")
	}
}

// Section V-A headline: the HI system with mixed nodes (7,14,10) has
// lower embodied carbon than the 7nm monolith, and the best tuple is
// (7,14,10) rather than all-advanced or all-old.
func TestMixAndMatchBeatsMonolith(t *testing.T) {
	mono, err := monolith(7).Evaluate(db())
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := threeChiplet(7, 14, 10).Evaluate(db())
	if err != nil {
		t.Fatal(err)
	}
	if mixed.EmbodiedKg() >= mono.EmbodiedKg() {
		t.Errorf("HI (7,14,10) C_emb %.1f should beat monolith %.1f",
			mixed.EmbodiedKg(), mono.EmbodiedKg())
	}
	// (10,10,10) moves the digital block to a larger-area node: worse
	// than the monolith (the paper's Fig. 7a observation).
	all10, err := threeChiplet(10, 10, 10).Evaluate(db())
	if err != nil {
		t.Fatal(err)
	}
	if all10.MfgKg+all10.HIKg <= mono.MfgKg {
		t.Errorf("(10,10,10) C_mfg+C_HI %.1f should exceed monolith C_mfg %.1f",
			all10.MfgKg+all10.HIKg, mono.MfgKg)
	}
}

// Fig. 7(c): ACT underestimates C_emb because it omits design carbon,
// wastage and real package assembly.
func TestACTUnderestimates(t *testing.T) {
	for _, s := range []*System{monolith(7), threeChiplet(7, 14, 10), threeChiplet(7, 7, 7)} {
		rep, err := s.Evaluate(db())
		if err != nil {
			t.Fatal(err)
		}
		actKg, err := s.ACTEmbodiedKg(db())
		if err != nil {
			t.Fatal(err)
		}
		if actKg >= rep.EmbodiedKg() {
			t.Errorf("%s: ACT %.1f should be below ECO-CHIP %.1f", s.Name, actKg, rep.EmbodiedKg())
		}
	}
}

func TestReusedChipletSkipsDesignCarbon(t *testing.T) {
	s := threeChiplet(7, 14, 10)
	fresh, err := s.Evaluate(db())
	if err != nil {
		t.Fatal(err)
	}
	s.Chiplets[1].Reused = true
	s.Chiplets[2].Reused = true
	reused, err := s.Evaluate(db())
	if err != nil {
		t.Fatal(err)
	}
	if reused.DesignKg >= fresh.DesignKg {
		t.Errorf("reusing chiplets should cut design carbon: %.2f vs %.2f",
			reused.DesignKg, fresh.DesignKg)
	}
	if reused.MfgKg != fresh.MfgKg {
		t.Error("reuse must not change manufacturing carbon")
	}
	if reused.Chiplets[1].DesignKgAmortized != 0 {
		t.Error("reused chiplet should carry zero design carbon")
	}
}

func TestVolumeAmortizesDesign(t *testing.T) {
	lowVol := threeChiplet(7, 14, 10)
	lowVol.SystemVolume = 1_000
	for i := range lowVol.Chiplets {
		lowVol.Chiplets[i].ManufacturedParts = 1_000
	}
	highVol := threeChiplet(7, 14, 10)
	highVol.SystemVolume = 10_000_000
	for i := range highVol.Chiplets {
		highVol.Chiplets[i].ManufacturedParts = 10_000_000
	}
	lo, err := lowVol.Evaluate(db())
	if err != nil {
		t.Fatal(err)
	}
	hi, err := highVol.Evaluate(db())
	if err != nil {
		t.Fatal(err)
	}
	if hi.DesignKg >= lo.DesignKg {
		t.Errorf("10M-part design carbon %.3f should be far below 1k-part %.3f",
			hi.DesignKg, lo.DesignKg)
	}
	if math.Abs(hi.MfgKg-lo.MfgKg) > 1e-9 {
		t.Error("volume must not change manufacturing carbon")
	}
}

func TestWithNodes(t *testing.T) {
	s := threeChiplet(7, 7, 7)
	s2, err := s.WithNodes(7, 14, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Chiplets[1].NodeNm != 14 || s2.Chiplets[2].NodeNm != 10 {
		t.Error("WithNodes did not retarget")
	}
	if s.Chiplets[1].NodeNm != 7 {
		t.Error("WithNodes must not mutate the original")
	}
	if _, err := s.WithNodes(7, 14); err == nil {
		t.Error("wrong node count should fail")
	}
}

func TestRouterPowerFeedsOperational(t *testing.T) {
	s := threeChiplet(7, 14, 10)
	s.Packaging = pkgcarbon.DefaultParams(pkgcarbon.PassiveInterposer)
	s.Operation = &opcarbon.Spec{
		DutyCycle: 0.2, LifetimeYears: 2, CarbonIntensity: 0.7, AnnualEnergyKWh: 228,
	}
	withNoC, err := s.Evaluate(db())
	if err != nil {
		t.Fatal(err)
	}
	if withNoC.RouterPowerW <= 0 {
		t.Fatal("passive interposer should report router power")
	}
	rdl := threeChiplet(7, 14, 10)
	rdl.Operation = s.Operation
	plain, err := rdl.Evaluate(db())
	if err != nil {
		t.Fatal(err)
	}
	if withNoC.OperationalKg <= plain.OperationalKg {
		t.Errorf("NoC power should raise operational carbon: %.2f vs %.2f",
			withNoC.OperationalKg, plain.OperationalKg)
	}
}

func TestSingleChipletActsAsMonolith(t *testing.T) {
	ref := db().MustGet(7)
	s := &System{
		Name:     "solo",
		Chiplets: []Chiplet{BlockFromArea("die", tech.Logic, 100, ref, 7)},
		Mfg:      mfg.DefaultParams(),
		Design:   descarbon.DefaultParams(),
	}
	rep, err := s.Evaluate(db())
	if err != nil {
		t.Fatal(err)
	}
	if rep.HIKg != 0 {
		t.Error("single-chiplet system should have no packaging carbon")
	}
}

func TestCostUSDIntegration(t *testing.T) {
	s := threeChiplet(7, 14, 10)
	b, err := s.CostUSD(db(), defaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	if b.DiesUSD <= 0 || b.AssemblyUSD <= 0 || b.NREUSD <= 0 {
		t.Errorf("cost components should be positive: %+v", b)
	}
	// Monolith: cheaper assembly but pricier silicon.
	mono, err := monolith(7).CostUSD(db(), defaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	if mono.AssemblyUSD >= b.AssemblyUSD {
		t.Errorf("monolithic assembly $%.2f should be below HI assembly $%.2f",
			mono.AssemblyUSD, b.AssemblyUSD)
	}
	if mono.DiesUSD <= b.DiesUSD {
		t.Errorf("monolithic die cost $%.2f should exceed HI die cost $%.2f",
			mono.DiesUSD, b.DiesUSD)
	}
}
