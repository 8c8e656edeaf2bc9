package mfg

import (
	"math"
	"testing"
	"testing/quick"

	"ecochip/internal/tech"
	"ecochip/internal/wafer"
	"ecochip/internal/yieldmodel"
)

func n7() *tech.Node { return tech.Default().MustGet(7) }

func TestDieKnownValue(t *testing.T) {
	// Hand computation for a 100 mm^2 (1 cm^2) logic die at 7nm with
	// wastage disabled:
	//   raw = eta_eq*Csrc*EPA + gas + material
	//       = 1.0*0.7*3.5 + 0.40 + 0.5 = 3.35 kg/cm^2
	//   Y   = (1 + 1*0.2/3)^-3
	//   C   = 3.35 / Y * 1 cm^2
	p := DefaultParams()
	p.IncludeWastage = false
	res, err := Die(n7(), tech.Logic, 100, p)
	if err != nil {
		t.Fatal(err)
	}
	wantY := math.Pow(1+0.2/3, -3)
	if math.Abs(res.Yield-wantY) > 1e-12 {
		t.Errorf("yield = %g, want %g", res.Yield, wantY)
	}
	want := 3.35 / wantY
	if math.Abs(res.TotalKg()-want) > 1e-9 {
		t.Errorf("TotalKg = %g, want %g", res.TotalKg(), want)
	}
	if res.WastageKg != 0 {
		t.Errorf("wastage disabled but WastageKg = %g", res.WastageKg)
	}
}

func TestDieWastageTerm(t *testing.T) {
	p := DefaultParams()
	res, err := Die(n7(), tech.Logic, 100, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.WastageKg <= 0 {
		t.Fatal("wastage term should be positive")
	}
	// The wastage term is raw (unyielded) carbon on the wasted area.
	_, wasted, err := p.Wafer.Layout(100)
	if err != nil {
		t.Fatal(err)
	}
	raw := 1.0*0.7*3.5 + 0.40 + 0.5
	want := raw * wasted / 100
	if math.Abs(res.WastageKg-want) > 1e-9 {
		t.Errorf("WastageKg = %g, want %g", res.WastageKg, want)
	}
	if res.DiesPerWafer != p.Wafer.DiesPerWafer(100) {
		t.Errorf("DiesPerWafer = %d, want %d", res.DiesPerWafer, p.Wafer.DiesPerWafer(100))
	}
}

func TestDieErrors(t *testing.T) {
	p := DefaultParams()
	if _, err := Die(n7(), tech.Logic, 0, p); err == nil {
		t.Error("zero area should fail")
	}
	bad := p
	bad.CarbonIntensity = 5
	if _, err := Die(n7(), tech.Logic, 100, bad); err == nil {
		t.Error("out-of-range carbon intensity should fail")
	}
	bad = p
	bad.Alpha = 0
	if _, err := Die(n7(), tech.Logic, 100, bad); err == nil {
		t.Error("zero alpha should fail")
	}
	bad = p
	bad.DefectDensityOverride = 0.9
	if _, err := Die(n7(), tech.Logic, 100, bad); err == nil {
		t.Error("out-of-range defect override should fail")
	}
	bad = p
	bad.Wafer = wafer.Wafer{DiameterMM: 10}
	if _, err := Die(n7(), tech.Logic, 100, bad); err == nil {
		t.Error("invalid wafer should fail")
	}
	// Die larger than the wafer's usable region.
	small := p
	small.Wafer = wafer.Wafer{DiameterMM: 25}
	if _, err := Die(n7(), tech.Logic, 2500, small); err == nil {
		t.Error("oversized die should fail when wastage is modeled")
	}
}

func TestDefectDensityOverride(t *testing.T) {
	p := DefaultParams()
	p.IncludeWastage = false
	p.DefectDensityOverride = 0.3
	res, err := Die(n7(), tech.Logic, 100, p)
	if err != nil {
		t.Fatal(err)
	}
	want := yieldmodel.Die(100, 0.3)
	if math.Abs(res.Yield-want) > 1e-12 {
		t.Errorf("yield with override = %g, want %g", res.Yield, want)
	}
}

// Fig. 2(a): manufacturing CFP grows super-linearly with area because of
// yield loss.
func TestCFPSuperlinearInArea(t *testing.T) {
	p := DefaultParams()
	p.IncludeWastage = false
	n := tech.Default().MustGet(10)
	c100, err := Die(n, tech.Logic, 100, p)
	if err != nil {
		t.Fatal(err)
	}
	c200, err := Die(n, tech.Logic, 200, p)
	if err != nil {
		t.Fatal(err)
	}
	if c200.TotalKg() <= 2*c100.TotalKg() {
		t.Errorf("CFP(200mm^2)=%g should exceed 2*CFP(100mm^2)=%g (yield superlinearity)",
			c200.TotalKg(), 2*c100.TotalKg())
	}
}

// Renewable fabs have strictly lower manufacturing carbon than coal fabs.
func TestEnergySourceMatters(t *testing.T) {
	coal, renewable := DefaultParams(), DefaultParams()
	renewable.CarbonIntensity = IntensityRenewable
	rc, err := Die(n7(), tech.Logic, 100, coal)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Die(n7(), tech.Logic, 100, renewable)
	if err != nil {
		t.Fatal(err)
	}
	if rr.TotalKg() >= rc.TotalKg() {
		t.Errorf("renewable CFP %g should be below coal CFP %g", rr.TotalKg(), rc.TotalKg())
	}
	// Gas and material terms remain, so the ratio is bounded away from
	// the intensity ratio alone.
	if rr.TotalKg() < rc.TotalKg()*IntensityRenewable/IntensityCoal {
		t.Error("non-energy CFP terms should survive a renewable grid")
	}
}

// Property: manufacturing carbon is positive and monotone increasing in
// area for all nodes and design types.
func TestMonotoneInArea(t *testing.T) {
	p := DefaultParams()
	db := tech.Default()
	f := func(a uint16, nodeIdx, dt uint8) bool {
		sizes := db.Sizes()
		n := db.MustGet(sizes[int(nodeIdx)%len(sizes)])
		d := tech.DesignTypes[int(dt)%len(tech.DesignTypes)]
		area := float64(a%600) + 1
		r1, err1 := Die(n, d, area, p)
		r2, err2 := Die(n, d, area+10, p)
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.TotalKg() > 0 && r2.TotalKg() > r1.TotalKg()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// CFPA (per-area carbon) must be lower for older nodes at equal area: they
// have lower EPA, lower defects, lower equipment derate (Section II-A(2)).
func TestOlderNodesCheaperPerArea(t *testing.T) {
	p := DefaultParams()
	p.IncludeWastage = false
	db := tech.Default()
	sizes := db.Sizes()
	for i := 1; i < len(sizes); i++ {
		newer, err := Die(db.MustGet(sizes[i-1]), tech.Logic, 100, p)
		if err != nil {
			t.Fatal(err)
		}
		older, err := Die(db.MustGet(sizes[i]), tech.Logic, 100, p)
		if err != nil {
			t.Fatal(err)
		}
		if older.CFPAKgPerCM2 >= newer.CFPAKgPerCM2 {
			t.Errorf("CFPA at %dnm (%g) should be below %dnm (%g)",
				sizes[i], older.CFPAKgPerCM2, sizes[i-1], newer.CFPAKgPerCM2)
		}
	}
}

// But the same *transistor budget* in an older node may cost more because
// the area balloons: the tradeoff ECO-CHIP exists to navigate. Verify the
// crossover exists for logic: 65nm logic die carbon for a large block
// exceeds the 7nm version.
func TestNodeAreaTradeoffForLogic(t *testing.T) {
	// dieFor sizes the die from the node's area-scaling model.
	dieFor := func(n *tech.Node, d tech.DesignType, transistors float64, p Params) (Result, error) {
		return Die(n, d, n.Area(d, transistors), p)
	}
	p := DefaultParams()
	p.IncludeWastage = false
	db := tech.Default()
	const transistors = 10e9
	new7, err := dieFor(db.MustGet(7), tech.Logic, transistors, p)
	if err != nil {
		t.Fatal(err)
	}
	old65, err := dieFor(db.MustGet(65), tech.Logic, transistors, p)
	if err != nil {
		t.Fatal(err)
	}
	if old65.TotalKg() <= new7.TotalKg() {
		t.Errorf("10B logic transistors at 65nm (%g kg) should out-emit 7nm (%g kg): area blow-up dominates",
			old65.TotalKg(), new7.TotalKg())
	}
	// Analog barely scales, so moving analog to an older node should be
	// roughly area-neutral and carbon-cheaper.
	newA, err := dieFor(db.MustGet(7), tech.Analog, 1e9, p)
	if err != nil {
		t.Fatal(err)
	}
	oldA, err := dieFor(db.MustGet(14), tech.Analog, 1e9, p)
	if err != nil {
		t.Fatal(err)
	}
	if oldA.TotalKg() >= newA.TotalKg() {
		t.Errorf("analog at 14nm (%g kg) should be cheaper than 7nm (%g kg)",
			oldA.TotalKg(), newA.TotalKg())
	}
}

func TestWastageIncreasesWithDieSize(t *testing.T) {
	p := DefaultParams()
	n := n7()
	small, err := Die(n, tech.Logic, 50, p)
	if err != nil {
		t.Fatal(err)
	}
	large, err := Die(n, tech.Logic, 500, p)
	if err != nil {
		t.Fatal(err)
	}
	if large.WastedAreaMM2 <= small.WastedAreaMM2 {
		t.Errorf("per-die wasted area for 500mm^2 (%g) should exceed 50mm^2 (%g)",
			large.WastedAreaMM2, small.WastedAreaMM2)
	}
}

func TestValidateAcceptsPresets(t *testing.T) {
	for _, ci := range []float64{IntensityCoal, IntensityGas, IntensityWorldGrid, IntensityRenewable} {
		p := DefaultParams()
		p.CarbonIntensity = ci
		if err := p.Validate(); err != nil {
			t.Errorf("intensity preset %g rejected: %v", ci, err)
		}
	}
}
