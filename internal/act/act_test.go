package act

import (
	"math"
	"testing"

	"ecochip/internal/tech"
	"ecochip/internal/yieldmodel"
)

func n7() *tech.Node { return tech.Default().MustGet(7) }

// coalParams is the ECO-CHIP comparison setup: a coal-powered fab.
func coalParams() Params {
	return Params{CarbonIntensity: 0.700, Alpha: yieldmodel.DefaultAlpha}
}

func TestDieKgKnownValue(t *testing.T) {
	// 100 mm^2 at 7nm: cfpa = (0.7*3.5 + 0.4 + 0.5)/Y, area 1 cm^2.
	y := yieldmodel.Die(100, n7().DefectDensity)
	want := (0.7*3.5 + 0.4 + 0.5) / y
	got, err := DieKg(Die{AreaMM2: 100, Node: n7()}, coalParams())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("DieKg = %g, want %g", got, want)
	}
}

func TestSystemKgAddsFixedPackage(t *testing.T) {
	d := Die{AreaMM2: 100, Node: n7()}
	one, err := DieKg(d, coalParams())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := SystemKg([]Die{d, d}, coalParams())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sys-(2*one+FixedPackageKg)) > 1e-9 {
		t.Errorf("SystemKg = %g, want %g", sys, 2*one+FixedPackageKg)
	}
}

// ACT's package term is constant: it does not grow with package area or
// chiplet count beyond the dies themselves — the inaccuracy Fig. 7(c)
// highlights.
func TestFixedPackageRegardlessOfCount(t *testing.T) {
	mk := func(count int) float64 {
		dies := make([]Die, count)
		for i := range dies {
			dies[i] = Die{AreaMM2: 300 / float64(count), Node: n7()}
		}
		sys, err := SystemKg(dies, coalParams())
		if err != nil {
			t.Fatal(err)
		}
		var diesOnly float64
		for _, d := range dies {
			kg, _ := DieKg(d, coalParams())
			diesOnly += kg
		}
		return sys - diesOnly
	}
	if p2, p6 := mk(2), mk(6); math.Abs(p2-p6) > 1e-9 || math.Abs(p2-FixedPackageKg) > 1e-9 {
		t.Errorf("ACT package term must be fixed at %g, got %g and %g", FixedPackageKg, p2, p6)
	}
}

// ACT must sit below the ECO-CHIP formulation for the same die because it
// omits the wafer-wastage term and adds only 150 g for packaging. We
// check the ingredient property here (no derate means *higher* energy
// term but no wastage and tiny package) and leave the full system
// comparison to the integration tests.
func TestNoEquipmentDerate(t *testing.T) {
	// ACT applies no eta_eq derate: its energy term is Csrc*EPA, not
	// eta_eq*Csrc*EPA. At 7nm eta_eq = 1.0 so the per-area values agree.
	n := n7()
	y := yieldmodel.Die(100, n.DefectDensity)
	got, err := DieKg(Die{AreaMM2: 100, Node: n}, coalParams())
	if err != nil {
		t.Fatal(err)
	}
	ecoLike := (n.EquipEfficiency*0.7*n.EPA + n.GasCFP + n.MaterialCFP) / y
	if math.Abs(got-ecoLike) > 1e-9 {
		t.Errorf("at 7nm (eta_eq=1) ACT and ECO die CFP should coincide: %g vs %g", got, ecoLike)
	}
	// At 65nm eta_eq = 0.6, so ACT over-counts the energy term.
	n65 := tech.Default().MustGet(65)
	act65, err := DieKg(Die{AreaMM2: 100, Node: n65}, coalParams())
	if err != nil {
		t.Fatal(err)
	}
	y65 := yieldmodel.Die(100, n65.DefectDensity)
	eco65 := (n65.EquipEfficiency*0.7*n65.EPA + n65.GasCFP + n65.MaterialCFP) / y65
	if act65 <= eco65 {
		t.Errorf("ACT at 65nm (%g) should exceed the derated ECO formulation (%g)", act65, eco65)
	}
}

func TestErrors(t *testing.T) {
	p := coalParams()
	if _, err := DieKg(Die{AreaMM2: 0, Node: n7()}, p); err == nil {
		t.Error("zero area should fail")
	}
	if _, err := DieKg(Die{AreaMM2: 100}, p); err == nil {
		t.Error("nil node should fail")
	}
	if _, err := SystemKg(nil, p); err == nil {
		t.Error("empty system should fail")
	}
	bad := p
	bad.CarbonIntensity = 9
	if _, err := DieKg(Die{AreaMM2: 100, Node: n7()}, bad); err == nil {
		t.Error("bad intensity should fail")
	}
	bad = p
	bad.Alpha = 0
	if _, err := DieKg(Die{AreaMM2: 100, Node: n7()}, bad); err == nil {
		t.Error("bad alpha should fail")
	}
	if _, err := SystemKg([]Die{{AreaMM2: -1, Node: n7()}}, p); err == nil {
		t.Error("bad die inside system should fail")
	}
}
