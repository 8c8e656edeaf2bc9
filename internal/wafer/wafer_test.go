package wafer

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default wafer invalid: %v", err)
	}
	for _, d := range []float64{10, 500, 0, -5} {
		if err := (Wafer{DiameterMM: d}).Validate(); err == nil {
			t.Errorf("Validate should reject diameter %g", d)
		}
	}
	for _, d := range []float64{25, 300, 450} {
		if err := (Wafer{DiameterMM: d}).Validate(); err != nil {
			t.Errorf("Validate should accept diameter %g: %v", d, err)
		}
	}
}

func TestAreaMM2(t *testing.T) {
	w := Wafer{DiameterMM: 300}
	want := math.Pi * 150 * 150
	if got := w.AreaMM2(); math.Abs(got-want) > 1e-9 {
		t.Errorf("AreaMM2 = %g, want %g", got, want)
	}
}

func TestDiesPerWaferKnownValue(t *testing.T) {
	// 450mm wafer, 100mm^2 die: side=10, usable radius = 225 - 10/sqrt(2)
	// = 217.9289; DPW = floor(pi*r^2/100) = floor(1491.85...) = 1491.
	w := Default()
	r := 225 - 10/math.Sqrt2
	want := int(math.Floor(math.Pi * r * r / 100))
	if got := w.DiesPerWafer(100); got != want {
		t.Errorf("DiesPerWafer(100) = %d, want %d", got, want)
	}
}

func TestDiesPerWaferTooLarge(t *testing.T) {
	w := Wafer{DiameterMM: 25}
	// A die with side length > diameter*sqrt(2)/2 cannot fit.
	if got := w.DiesPerWafer(2500); got != 0 {
		t.Errorf("oversized die should give DPW 0, got %d", got)
	}
	if _, _, err := w.Layout(2500); err == nil {
		t.Error("Layout should error when die does not fit")
	}
}

func TestDiesPerWaferPanicsOnNonPositiveArea(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero area should panic")
		}
	}()
	Default().DiesPerWafer(0)
}

// Property: DPW is monotone non-increasing in die area.
func TestDPWMonotone(t *testing.T) {
	w := Default()
	f := func(a uint16) bool {
		area := float64(a%1000) + 1
		return w.DiesPerWafer(area+10) <= w.DiesPerWafer(area)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: wasted area per die is non-negative, and total accounting is
// exact: DPW*A_die + DPW*A_wasted == A_wafer.
func TestWastedAreaAccounting(t *testing.T) {
	w := Default()
	f := func(a uint16) bool {
		area := float64(a%800) + 1
		n, wasted, err := w.Layout(area)
		if err != nil || wasted < 0 || n != w.DiesPerWafer(area) {
			return false
		}
		dpw := float64(n)
		total := dpw*area + dpw*wasted
		return math.Abs(total-w.AreaMM2()) < 1e-6*w.AreaMM2()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Smaller dies waste less periphery per die: the Fig. 3 effect. Checked on
// a coarse grid rather than per-mm^2 because floor() makes the function
// locally non-monotone.
func TestSmallerDiesWasteLess(t *testing.T) {
	w := Default()
	areas := []float64{25, 100, 225, 400, 625}
	prev := -1.0
	for _, a := range areas {
		_, wasted, err := w.Layout(a)
		if err != nil {
			t.Fatalf("Layout(%g): %v", a, err)
		}
		if wasted < prev {
			t.Errorf("wasted area per die at %g mm^2 (%g) should exceed smaller-die value (%g)", a, wasted, prev)
		}
		prev = wasted
	}
}

// The dies DiesPerWafer places cover less than the wafer, and smaller
// dies cover more of it (the periphery effect Fig. 3 of the paper
// builds on).
func TestUtilizationFraction(t *testing.T) {
	w := Default()
	utilization := func(a float64) float64 { return float64(w.DiesPerWafer(a)) * a / w.AreaMM2() }
	small, big := utilization(25), utilization(625)
	if !(small > big) {
		t.Errorf("smaller dies should utilize the wafer better: %g vs %g", small, big)
	}
	f := func(a uint16) bool {
		u := utilization(float64(a%1000) + 1)
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
