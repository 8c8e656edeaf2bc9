package descarbon

import (
	"math"
	"testing"
	"testing/quick"

	"ecochip/internal/tech"
)

func n(nm int) *tech.Node { return tech.Default().MustGet(nm) }

func TestCalibrationPoint(t *testing.T) {
	// The paper's measurement: 700k gates in 7nm take 24 CPU-hours.
	got := SPRHours(700_000, n(7))
	if math.Abs(got-24) > 1e-9 {
		t.Errorf("SPRHours(700k, 7nm) = %g, want 24", got)
	}
}

func TestGA102Magnitude(t *testing.T) {
	// Section V-A(2): GA102 has over 4.5B logic gates, so
	// t_SP&R ~ 1.5e5 CPU-hours at 7nm.
	hours := SPRHours(4.5e9, n(7))
	if hours < 1.0e5 || hours > 2.0e5 {
		t.Errorf("SPRHours(4.5e9, 7nm) = %g, want ~1.5e5", hours)
	}
}

func TestSPRScalesLinearly(t *testing.T) {
	f := func(g uint32) bool {
		gates := float64(g%10_000_000) + 1
		return math.Abs(SPRHours(2*gates, n(7))-2*SPRHours(gates, n(7))) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOlderNodesDesignFaster(t *testing.T) {
	// EDA productivity improves on mature nodes (Section III-E).
	sizes := tech.DefaultSizes()
	for i := 1; i < len(sizes); i++ {
		newer := SPRHours(1e6, n(sizes[i-1]))
		older := SPRHours(1e6, n(sizes[i]))
		if older >= newer {
			t.Errorf("SP&R at %dnm (%g h) should be faster than %dnm (%g h)",
				sizes[i], older, sizes[i-1], newer)
		}
	}
}

func TestSPRHoursPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative gates should panic")
		}
	}()
	SPRHours(-1, n(7))
}

func TestSinglePassKg(t *testing.T) {
	// 24h * 10W = 0.24 kWh; * 0.7 kg/kWh = 0.168 kg.
	kg, err := SinglePassKg(700_000, n(7), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(kg-0.168) > 1e-9 {
		t.Errorf("SinglePassKg = %g, want 0.168", kg)
	}
}

func TestVerificationDominates(t *testing.T) {
	// With VerifShare = 0.8, verification must be 80% of TotalHours.
	p := DefaultParams()
	total := TotalHours(1e6, n(7), p)
	spr := SPRHours(1e6, n(7))
	impl := spr * (1 + p.AnalyzeFactor) * float64(p.Iterations)
	verif := total - impl
	if math.Abs(verif/total-0.8) > 1e-9 {
		t.Errorf("verification share = %g, want 0.8", verif/total)
	}
}

func TestChipletKgScalesWithIterations(t *testing.T) {
	p1 := DefaultParams()
	p2 := DefaultParams()
	p2.Iterations = 200
	k1, err := ChipletKg(1e6, n(7), p1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ChipletKg(1e6, n(7), p2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k2/k1-2) > 1e-9 {
		t.Errorf("doubling iterations should double design carbon, ratio = %g", k2/k1)
	}
}

func TestAmortization(t *testing.T) {
	got, err := AmortizedKg(1000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.01) > 1e-12 {
		t.Errorf("AmortizedKg = %g, want 0.01", got)
	}
	if _, err := AmortizedKg(1000, 0); err == nil {
		t.Error("zero parts should fail")
	}
}

// Property: amortized carbon is monotone decreasing in volume (Fig. 12a).
func TestAmortizationMonotone(t *testing.T) {
	f := func(v uint16) bool {
		vol := int(v) + 1
		a, err1 := AmortizedKg(5000, vol)
		b, err2 := AmortizedKg(5000, vol*10)
		return err1 == nil && err2 == nil && b < a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.PowerW = 0 },
		func(p *Params) { p.Iterations = 0 },
		func(p *Params) { p.CarbonIntensity = 1 },
		func(p *Params) { p.VerifShare = 1 },
		func(p *Params) { p.AnalyzeFactor = -1 },
	}
	for i, f := range bad {
		p := DefaultParams()
		f(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
	if _, err := SinglePassKg(1e6, n(7), Params{}); err == nil {
		t.Error("zero params should fail")
	}
	if _, err := ChipletKg(1e6, n(7), Params{}); err == nil {
		t.Error("zero params should fail")
	}
}

func TestGatesFromTransistors(t *testing.T) {
	if got := GatesFromTransistors(4e9); got != 1e9 {
		t.Errorf("GatesFromTransistors(4e9) = %g, want 1e9", got)
	}
}
