package yieldmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDieKnownValues(t *testing.T) {
	cases := []struct {
		areaMM2, d0, want float64
	}{
		// Hand-computed: A=100mm^2=1cm^2, D0=0.3, alpha=3:
		// (1 + 0.1)^-3 = 1/1.331
		{100, 0.3, 1 / 1.331},
		// Zero area: perfect yield.
		{0, 0.3, 1},
		// Zero defects: perfect yield.
		{500, 0, 1},
		// A=300mm^2=3cm^2, D0=0.2: (1 + 0.2)^-3 = 1/1.728
		{300, 0.2, 1 / 1.728},
	}
	for _, c := range cases {
		got := Die(c.areaMM2, c.d0)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Die(%g, %g) = %.9f, want %.9f", c.areaMM2, c.d0, got, c.want)
		}
	}
}

func TestDieAlphaInfinityLimit(t *testing.T) {
	// As alpha grows the negative binomial approaches the Poisson model
	// exp(-A*D0).
	areaMM2, d0 := 200.0, 0.2
	poisson := math.Exp(-(areaMM2 / 100) * d0)
	nb := DieAlpha(areaMM2, d0, 1e7)
	if math.Abs(nb-poisson) > 1e-6 {
		t.Errorf("large-alpha NB = %.9f, Poisson = %.9f; should converge", nb, poisson)
	}
}

func TestDiePanicsOnBadInput(t *testing.T) {
	for name, f := range map[string]func(){
		"negative area":    func() { Die(-1, 0.1) },
		"negative defects": func() { Die(1, -0.1) },
		"zero alpha":       func() { DieAlpha(1, 0.1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: yield is in (0, 1] and monotone decreasing in both area and
// defect density.
func TestDieProperties(t *testing.T) {
	inRange := func(a, d uint16) bool {
		area := float64(a%2000) + 1 // 1..2000 mm^2
		d0 := 0.07 + float64(d%100)/400
		y := Die(area, d0)
		return y > 0 && y <= 1
	}
	if err := quick.Check(inRange, nil); err != nil {
		t.Error(err)
	}
	monoArea := func(a, d uint16) bool {
		area := float64(a%2000) + 1
		d0 := 0.07 + float64(d%100)/400
		return Die(area+50, d0) < Die(area, d0)
	}
	if err := quick.Check(monoArea, nil); err != nil {
		t.Errorf("yield not monotone decreasing in area: %v", err)
	}
	monoD0 := func(a, d uint16) bool {
		area := float64(a%2000) + 1
		d0 := 0.07 + float64(d%100)/400
		return Die(area, d0+0.05) < Die(area, d0)
	}
	if err := quick.Check(monoD0, nil); err != nil {
		t.Errorf("yield not monotone decreasing in defect density: %v", err)
	}
}

// Splitting a die into two halves lowers the silicon spent per good
// system: 2*(A/2)/Y(A/2) < A/Y(A), because Y(A/2) > Y(A). This is the
// core HI advantage the paper builds on (Fig. 2). Note the compound
// probability Y(A/2)^2 is *not* better than Y(A) under negative-binomial
// clustering; the win is in discarded area, which is what C_mfg ~ A/Y
// captures.
func TestSplittingImprovesYieldPerArea(t *testing.T) {
	f := func(a, d uint16) bool {
		area := float64(a%1500) + 10
		d0 := 0.07 + float64(d%100)/400
		wholeCost := area / Die(area, d0)
		splitCost := 2 * (area / 2) / Die(area/2, d0)
		return Die(area/2, d0) > Die(area, d0) && splitCost < wholeCost
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLayered(t *testing.T) {
	if got := Layered(0.9, 3); math.Abs(got-0.729) > 1e-12 {
		t.Errorf("Layered(0.9, 3) = %g, want 0.729", got)
	}
	if got := Layered(0.9, 0); got != 1 {
		t.Errorf("Layered(0.9, 0) = %g, want 1", got)
	}
	for name, f := range map[string]func(){
		"yield > 1":       func() { Layered(1.1, 2) },
		"negative layers": func() { Layered(0.9, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBondYieldFromPitch(t *testing.T) {
	// Larger pitches bond more reliably (Fig. 11d trend).
	if BondYieldFromPitch(10) >= BondYieldFromPitch(45) {
		t.Error("bond yield should increase with pitch")
	}
	// Clamping.
	if BondYieldFromPitch(0.5) != BondYieldFromPitch(1) {
		t.Error("pitch below 1um should clamp")
	}
	if BondYieldFromPitch(100) != BondYieldFromPitch(45) {
		t.Error("pitch above 45um should clamp")
	}
	f := func(p uint8) bool {
		y := BondYieldFromPitch(float64(p%45) + 1)
		return y >= 0.95 && y <= 0.999
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("zero pitch should panic")
		}
	}()
	BondYieldFromPitch(0)
}

// At alpha = 3 the yield takes a closed form instead of math.Pow; it
// must carry Pow's exact bits: over random Table I dies, over random
// base bit patterns in [1, cutoff) and past it, at b = 1 and around the
// cutoff, and for every other alpha.
func TestDieAlphaCubeMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	same := func(label string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %v (%#x), math.Pow %v (%#x)", label, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for i := 0; i < 200_000; i++ {
		area := rng.Float64() * 2000 // mm^2, past the largest reticle
		d0 := 0.07 + rng.Float64()*(0.3-0.07)
		same(fmt.Sprintf("Die(%v, %v)", area, d0), Die(area, d0), math.Pow(1+area/100*d0/3, -3))
	}
	// Above the cutoff 1/b^3 leaves the normal range, where the closed
	// form's rounding parts from Pow's: the bases there must take Pow.
	for _, span := range [][2]float64{{1, cubeCutoff}, {cubeCutoff, 1e104}} {
		lo, hi := math.Float64bits(span[0]), math.Float64bits(span[1])
		for i := 0; i < 200_000; i++ {
			b := math.Float64frombits(lo + rng.Uint64()%(hi-lo))
			same(fmt.Sprintf("b = %v", b), powNeg(b, 3), math.Pow(b, -3))
		}
	}
	below := math.Nextafter(cubeCutoff, 0)
	for _, b := range []float64{1, math.Nextafter(1, 2), below, cubeCutoff, math.Nextafter(cubeCutoff, math.Inf(1)), 1e300, math.Inf(1), math.NaN()} {
		same(fmt.Sprintf("b = %v", b), powNeg(b, 3), math.Pow(b, -3))
	}
	for _, alpha := range []float64{0.5, 1, 2, 2.999999, 3.000001, 4, 1e7} {
		for _, b := range []float64{1, 1.0625, 1.37, 12.5, below} {
			same(fmt.Sprintf("alpha %v, b = %v", alpha, b), powNeg(b, alpha), math.Pow(b, -alpha))
		}
	}
}
