package core_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ecochip/internal/core"
	"ecochip/internal/descarbon"
	"ecochip/internal/mfg"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// The property tests live in an external test package so they can draw
// systems from testcases.Random, which imports core.

func db() *tech.DB { return tech.Default() }

// randomSystem builds a valid HI system from fuzz inputs: 2-6 chiplets
// with bounded transistor budgets, node assignments from the supported
// set, and one of the 2D packaging architectures.
func randomSystem(seed []uint16) *core.System {
	if len(seed) < 3 {
		return nil
	}
	sizes := []int{7, 10, 14, 22, 28, 40, 65}
	archs := []pkgcarbon.Architecture{
		pkgcarbon.RDLFanout, pkgcarbon.SiliconBridge,
		pkgcarbon.PassiveInterposer, pkgcarbon.ActiveInterposer,
	}
	n := 2 + int(seed[0])%5
	chiplets := make([]core.Chiplet, 0, n)
	for i := 0; i < n; i++ {
		v := seed[i%len(seed)]
		chiplets = append(chiplets, core.Chiplet{
			Name:        string(rune('a' + i)),
			Type:        tech.DesignTypes[int(v)%3],
			Transistors: float64(v%5000+100) * 1e6,
			NodeNm:      sizes[int(v>>3)%len(sizes)],
		})
	}
	return &core.System{
		Name:      "fuzz",
		Chiplets:  chiplets,
		Packaging: pkgcarbon.DefaultParams(archs[int(seed[1])%len(archs)]),
		Mfg:       mfg.DefaultParams(),
		Design:    descarbon.DefaultParams(),
	}
}

// Property: every valid random system evaluates without error, all
// carbon components are positive, every chiplet yield is in (0, 1], and
// the model identities hold (checkModelIdentities) — over quick-check
// systems and over testcases.Random, the generator of the
// compiled-vs-reference suites.
func TestEvaluatePropertyRandomSystems(t *testing.T) {
	d := db()
	f := func(seed []uint16) bool {
		s := randomSystem(seed)
		if s == nil {
			return true
		}
		rep, err := s.Evaluate(d)
		if err != nil {
			// Random systems only fail when a huge analog block in an
			// old node physically does not fit the wafer; that is a
			// correct rejection, not a model bug.
			return true
		}
		if rep.MfgKg <= 0 || rep.DesignKg <= 0 || rep.HIKg <= 0 {
			return false
		}
		for _, c := range rep.Chiplets {
			if c.Yield <= 0 || c.Yield > 1 || c.AreaMM2 <= 0 {
				return false
			}
		}
		return checkModelIdentities(t, d, s, rep)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}

	rng := rand.New(rand.NewSource(20261018))
	evaluated := 0
	for trial := 0; trial < 200; trial++ {
		s := testcases.Random(rng, d)
		rep, err := s.Evaluate(d)
		if err != nil {
			continue
		}
		evaluated++
		if !checkModelIdentities(t, d, s, rep) {
			t.Fatalf("trial %d (%s, %d chiplets): model identity violated", trial, s.Name, len(s.Chiplets))
		}
	}
	if evaluated < 150 {
		t.Fatalf("only %d of 200 testcases.Random systems evaluated", evaluated)
	}
}

// checkModelIdentities reports whether rep satisfies, bit for bit, the
// sums the model computes, and whether each die's C_mfg is monotone:
//   - Eq. 1, C_tot = C_emb + lifetime·C_op (OperationalKg holds the
//     lifetime operational term);
//   - Eq. 2, C_emb = C_mfg + C_des + C_HI, plus the optional NRE term;
//   - C_mfg is the per-die sum in chiplet order, each die's C_mfg is
//     mfg.Die's, and C_HI is the packaging result's total;
//   - each die's C_mfg does not fall when its area grows by 25% or its
//     node's defect density rises by 25%.
//
// It logs the first violation.
func checkModelIdentities(t *testing.T, d *tech.DB, s *core.System, rep *core.Report) bool {
	t.Helper()
	bits := math.Float64bits
	if got, want := rep.TotalKg(), rep.EmbodiedKg()+rep.OperationalKg; bits(got) != bits(want) {
		t.Logf("%s: Eq. 1: C_tot %v != C_emb + lifetime*C_op %v", s.Name, got, want)
		return false
	}
	if got, want := rep.EmbodiedKg(), rep.MfgKg+rep.DesignKg+rep.HIKg+rep.NREKg; bits(got) != bits(want) {
		t.Logf("%s: Eq. 2: C_emb %v != C_mfg + C_des + C_HI + NRE %v", s.Name, got, want)
		return false
	}
	hi := 0.0
	if rep.Packaging != nil {
		hi = rep.Packaging.TotalKg()
	}
	if bits(rep.HIKg) != bits(hi) {
		t.Logf("%s: C_HI %v != packaging total %v", s.Name, rep.HIKg, hi)
		return false
	}
	var sum float64
	for _, c := range rep.Chiplets {
		sum += c.MfgKg
		node := d.MustGet(c.NodeNm)
		die, err := mfg.Die(node, c.Type, c.AreaMM2, s.Mfg)
		if err != nil || bits(die.TotalKg()) != bits(c.MfgKg) {
			t.Logf("%s/%s: die C_mfg %v != mfg.Die %v (%v)", s.Name, c.Name, c.MfgKg, die.TotalKg(), err)
			return false
		}
		// A 25% larger die may no longer fit the wafer; that is a
		// rejection, not a decrease.
		if bigger, err := mfg.Die(node, c.Type, 1.25*c.AreaMM2, s.Mfg); err == nil && bigger.TotalKg() < c.MfgKg {
			t.Logf("%s/%s: C_mfg falls from %v to %v as area grows", s.Name, c.Name, c.MfgKg, bigger.TotalKg())
			return false
		}
		dirtier := *node
		dirtier.DefectDensity *= 1.25
		if worse, err := mfg.Die(&dirtier, c.Type, c.AreaMM2, s.Mfg); err != nil || worse.TotalKg() < c.MfgKg {
			t.Logf("%s/%s: C_mfg falls from %v to %v as defect density rises (%v)", s.Name, c.Name, c.MfgKg, worse.TotalKg(), err)
			return false
		}
	}
	if bits(sum) != bits(rep.MfgKg) {
		t.Logf("%s: C_mfg %v != per-die sum %v", s.Name, rep.MfgKg, sum)
		return false
	}
	return true
}

// Property: re-targeting every chiplet to its own node (identity
// WithNodes) reproduces the identical report.
func TestWithNodesIdentity(t *testing.T) {
	f := func(seed []uint16) bool {
		s := randomSystem(seed)
		if s == nil {
			return true
		}
		nodes := make([]int, len(s.Chiplets))
		for i, c := range s.Chiplets {
			nodes[i] = c.NodeNm
		}
		s2, err := s.WithNodes(nodes...)
		if err != nil {
			return false
		}
		r1, err1 := s.Evaluate(db())
		r2, err2 := s2.Evaluate(db())
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return math.Abs(r1.TotalKg()-r2.TotalKg()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: doubling every chiplet's manufacturing volume never raises
// the amortized design carbon.
func TestVolumeMonotonicityProperty(t *testing.T) {
	f := func(seed []uint16) bool {
		s := randomSystem(seed)
		if s == nil {
			return true
		}
		s2 := *s
		s2.Chiplets = make([]core.Chiplet, len(s.Chiplets))
		copy(s2.Chiplets, s.Chiplets)
		for i := range s2.Chiplets {
			s2.Chiplets[i].ManufacturedParts = 2 * core.DefaultVolume
		}
		s2.SystemVolume = 2 * core.DefaultVolume
		r1, err1 := s.Evaluate(db())
		r2, err2 := s2.Evaluate(db())
		if err1 != nil || err2 != nil {
			return true
		}
		return r2.DesignKg <= r1.DesignKg+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
