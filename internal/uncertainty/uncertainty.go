// Package uncertainty propagates input-parameter uncertainty through the
// ECO-CHIP carbon model. Section VII of the paper stresses that the tool
// "can generate numbers as accurate as the accuracy of the input
// parameters" — defect densities, design times and energy intensities are
// published only as ranges. This package runs a deterministic (seeded)
// Monte Carlo over those ranges and reports the resulting C_tot / C_emb
// distribution, so a result can be quoted with honest error bars instead
// of a single point.
//
// Sampling runs on a compiled parameter plan (kernel.ParamPlan): the
// base system is tabulated once, per run of identical chiplets, and each
// worker perturbs a private sandbox copy of the tech database per sample
// (no per-sample clone or re-validation). A sample walks the plan's runs
// and re-runs only the carbon steps the sampled parameters reach: die
// manufacturing on the tabulated wafer geometry, design carbon on the
// tabulated design hours, and the packaging communication cells on the
// tabulated router/PHY endpoints. The floorplan and package carbon are
// served from the tabulation, and every die yield takes the closed-form
// α = 3 path of yieldmodel.DieAlpha. Every sample draws from its own
// seed-derived RNG stream, so the distribution is bit-identical at any
// worker count and to the per-evaluation reference path (RunReference),
// which the randomized parity test enforces.
package uncertainty

import (
	"context"
	"fmt"
	"sort"

	"ecochip/internal/core"
	"ecochip/internal/engine"
	"ecochip/internal/kernel"
	"ecochip/internal/tech"
)

// Spread is the relative half-width applied to each sampled parameter
// (uniform distribution, clamped to Table I bounds).
type Spread struct {
	// DefectDensity, EPA, FabIntensity, DesignTime are relative
	// half-widths in [0, 0.5].
	DefectDensity float64
	EPA           float64
	FabIntensity  float64
	DesignTime    float64
}

// DefaultSpread reflects the coarse granularity of public sustainability
// data: +/-20% on defect density and EPA, +/-15% on energy intensity,
// +/-30% on design effort.
func DefaultSpread() Spread {
	return Spread{DefectDensity: 0.20, EPA: 0.20, FabIntensity: 0.15, DesignTime: 0.30}
}

// Validate bounds the spreads.
func (s Spread) Validate() error {
	for name, v := range map[string]float64{
		"defect density": s.DefectDensity, "EPA": s.EPA,
		"fab intensity": s.FabIntensity, "design time": s.DesignTime,
	} {
		if v < 0 || v > 0.5 {
			return fmt.Errorf("uncertainty: %s spread %g outside [0, 0.5]", name, v)
		}
	}
	return nil
}

// Distribution summarizes the sampled carbon values.
type Distribution struct {
	// Samples is the number of Monte Carlo trials.
	Samples int
	// MeanKg and the percentile cuts of the sampled metric.
	MeanKg, P5Kg, P50Kg, P95Kg float64
	// MinKg and MaxKg bound the samples.
	MinKg, MaxKg float64
}

// RelativeSpread is (P95-P5)/P50: the two-sided relative uncertainty.
func (d Distribution) RelativeSpread() float64 {
	if d.P50Kg == 0 {
		return 0
	}
	return (d.P95Kg - d.P5Kg) / d.P50Kg
}

// sampleStream is sample i's private random stream: a splitmix64
// sequence seeded from the run seed and the sample index. Each Monte
// Carlo trial owns an independent, index-addressed stream, so the
// sampled values do not depend on which worker draws them or in what
// order — the whole run is bit-reproducible at any parallelism. A
// sample makes at most four uniform draws; a dedicated splitmix64 walk
// costs a handful of integer ops per draw, where seeding a math/rand
// source per sample means filling its 607-word lagged-Fibonacci state —
// which profiled as the dominant cost of the entire compiled analysis.
type sampleStream struct{ state uint64 }

func newSampleStream(seed int64, i int) sampleStream {
	// Finalize (seed, i) into the stream's base state. Seeding with the
	// raw counter seed + γ·(i+1) would put adjacent samples on
	// overlapping arithmetic progressions of the splitmix64 counter —
	// sample i's draw k would equal sample i+1's draw k-1 bit for bit —
	// so the base state must be scattered through the finalizer first;
	// after that, distinct samples' short walks collide only with
	// ~2^-62 probability.
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return sampleStream{state: z ^ (z >> 31)}
}

func (s *sampleStream) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1) with 53 random bits (the
// same mantissa width math/rand's Float64 carries).
func (s *sampleStream) float64() float64 { return float64(s.next()>>11) / (1 << 53) }

// draw scales a parameter by a uniform factor in [1-rel, 1+rel); the
// draw order (defect density, EPA, fab intensity, design time) is part
// of the bit-reproducibility contract and must match on every
// evaluation path.
func (s *sampleStream) draw(rel float64) float64 {
	if rel == 0 {
		return 1
	}
	return 1 + rel*(2*s.float64()-1)
}

// RunCtx samples the system's embodied carbon n times with parameters
// drawn uniformly within the spread (seeded: identical inputs give
// identical distributions), with cancellation and engine options. It
// runs on a compiled parameter plan and is bit-identical to
// RunReference at any worker count.
func RunCtx(ctx context.Context, base *core.System, db *tech.DB, spread Spread, n int, seed int64, opts ...engine.Option) (Distribution, error) {
	d, _, err := RunPlanned(ctx, base, db, spread, n, seed, opts...)
	return d, err
}

// mcDirty is the dirty set of every Monte Carlo sample: the sampled
// parameters reach die manufacturing (defect density, EPA, fab
// intensity), design carbon (design compute power) and the packaging
// communication cells (per-node CFPA) — but never the chiplet areas, the
// floorplan, the package carbon or the amortization volumes.
const mcDirty = kernel.DirtyNodes | kernel.DirtyMfg | kernel.DirtyDesign

// RunPlanned is RunCtx also returning the compiled parameter plan the
// sampling ran on, so callers can surface plan statistics: each worker's
// counters are folded into plan.Stats when it finishes.
func RunPlanned(ctx context.Context, base *core.System, db *tech.DB, spread Spread, n int, seed int64, opts ...engine.Option) (Distribution, *kernel.ParamPlan, error) {
	if err := checkRun(base, db, spread, n); err != nil {
		return Distribution{}, nil, err
	}
	plan, err := kernel.CompileParams(base, db)
	if err != nil {
		return Distribution{}, nil, err
	}
	samples, err := engine.RunScratchRelease(ctx, n,
		plan.NewScratch, plan.Fold,
		func(_ context.Context, i int, sc *kernel.Scratch) (float64, error) {
			rng := newSampleStream(seed, i)
			d0Scale := rng.draw(spread.DefectDensity)
			epaScale := rng.draw(spread.EPA)
			dbi := sc.PerturbNodes(func(node *tech.Node) {
				node.DefectDensity = tech.Clamp(node.DefectDensity*d0Scale, 0.07, 0.3)
				node.EPA = tech.Clamp(node.EPA*epaScale, 0.8, 3.5)
			})
			s := *base
			s.Mfg.CarbonIntensity = tech.Clamp(s.Mfg.CarbonIntensity*rng.draw(spread.FabIntensity), 0.030, 0.700)
			s.Design.PowerW = s.Design.PowerW * rng.draw(spread.DesignTime)
			t, err := plan.Eval(sc, &s, dbi, mcDirty)
			if err != nil {
				return 0, err
			}
			return t.EmbodiedKg(), nil
		}, opts...)
	if err != nil {
		return Distribution{}, nil, err
	}
	return summarize(samples), plan, nil
}

// RunReference is the uncompiled Monte Carlo: every sample clones the
// technology database, re-validates the perturbed system and runs a full
// Evaluate. It is the oracle the compiled path is tested against and the
// baseline its speedup is measured against.
func RunReference(ctx context.Context, base *core.System, db *tech.DB, spread Spread, n int, seed int64, opts ...engine.Option) (Distribution, error) {
	if err := checkRun(base, db, spread, n); err != nil {
		return Distribution{}, err
	}
	samples, err := engine.Run(ctx, n, func(_ context.Context, i int) (float64, error) {
		rng := newSampleStream(seed, i)
		d0Scale := rng.draw(spread.DefectDensity)
		epaScale := rng.draw(spread.EPA)
		dbi, err := db.Clone(func(node *tech.Node) {
			node.DefectDensity = tech.Clamp(node.DefectDensity*d0Scale, 0.07, 0.3)
			node.EPA = tech.Clamp(node.EPA*epaScale, 0.8, 3.5)
		})
		if err != nil {
			return 0, err
		}
		s := *base
		s.Mfg.CarbonIntensity = tech.Clamp(s.Mfg.CarbonIntensity*rng.draw(spread.FabIntensity), 0.030, 0.700)
		s.Design.PowerW = s.Design.PowerW * rng.draw(spread.DesignTime)
		rep, err := s.Evaluate(dbi)
		if err != nil {
			return 0, err
		}
		return rep.EmbodiedKg(), nil
	}, opts...)
	if err != nil {
		return Distribution{}, err
	}
	return summarize(samples), nil
}

// checkRun validates the shared run preconditions in the order the
// historical implementation checked them, so both evaluation paths
// surface identical errors.
func checkRun(base *core.System, db *tech.DB, spread Spread, n int) error {
	if n < 10 {
		return fmt.Errorf("uncertainty: need at least 10 samples, got %d", n)
	}
	if err := spread.Validate(); err != nil {
		return err
	}
	return base.Validate(db)
}

// summarize reduces the sorted samples to the reported distribution
// (shared by both evaluation paths so the reduction cannot diverge).
func summarize(samples []float64) Distribution {
	sort.Float64s(samples)
	var sum float64
	for _, v := range samples {
		sum += v
	}
	n := len(samples)
	pct := func(p float64) float64 {
		idx := int(p * float64(n-1))
		return samples[idx]
	}
	return Distribution{
		Samples: n,
		MeanKg:  sum / float64(n),
		P5Kg:    pct(0.05),
		P50Kg:   pct(0.50),
		P95Kg:   pct(0.95),
		MinKg:   samples[0],
		MaxKg:   samples[n-1],
	}
}
