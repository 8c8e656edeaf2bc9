// Package sensitivity performs one-at-a-time (tornado) sensitivity
// analysis of a system's total carbon with respect to the key model
// inputs — the generalization of the paper's Fig. 6(b) defect-density
// study. Each factor is scaled down and up by a relative amount (with
// Table I clamping) while everything else is held at its base value, and
// the swing in C_tot ranks the factors.
//
// Evaluation runs on a compiled parameter plan (kernel.ParamPlan): the
// base point is tabulated once, and each factor-side evaluation
// recomputes only the sub-models its declared dirty set invalidates —
// the defect-density sides re-run die manufacturing and the packaging
// communication cells but reuse the design carbon and floorplan, the
// lifetime sides touch nothing but the operational term, and so on. The
// results are bit-identical to the per-evaluation reference path
// (TornadoReference), which the randomized parity test enforces.
package sensitivity

import (
	"context"
	"fmt"
	"sort"

	"ecochip/internal/core"
	"ecochip/internal/engine"
	"ecochip/internal/kernel"
	"ecochip/internal/tech"
)

// Result is the C_tot response of one factor.
type Result struct {
	// Factor names the perturbed input.
	Factor string
	// BaseKg, LowKg, HighKg are C_tot at the base, scaled-down and
	// scaled-up factor values.
	BaseKg, LowKg, HighKg float64
}

// Swing is the absolute C_tot range the factor commands.
func (r Result) Swing() float64 {
	lo, hi := r.LowKg, r.HighKg
	if lo > hi {
		lo, hi = hi, lo
	}
	return hi - lo
}

// factor applies a scale (e.g. 0.8 or 1.2) to one input of a
// (system, db) pair, returning the perturbed pair. dirty declares which
// parameter groups apply touches, so the compiled plan recomputes
// exactly the sub-models the perturbation can reach (the randomized
// parity test against the reference path guards the declaration).
type factor struct {
	name  string
	dirty kernel.Dirty
	apply func(s core.System, db *tech.DB, scale float64) (*core.System, *tech.DB, error)
}

func factors() []factor {
	return []factor{
		{"defect density D0", kernel.DirtyNodes, func(s core.System, db *tech.DB, scale float64) (*core.System, *tech.DB, error) {
			db2, err := db.Clone(func(n *tech.Node) {
				n.DefectDensity = tech.Clamp(n.DefectDensity*scale, 0.07, 0.3)
			})
			return &s, db2, err
		}},
		{"manufacturing energy EPA", kernel.DirtyNodes, func(s core.System, db *tech.DB, scale float64) (*core.System, *tech.DB, error) {
			db2, err := db.Clone(func(n *tech.Node) {
				n.EPA = tech.Clamp(n.EPA*scale, 0.8, 3.5)
			})
			return &s, db2, err
		}},
		{"fab carbon intensity", kernel.DirtyMfg | kernel.DirtyPackaging, func(s core.System, db *tech.DB, scale float64) (*core.System, *tech.DB, error) {
			s.Mfg.CarbonIntensity = tech.Clamp(s.Mfg.CarbonIntensity*scale, 0.030, 0.700)
			s.Packaging.CarbonIntensity = tech.Clamp(s.Packaging.CarbonIntensity*scale, 0.030, 0.700)
			return &s, db, nil
		}},
		{"design iterations N_des", kernel.DirtyDesign, func(s core.System, db *tech.DB, scale float64) (*core.System, *tech.DB, error) {
			iters := int(float64(s.Design.Iterations)*scale + 0.5)
			if iters < 1 {
				iters = 1
			}
			s.Design.Iterations = iters
			return &s, db, nil
		}},
		{"use-phase carbon intensity", kernel.DirtyOperation, func(s core.System, db *tech.DB, scale float64) (*core.System, *tech.DB, error) {
			if s.Operation == nil {
				return &s, db, nil
			}
			op := *s.Operation
			op.CarbonIntensity = tech.Clamp(op.CarbonIntensity*scale, 0.030, 0.700)
			s.Operation = &op
			return &s, db, nil
		}},
		{"lifetime", kernel.DirtyOperation, func(s core.System, db *tech.DB, scale float64) (*core.System, *tech.DB, error) {
			if s.Operation == nil {
				return &s, db, nil
			}
			op := *s.Operation
			op.LifetimeYears = op.LifetimeYears * scale
			s.Operation = &op
			return &s, db, nil
		}},
		{"manufacturing volume", kernel.DirtyVolume, func(s core.System, db *tech.DB, scale float64) (*core.System, *tech.DB, error) {
			vol := s.SystemVolume
			if vol == 0 {
				vol = core.DefaultVolume
			}
			scaled := int(float64(vol) * scale)
			if scaled < 1 {
				scaled = 1
			}
			s.SystemVolume = scaled
			chiplets := make([]core.Chiplet, len(s.Chiplets))
			copy(chiplets, s.Chiplets)
			for i := range chiplets {
				parts := chiplets[i].ManufacturedParts
				if parts == 0 {
					parts = core.DefaultVolume
				}
				p := int(float64(parts) * scale)
				if p < 1 {
					p = 1
				}
				chiplets[i].ManufacturedParts = p
			}
			s.Chiplets = chiplets
			return &s, db, nil
		}},
	}
}

// Tornado perturbs each factor by ±rel (e.g. 0.25 for ±25%) and returns
// the results sorted by descending swing.
func Tornado(base *core.System, db *tech.DB, rel float64) ([]Result, error) {
	return TornadoCtx(context.Background(), base, db, rel)
}

// TornadoCtx is Tornado with cancellation and engine options. It runs on
// a compiled parameter plan and is bit-identical to TornadoReference.
func TornadoCtx(ctx context.Context, base *core.System, db *tech.DB, rel float64, opts ...engine.Option) ([]Result, error) {
	results, _, err := TornadoPlanned(ctx, base, db, rel, opts...)
	return results, err
}

// TornadoPlanned is TornadoCtx also returning the compiled parameter
// plan the analysis ran on, so callers can surface plan statistics.
func TornadoPlanned(ctx context.Context, base *core.System, db *tech.DB, rel float64, opts ...engine.Option) ([]Result, *kernel.ParamPlan, error) {
	if rel <= 0 || rel >= 1 {
		return nil, nil, fmt.Errorf("sensitivity: relative perturbation %g outside (0, 1)", rel)
	}
	plan, err := kernel.CompileParams(base, db)
	if err != nil {
		return nil, nil, err
	}
	fs := factors()
	// Task 0 is the base point; tasks 1+2k and 2+2k are factor k's low
	// and high perturbations. The fan-out runs on the plan's own batch
	// runner, which owns the per-worker scratch reuse.
	totals, err := plan.Walk(ctx, 1+2*len(fs),
		func(i int, _ *kernel.Scratch) (*core.System, *tech.DB, kernel.Dirty, error) {
			if i == 0 {
				return base, db, 0, nil
			}
			f := fs[(i-1)/2]
			scale := 1 - rel
			side := "low"
			if (i-1)%2 == 1 {
				scale = 1 + rel
				side = "high"
			}
			s, db2, err := f.apply(*base, db, scale)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("sensitivity: factor %q %s: %w", f.name, side, err)
			}
			return s, db2, f.dirty, nil
		}, opts...)
	if err != nil {
		return nil, nil, err
	}
	kgs := make([]float64, len(totals))
	for i, t := range totals {
		kgs[i] = t.TotalKg()
	}
	return assemble(fs, kgs), plan, nil
}

// TornadoReference is the uncompiled tornado: the base point and both
// perturbed points of every factor (2F+1 evaluations) fan out across the
// batch engine, each as a full Evaluate. It is the oracle the compiled
// path is tested against and the baseline its speedup is measured
// against.
func TornadoReference(ctx context.Context, base *core.System, db *tech.DB, rel float64, opts ...engine.Option) ([]Result, error) {
	if rel <= 0 || rel >= 1 {
		return nil, fmt.Errorf("sensitivity: relative perturbation %g outside (0, 1)", rel)
	}
	fs := factors()
	kgs, err := engine.Run(ctx, 1+2*len(fs), func(_ context.Context, i int) (float64, error) {
		if i == 0 {
			rep, err := base.Evaluate(db)
			if err != nil {
				return 0, err
			}
			return rep.TotalKg(), nil
		}
		f := fs[(i-1)/2]
		scale := 1 - rel
		side := "low"
		if (i-1)%2 == 1 {
			scale = 1 + rel
			side = "high"
		}
		kg, err := evalScaled(base, db, f, scale)
		if err != nil {
			return 0, fmt.Errorf("sensitivity: factor %q %s: %w", f.name, side, err)
		}
		return kg, nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	return assemble(fs, kgs), nil
}

// assemble pairs the task results back into per-factor rows sorted by
// descending swing (shared by both evaluation paths so the output shape
// cannot diverge).
func assemble(fs []factor, kgs []float64) []Result {
	baseKg := kgs[0]
	results := make([]Result, len(fs))
	for k, f := range fs {
		results[k] = Result{Factor: f.name, BaseKg: baseKg, LowKg: kgs[1+2*k], HighKg: kgs[2+2*k]}
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].Swing() > results[j].Swing() })
	return results
}

func evalScaled(base *core.System, db *tech.DB, f factor, scale float64) (float64, error) {
	s, db2, err := f.apply(*base, db, scale)
	if err != nil {
		return 0, err
	}
	rep, err := s.Evaluate(db2)
	if err != nil {
		return 0, err
	}
	return rep.TotalKg(), nil
}
