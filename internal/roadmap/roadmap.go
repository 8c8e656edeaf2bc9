// Package roadmap models chiplet reuse across product generations — the
// core "reuse" lever of the ECO-CHIP paper's introduction: "the reuse of
// chiplets across multiple designs, even spanning multiple generations
// of ICs, can substantially amortize the embodied CFP just as it
// amortizes the dollar cost."
//
// A Roadmap is a sequence of product generations, each shipping a volume
// of systems built from chiplets; a chiplet either carries over from a
// previous generation (paying no new design or mask carbon) or is a new
// design. Evaluate produces the cumulative embodied carbon of the whole
// roadmap and the savings relative to redesigning everything every
// generation.
package roadmap

import (
	"context"
	"fmt"

	"ecochip/internal/core"
	"ecochip/internal/engine"
	"ecochip/internal/tech"
)

// Generation is one product generation.
type Generation struct {
	// Name labels the generation ("gen1", "2026-flagship", ...).
	Name string
	// System is the product's chiplet description. Chiplet names are
	// identity: a chiplet whose name appeared in an earlier generation
	// with the same node and transistor budget is treated as carried
	// over.
	System *core.System
	// Volume is the number of systems shipped this generation; 0 uses
	// the system's own volume.
	Volume int
}

// GenerationReport is the carbon of one generation within the roadmap.
type GenerationReport struct {
	Name string
	// PerPartKg is C_emb per shipped part with cross-generation reuse.
	PerPartKg float64
	// NaivePerPartKg is C_emb per part if every chiplet were redesigned
	// this generation.
	NaivePerPartKg float64
	// CarriedOver lists the chiplet names reused from earlier
	// generations.
	CarriedOver []string
	// FleetKg is PerPartKg * volume.
	FleetKg float64
}

// Report is the whole-roadmap result.
type Report struct {
	Generations []GenerationReport
}

// TotalFleetKg is the cumulative embodied carbon of every part shipped
// across the roadmap.
func (r *Report) TotalFleetKg() float64 {
	var total float64
	for _, g := range r.Generations {
		total += g.FleetKg
	}
	return total
}

// NaiveFleetKg is the cumulative carbon without cross-generation reuse.
func (r *Report) NaiveFleetKg() float64 {
	var total float64
	for i, g := range r.Generations {
		vol := g.FleetKg / g.PerPartKg // recover volume
		_ = i
		total += g.NaivePerPartKg * vol
	}
	return total
}

// SavingFraction is 1 - reused/naive over the whole fleet.
func (r *Report) SavingFraction() float64 {
	naive := r.NaiveFleetKg()
	if naive == 0 {
		return 0
	}
	return 1 - r.TotalFleetKg()/naive
}

type chipletKey struct {
	name        string
	nodeNm      int
	transistors float64
}

// Evaluate walks the generations in order, marking chiplets that carry
// over from earlier generations as reused (zero incremental design
// carbon) and accumulating fleet totals.
func Evaluate(db *tech.DB, generations []Generation) (*Report, error) {
	return EvaluateCtx(context.Background(), db, generations)
}

// EvaluateCtx is Evaluate with cancellation and engine options. The
// generation walk itself is inherently sequential (which chiplets count
// as reused depends on every earlier generation), but each generation's
// reuse-aware and naive variants evaluate concurrently.
func EvaluateCtx(ctx context.Context, db *tech.DB, generations []Generation, opts ...engine.Option) (*Report, error) {
	if len(generations) == 0 {
		return nil, fmt.Errorf("roadmap: no generations")
	}
	seen := map[chipletKey]bool{}
	rep := &Report{}
	for gi, gen := range generations {
		if gen.System == nil {
			return nil, fmt.Errorf("roadmap: generation %d (%s) has no system", gi, gen.Name)
		}
		vol := gen.Volume
		if vol == 0 {
			vol = gen.System.SystemVolume
		}
		if vol == 0 {
			vol = core.DefaultVolume
		}

		// Reuse-aware variant: mark carried-over chiplets.
		reuseSys := *gen.System
		reuseSys.Chiplets = make([]core.Chiplet, len(gen.System.Chiplets))
		copy(reuseSys.Chiplets, gen.System.Chiplets)
		var carried []string
		for i := range reuseSys.Chiplets {
			c := &reuseSys.Chiplets[i]
			key := chipletKey{c.Name, c.NodeNm, c.Transistors}
			if seen[key] {
				c.Reused = true
				carried = append(carried, c.Name)
			}
		}

		// Naive variant: everything redesigned.
		naiveSys := *gen.System
		naiveSys.Chiplets = make([]core.Chiplet, len(gen.System.Chiplets))
		copy(naiveSys.Chiplets, gen.System.Chiplets)
		for i := range naiveSys.Chiplets {
			naiveSys.Chiplets[i].Reused = false
		}

		reports, err := engine.EvaluateBatch(ctx, db, []*core.System{&reuseSys, &naiveSys}, opts...)
		if err != nil {
			return nil, fmt.Errorf("roadmap: generation %s: %w", gen.Name, err)
		}
		reuseRep, naiveRep := reports[0], reports[1]

		for i := range gen.System.Chiplets {
			c := gen.System.Chiplets[i]
			seen[chipletKey{c.Name, c.NodeNm, c.Transistors}] = true
		}

		rep.Generations = append(rep.Generations, GenerationReport{
			Name:           gen.Name,
			PerPartKg:      reuseRep.EmbodiedKg(),
			NaivePerPartKg: naiveRep.EmbodiedKg(),
			CarriedOver:    carried,
			FleetKg:        reuseRep.EmbodiedKg() * float64(vol),
		})
	}
	return rep, nil
}
