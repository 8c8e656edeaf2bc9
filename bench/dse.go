package main

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/experiments"
	"ecochip/internal/explore"
	"ecochip/internal/kernel"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/report"
	"ecochip/internal/sensitivity"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
	"ecochip/internal/uncertainty"
)

// dseSession is one analyst session of the CLIs: ecoexp's 32 tables,
// then ecodse's sweep (+ front), tornado, Monte Carlo and group modes on
// the EPYC 8-CCD and GA102 testcases. Each session compiles every plan
// cold, as each CLI invocation does.
var dseSession = &workload{
	name:        "dse-session",
	why:         "CLI shape: cold compiles, param plans, Disaggregate and the experiments dominate; no wire, no serving",
	clients:     1,
	p99Floor:    true,
	parallelOps: true,
	setup:       setupDSE,
}

// mcSeeds are the Monte Carlo seeds a session may draw.
var mcSeeds = []int64{2024, 7, 42, 1}

const (
	mcSamples  = 500
	tornadoRel = 0.25
)

// dseSystem is one testcase of the session.
type dseSystem struct {
	name  string
	sys   *core.System
	nodes []int
	// group is the block-level description the group mode searches.
	group *core.System
}

type dse struct {
	db      *tech.DB
	systems []dseSystem
	items   []item
	// Catalogue indices: experiments, then per system sweep, tornado,
	// disaggregate and one entry per Monte Carlo seed.
	exp                    int
	sweep, tornado, disagg []int
	mc                     [][]int
	acc                    dseAcc
}

// dseAcc accumulates the plan statistics of a traced phase.
type dseAcc struct {
	mu                     sync.Mutex
	dieHits, dieRecomputes uint64
	cellHits, cellMisses   uint64
}

func setupDSE(ctx context.Context, _ bool) (instance, error) {
	db := tech.Default()
	epyc, err := testcases.EPYC(db, 8)
	if err != nil {
		return nil, err
	}
	ga102 := testcases.GA102(db, 7, 10, 14, false)
	// GA102's three blocks are of distinct types and EPYC's CCDs are
	// reused IP, so neither merges; the GA102 group search also runs on
	// the block-level description with its digital logic in six blocks,
	// where the greedy search takes several steps.
	ga102Blocks, err := testcases.GA102Split(db, 6, pkgcarbon.RDLFanout)
	if err != nil {
		return nil, err
	}
	d := &dse{db: db, systems: []dseSystem{
		{"EPYC-8", epyc, []int{7, 14}, epyc},
		{"GA102", ga102, []int{7, 10, 14, 22, 28}, ga102Blocks},
	}}
	d.build()
	// Warm-up: one full session, so lazy package state is built before
	// timing.
	for _, it := range d.items {
		if _, err := it.run(ctx, nil); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (d *dse) add(key string, run func(ctx context.Context, ot *opTrace) (fold, error)) int {
	d.items = append(d.items, item{key: key, run: run})
	return len(d.items) - 1
}

func (d *dse) build() {
	d.exp = d.add("experiments", func(ctx context.Context, ot *opTrace) (fold, error) {
		var tables []*report.Table
		err := ot.call("experiments.RunAll", func() error {
			ts, err := experiments.RunAll(d.db)
			tables = ts
			return err
		})
		return func(h *hasher) {
			for _, t := range tables {
				h.text(t.Title)
				for _, r := range t.Rows {
					for _, c := range r {
						h.text(c)
					}
				}
			}
		}, err
	})
	cp := cost.DefaultParams()
	for _, s := range d.systems {
		d.sweep = append(d.sweep, d.add(s.name+"/sweep", func(ctx context.Context, ot *opTrace) (fold, error) {
			var pts, front []explore.Point
			err := ot.call("explore.NodeSweepPlanned", func() error {
				var err error
				pts, _, err = explore.NodeSweepPlanned(ctx, s.sys, d.db, s.nodes, cp)
				return err
			})
			if err != nil {
				return nil, err
			}
			ot.call("explore.ParetoFront", func() error {
				front = explore.ParetoFront(pts, explore.ByEmbodied, explore.ByCost)
				return nil
			})
			return func(h *hasher) { h.points(pts); h.points(front) }, nil
		}))
		d.tornado = append(d.tornado, d.add(s.name+"/tornado", func(ctx context.Context, ot *opTrace) (fold, error) {
			var res []sensitivity.Result
			var plan *kernel.ParamPlan
			err := ot.call("sensitivity.TornadoPlanned", func() error {
				var err error
				res, plan, err = sensitivity.TornadoPlanned(ctx, s.sys, d.db, tornadoRel)
				return err
			})
			if err != nil {
				return nil, err
			}
			if ot != nil {
				d.acc.addParam(plan.Stats())
			}
			return func(h *hasher) {
				for _, r := range res {
					h.text(r.Factor)
					h.float(r.LowKg, r.BaseKg, r.HighKg)
				}
			}, nil
		}))
		var mcs []int
		for _, seed := range mcSeeds {
			mcs = append(mcs, d.add(s.name+"/mc-"+strconv.FormatInt(seed, 10), func(ctx context.Context, ot *opTrace) (fold, error) {
				var dist uncertainty.Distribution
				var plan *kernel.ParamPlan
				err := ot.call("uncertainty.RunPlanned", func() error {
					var err error
					dist, plan, err = uncertainty.RunPlanned(ctx, s.sys, d.db, uncertainty.DefaultSpread(), mcSamples, seed)
					return err
				})
				if err != nil {
					return nil, err
				}
				if ot != nil {
					d.acc.addParam(plan.Stats())
				}
				return func(h *hasher) {
					h.float(dist.MeanKg, dist.P5Kg, dist.P50Kg, dist.P95Kg, dist.MinKg, dist.MaxKg)
				}, nil
			}))
		}
		d.mc = append(d.mc, mcs)
		d.disagg = append(d.disagg, d.add(s.name+"/disaggregate", func(ctx context.Context, ot *opTrace) (fold, error) {
			var plan *explore.Plan
			err := ot.call("explore.DisaggregateCtx", func() error {
				var err error
				plan, err = explore.DisaggregateCtx(ctx, s.group, d.db)
				return err
			})
			if err != nil {
				return nil, err
			}
			if ot != nil {
				d.acc.mu.Lock()
				d.acc.cellHits += plan.Stats.MergedCellHits
				d.acc.cellMisses += plan.Stats.MergedCellMisses
				d.acc.mu.Unlock()
			}
			return func(h *hasher) {
				h.float(plan.EmbodiedKg, plan.InitialKg)
				h.word(uint64(plan.Steps))
				for _, g := range plan.Groups {
					for _, b := range g {
						h.text(b)
					}
				}
			}, nil
		}))
	}
}

func (a *dseAcc) addParam(s kernel.ParamStats) {
	a.mu.Lock()
	a.dieHits += s.DieTableHits
	a.dieRecomputes += s.DieRecomputes
	a.mu.Unlock()
}

func (d *dse) catalogue() []item { return d.items }

// deal returns one session: the experiments, and per system its sweep,
// tornado, one Monte Carlo run (seed drawn) and group search, in a
// shuffled job order.
func (d *dse) deal(rng *rand.Rand, _ int64, _ int) [][]int {
	jobs := []int{d.exp}
	for i := range d.systems {
		jobs = append(jobs, d.sweep[i], d.tornado[i], d.mc[i][rng.Intn(len(mcSeeds))], d.disagg[i])
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return [][]int{jobs}
}

// probeReps is the repetition count of each outside-in probe call.
const probeReps = 20

func (d *dse) layers(ctx context.Context, tr *tracer) (map[string]metric, error) {
	cp := cost.DefaultParams()
	var compile, paramCompile time.Duration
	for r := 0; r < probeReps; r++ {
		for _, s := range d.systems {
			t0 := time.Now()
			if _, err := explore.Compile(s.sys, d.db, s.nodes, cp); err != nil {
				return nil, err
			}
			t1 := time.Now()
			if _, err := kernel.CompileParams(s.sys, d.db); err != nil {
				return nil, err
			}
			compile += t1.Sub(t0)
			paramCompile += time.Since(t1)
		}
	}
	calls := float64(probeReps * len(d.systems))
	d.acc.mu.Lock()
	defer d.acc.mu.Unlock()
	return map[string]metric{
		"experiments.run_all_ms":        {ms(tr.mean("experiments.RunAll")), "ms"},
		"explore.compile_us":            {us(compile) / calls, "us"},
		"explore.disaggregate_us":       {us(tr.mean("explore.DisaggregateCtx")), "us"},
		"explore.disagg_cell_hit_ratio": {ratio(d.acc.cellHits, d.acc.cellHits+d.acc.cellMisses), "ratio"},
		"kernel.param_compile_us":       {us(paramCompile) / calls, "us"},
		"kernel.die_table_hit_ratio":    {ratio(d.acc.dieHits, d.acc.dieHits+d.acc.dieRecomputes), "ratio"},
		"sensitivity.tornado_us":        {us(tr.mean("sensitivity.TornadoPlanned")), "us"},
		"uncertainty.mc_us_per_sample":  {us(tr.mean("uncertainty.RunPlanned")) / mcSamples, "us"},
	}, nil
}

func (d *dse) close() error { return nil }
