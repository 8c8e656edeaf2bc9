package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/explore"
	"ecochip/internal/floorplan"
	"ecochip/internal/kernel"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// sweep262k is ecodse's sweep mode at EPYC scale: the 8-CCD EPYC (nine
// chiplets) over four nodes, 4^9 = 262,144 points, compiled fresh per
// operation.
var sweep262k = &workload{
	name:        "sweep-262k",
	why:         "the Gray walk, floorplan, package estimate and fold dominate; compile is ~0.02% of an op; no wire, no serving",
	clients:     1,
	parallelOps: true,
	setup:       setupSweep,
}

// bigSweepNodes are the candidate nodes of the 262,144-point sweep.
var bigSweepNodes = []int{7, 10, 14, 22}

// frontRepeats is how often each objective pair's front appears per
// cycle beside the one materialized sweep. Streamed fronts then make
// ~86% of operations, so the median and the materialized tail (p90 and
// up) each sit well inside one kind of operation instead of on the
// boundary between two.
const frontRepeats = 2

// sweepCycle deals one materialized operation and frontRepeats streamed
// fronts per objective pair, shuffled. Catalogue index 0 is the
// materialized operation, 1.. the fronts.
func sweepCycle(rng *rand.Rand) [][]int {
	ix := []int{0}
	for r := 0; r < frontRepeats; r++ {
		for p := range objectivePairs {
			ix = append(ix, 1+p)
		}
	}
	return shuffled(rng, singles(ix...))
}

type sweep struct {
	db    *tech.DB
	sys   *core.System
	cp    cost.Params
	items []item
	acc   sweepAcc
}

// sweepAcc accumulates the plan statistics of a traced phase (one fresh
// plan per operation).
type sweepAcc struct {
	mu                  sync.Mutex
	ops                 int
	points, gray, inits uint64
	memo                kernel.PkgMemoStats
	fp                  floorplan.TreeStats
}

func (a *sweepAcc) add(s explore.SweepStats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ops++
	a.points += s.Points
	a.gray += s.GraySteps
	a.inits += s.BlockInits
	a.memo.Add(s.PkgMemo)
	a.fp.Add(s.Floorplan)
}

func setupSweep(ctx context.Context, _ bool) (instance, error) {
	db := tech.Default()
	sys, err := testcases.EPYC(db, 8)
	if err != nil {
		return nil, err
	}
	s := &sweep{db: db, sys: sys, cp: cost.DefaultParams()}
	s.items = append(s.items, item{key: "materialize/embodied-cost", run: s.materialize})
	for _, p := range objectivePairs {
		s.items = append(s.items, item{key: "front/" + p.name, run: s.front(p.objs)})
	}
	// Warm-up: one streamed front, so lazy package state and the heap
	// are built before timing.
	if _, err := s.items[1].run(ctx, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// materialize is ecodse's default sweep: every point, then the front.
func (s *sweep) materialize(ctx context.Context, ot *opTrace) (fold, error) {
	var pts, front []explore.Point
	var plan *explore.CompiledPlan
	err := ot.call("explore.NodeSweepPlanned", func() error {
		var err error
		pts, plan, err = explore.NodeSweepPlanned(ctx, s.sys, s.db, bigSweepNodes, s.cp)
		return err
	})
	if err != nil {
		return nil, err
	}
	ot.call("explore.ParetoFront", func() error {
		front = explore.ParetoFront(pts, explore.ByEmbodied, explore.ByCost)
		return nil
	})
	if ot != nil {
		s.acc.add(plan.Stats())
	}
	return func(h *hasher) { h.points(pts); h.points(front) }, nil
}

// front streams the front without materializing the points.
func (s *sweep) front(objs []explore.Metric) func(ctx context.Context, ot *opTrace) (fold, error) {
	return func(ctx context.Context, ot *opTrace) (fold, error) {
		var plan *explore.CompiledPlan
		err := ot.call("explore.Compile", func() error {
			var err error
			plan, err = explore.Compile(s.sys, s.db, bigSweepNodes, s.cp)
			return err
		})
		if err != nil {
			return nil, err
		}
		var front []explore.Point
		var n int
		err = ot.call("explore.CompiledPlan.ParetoFrontCtx", func() error {
			var err error
			front, n, err = plan.ParetoFrontCtx(ctx, objs)
			return err
		})
		if err != nil {
			return nil, err
		}
		if ot != nil {
			s.acc.add(plan.Stats())
		}
		return func(h *hasher) { h.word(uint64(n)); h.points(front) }, nil
	}
}

func (s *sweep) catalogue() []item { return s.items }

func (s *sweep) deal(rng *rand.Rand, _ int64, _ int) [][]int { return sweepCycle(rng) }

// walkProbeReps is the repetition count of the whole-sweep probes.
const walkProbeReps = 5

// layers times the walk alone (a no-op visitor), the materializing run
// and the streamed front back to back, each on a fresh plan. Materialize
// and fold costs are each repetition's run minus its own walk, so the
// host's drift between repetitions cancels; each metric is the median
// over repetitions.
func (s *sweep) layers(ctx context.Context, _ *tracer) (map[string]metric, error) {
	points := float64(pow(len(bigSweepNodes), len(s.sys.Chiplets)))
	var walk, run, front []float64 // ns per point
	for r := 0; r < walkProbeReps; r++ {
		var t [3]float64
		for k := range t {
			plan, err := explore.Compile(s.sys, s.db, bigSweepNodes, s.cp)
			if err != nil {
				return nil, err
			}
			runtime.GC()
			t0 := time.Now()
			switch k {
			case 0:
				err = plan.Walk(ctx, func(int, *explore.Point) error { return nil })
			case 1:
				_, err = plan.RunCtx(ctx)
			case 2:
				_, _, err = plan.ParetoFrontCtx(ctx, objectivePairs[0].objs)
			}
			t[k] = float64(time.Since(t0).Nanoseconds()) / points
			if err != nil {
				return nil, err
			}
		}
		walk = append(walk, t[0])
		run = append(run, t[1]-t[0])
		front = append(front, t[2]-t[0])
	}
	a := &s.acc
	a.mu.Lock()
	defer a.mu.Unlock()
	ops := uint64(max(a.ops, 1))
	return map[string]metric{
		"explore.walk_ns_per_point":          {median(walk), "ns"},
		"explore.materialize_ns_per_point":   {median(run), "ns"},
		"explore.front_fold_ns_per_point":    {median(front), "ns"},
		"explore.gray_steps_per_point":       {ratio(a.gray, a.points), "ratio"},
		"explore.block_inits_per_op":         {ratio(a.inits, ops), "count"},
		"kernel.pkgmemo_hit_ratio":           {ratio(a.memo.Hits, a.memo.Hits+a.memo.Misses), "ratio"},
		"kernel.pkgmemo_evictions_per_point": {ratio(a.memo.Evictions, a.points), "ratio"},
		"floorplan.fast_path_ratio":          {ratio(a.fp.FastPath+a.fp.Unchanged, a.fp.Plans()), "ratio"},
		"floorplan.fallbacks_per_op":         {ratio(a.fp.Fallbacks+a.fp.DiffFallbacks, ops), "count"},
		"engine.workers":                     {float64(runtime.GOMAXPROCS(0)), "count"},
	}, nil
}

func (s *sweep) close() error { return nil }

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}
