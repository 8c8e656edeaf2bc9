package explore

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/engine"
	"ecochip/internal/testcases"
)

// Worker scratches count their work in plain fields and fold it into
// the plan when released, so once a run returns its Stats must account
// for exactly the work done, at any worker count. Each operation runs on
// a fresh plan of EPYC-8 × {7, 14} (interchangeable CCDs: the orbit
// table and the orbit fold) and GA102 × {7, 10, 14} (no classes: a
// plain walk) at 1, 2 and 4 workers:
//
//   - RunCtx evaluates every candidate, and on the fresh walk every
//     Gray step of the EPYC plan consults the orbit table;
//   - ParetoFrontCtx evaluates each point as a one-point walk, and the
//     orbit fold evaluates the same points at every worker count;
//   - EvalPoint counts one point per call, from concurrent callers.
//
// After each, every counted point is a block init or a Gray step, its
// package terms came from the estimator or a memo, and a second Stats
// call adds nothing.
func TestSweepStatsReleasePath(t *testing.T) {
	d := db()
	epyc, err := testcases.EPYC(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		sys    *core.System
		nodes  []int
		orbits bool
	}{
		{"epyc8", epyc, []int{7, 14}, true},
		{"ga102", testcases.GA102(d, 7, 14, 10, false), []int{7, 10, 14}, false},
	}
	ctx := context.Background()
	compile := func(t *testing.T, sys *core.System, nodes []int) *CompiledPlan {
		t.Helper()
		plan, err := Compile(sys, d, nodes, cost.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	// stats reads the plan's totals twice: the release already happened,
	// so the second read must match the first.
	stats := func(t *testing.T, plan *CompiledPlan) SweepStats {
		t.Helper()
		s := plan.Stats()
		if again := plan.Stats(); again != s {
			t.Fatalf("second Stats call changed the totals: %+v, then %+v", s, again)
		}
		if s.BlockInits+s.GraySteps != s.Points {
			t.Fatalf("%d block inits + %d gray steps != %d points", s.BlockInits, s.GraySteps, s.Points)
		}
		return s
	}
	// served checks that every counted point had its package terms
	// from exactly one source: the estimator (one floorplan each), the
	// per-point memo or the orbit table. A scratch that a worker of the
	// same run released is warm, so even a fresh plan's run can hit the
	// point memo on a point that run already evaluated.
	served := func(t *testing.T, op string, s SweepStats) {
		t.Helper()
		if got := s.Floorplan.Plans() + s.PkgMemo.Hits + s.PkgMemo.OrbitHits; got != s.Points {
			t.Errorf("%s: %d floorplans + %d memo hits + %d orbit hits != %d points", op, s.Floorplan.Plans(), s.PkgMemo.Hits, s.PkgMemo.OrbitHits, s.Points)
		}
	}
	for _, c := range cases {
		frontPoints := uint64(0)
		for _, w := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, w), func(t *testing.T) {
				plan := compile(t, c.sys, c.nodes)
				pts, err := plan.RunCtx(ctx, engine.WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				s := stats(t, plan)
				if s.Points != uint64(len(pts)) || len(pts) != plan.Combos() {
					t.Errorf("RunCtx: %d points counted, %d returned, %d candidates", s.Points, len(pts), plan.Combos())
				}
				if c.orbits && s.PkgMemo.OrbitHits+s.PkgMemo.OrbitMisses != s.GraySteps {
					t.Errorf("fresh walk: orbit table %d hits + %d misses != %d gray steps", s.PkgMemo.OrbitHits, s.PkgMemo.OrbitMisses, s.GraySteps)
				}
				served(t, "fresh walk", s)

				plan = compile(t, c.sys, c.nodes)
				if _, _, err := plan.ParetoFrontCtx(ctx, []Metric{ByEmbodied, ByCost}, engine.WithWorkers(w)); err != nil {
					t.Fatal(err)
				}
				s = stats(t, plan)
				served(t, "front", s)
				switch {
				case !c.orbits && s.Points != uint64(plan.Combos()):
					t.Errorf("front walk: %d points counted of %d candidates", s.Points, plan.Combos())
				case c.orbits && (s.GraySteps != 0 || s.Points <= uint64(plan.orbits) || s.Points >= uint64(plan.Combos())):
					t.Errorf("orbit fold: %+v over %d orbits of %d candidates", s, plan.orbits, plan.Combos())
				case frontPoints == 0:
					frontPoints = s.Points
				case s.Points != frontPoints:
					t.Errorf("front evaluated %d points at %d workers, %d at 1", s.Points, w, frontPoints)
				}

				plan = compile(t, c.sys, c.nodes)
				const calls = 12
				var wg sync.WaitGroup
				errs := make(chan error, calls)
				for g := 0; g < w; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for k := g; k < calls; k += w {
							if _, err := plan.EvalPoint(ctx, plan.nodesFor(k*plan.Combos()/calls)); err != nil {
								errs <- err
							}
						}
					}(g)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				s = stats(t, plan)
				if s.Points != calls || s.GraySteps != 0 {
					t.Errorf("EvalPoint: %+v after %d calls, want one block init each", s, calls)
				}
			})
		}
	}
}
