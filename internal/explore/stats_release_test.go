package explore

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/engine"
	"ecochip/internal/kernel"
	"ecochip/internal/testcases"
)

// Worker scratches count their work in plain fields and fold it into
// the plan when released, so once a run returns its Stats must account
// for exactly the work done, at any worker count. Each operation runs on
// a fresh plan of EPYC-8 × {7, 14} (interchangeable CCDs: orbit-keyed
// memo hits and the orbit fold) and default-RDL GA102 × {7, 10, 14} (no
// classes: every point is its own orbit) at 1, 2 and 4 workers.
//
// Every point of RunCtx, Walk, WalkRange and EvalPoint looks its orbit
// rank up in the package memo once, so Hits+Misses counts the points,
// and each point's package terms came from the estimator (one floorplan
// each) or the memo. A second run of the same plan hits. An orbit-path
// front bypasses the memo; GA102's front walks. After each run every
// counted point is a block init or a Gray step, and a second Stats call
// adds nothing.
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
	// served checks the memo's accounting of a plan that only walked:
	// one lookup per point, and a miss for every estimate.
	served := func(t *testing.T, op string, s SweepStats) {
		t.Helper()
		m := s.PkgMemo
		if m.Hits+m.Misses != s.Points {
			t.Errorf("%s: %d memo hits + %d misses != %d points", op, m.Hits, m.Misses, s.Points)
		}
		if got := s.Floorplan.Plans() + m.Hits; got != s.Points {
			t.Errorf("%s: %d floorplans + %d memo hits != %d points", op, s.Floorplan.Plans(), m.Hits, s.Points)
		}
	}
	for _, c := range cases {
		frontPoints := uint64(0)
		for _, w := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, w), func(t *testing.T) {
				walks := []struct {
					name string
					run  func(plan *CompiledPlan) (points int, err error)
				}{
					{"RunCtx", func(plan *CompiledPlan) (int, error) {
						pts, err := plan.RunCtx(ctx, engine.WithWorkers(w))
						return len(pts), err
					}},
					{"Walk", func(plan *CompiledPlan) (int, error) {
						return plan.Combos(), plan.Walk(ctx, func(int, *Point) error { return nil }, engine.WithWorkers(w))
					}},
					{"WalkRange", func(plan *CompiledPlan) (int, error) {
						// w concurrent callers, one contiguous segment each.
						return plan.Combos(), concurrently(w, func(g int) error {
							n := plan.Combos()
							return plan.WalkRange(ctx, g*n/w, (g+1)*n/w, func(int, *Point) error { return nil })
						})
					}},
					{"EvalPoint", func(plan *CompiledPlan) (int, error) {
						// Each caller asks each of its points twice in a
						// row, as a client repeating a what-if does.
						const points = 12
						return 2 * points, concurrently(w, func(g int) error {
							for k := g; k < points; k += w {
								nodes := plan.nodesFor(k * plan.Combos() / points)
								for range 2 {
									if _, err := plan.EvalPoint(ctx, nodes); err != nil {
										return err
									}
								}
							}
							return nil
						})
					}},
				}
				for _, op := range walks {
					plan := compile(t, c.sys, c.nodes)
					n, err := op.run(plan)
					if err != nil {
						t.Fatal(err)
					}
					s := stats(t, plan)
					if s.Points != uint64(n) {
						t.Errorf("%s: %d points counted, %d evaluated", op.name, s.Points, n)
					}
					if op.name == "EvalPoint" && s.GraySteps != 0 {
						t.Errorf("EvalPoint: %+v, want one block init per call", s)
					}
					served(t, op.name, s)
					// A re-run finds the orbits its pooled scratches have
					// estimated. sync.Pool may drop a scratch (it does so
					// at random under -race), so a few re-runs are allowed.
					for again := 0; ; again++ {
						if _, err := op.run(plan); err != nil {
							t.Fatal(err)
						}
						re := stats(t, plan)
						served(t, op.name+" re-run", re)
						if re.PkgMemo.Hits > s.PkgMemo.Hits {
							break
						}
						if again == 9 {
							t.Fatalf("%s: ten re-runs of the plan never hit the package memo: %+v", op.name, re.PkgMemo)
						}
						s = re
					}
				}

				plan := compile(t, c.sys, c.nodes)
				ms := []Metric{ByEmbodied, ByCost}
				if _, _, err := plan.ParetoFrontCtx(ctx, ms, engine.WithWorkers(w)); err != nil {
					t.Fatal(err)
				}
				s := stats(t, plan)
				switch {
				case !c.orbits:
					served(t, "front", s)
					if s.Points != uint64(plan.Combos()) {
						t.Errorf("front walk: %d points counted of %d candidates", s.Points, plan.Combos())
					}
				case s.PkgMemo != (kernel.PkgMemoStats{}) || s.Floorplan.Plans() != s.Points:
					t.Errorf("orbit fold touched the package memo: %+v, %d floorplans for %d points", s.PkgMemo, s.Floorplan.Plans(), s.Points)
				case s.GraySteps != 0 || s.Points <= uint64(plan.orbits) || s.Points >= uint64(plan.Combos()):
					t.Errorf("orbit fold: %+v over %d orbits of %d candidates", s, plan.orbits, plan.Combos())
				}
				switch {
				case frontPoints == 0:
					frontPoints = s.Points
				case s.Points != frontPoints:
					t.Errorf("front evaluated %d points at %d workers, %d at 1", s.Points, w, frontPoints)
				}
				if c.orbits {
					// A warm plan's orbit fold leaves the memo alone too.
					if _, err := plan.RunCtx(ctx, engine.WithWorkers(w)); err != nil {
						t.Fatal(err)
					}
					before := stats(t, plan).PkgMemo
					if _, _, err := plan.ParetoFrontCtx(ctx, ms, engine.WithWorkers(w)); err != nil {
						t.Fatal(err)
					}
					if after := stats(t, plan).PkgMemo; after != before {
						t.Errorf("warm orbit fold touched the package memo: %+v, then %+v", before, after)
					}
				}
			})
		}
	}
}

// concurrently runs f(0) … f(n-1) on n goroutines and returns the first
// error.
func concurrently(n int, f func(g int) error) error {
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := f(g); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	return <-errs
}
