package explore

import (
	"context"
	"errors"
	"testing"
	"time"

	"ecochip/internal/cost"
	"ecochip/internal/engine"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/testcases"
)

// frontStreamPlan compiles a 4,096-point sweep: eight 512-point quanta,
// so a streamed front publishes several times per worker, and at three
// workers the worker blocks straddle quantum boundaries.
func frontStreamPlan(t *testing.T) *CompiledPlan {
	t.Helper()
	d := db()
	base, err := testcases.GA102DigitalOnly(d, 6, pkgcarbon.RDLFanout)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(base, d, []int{7, 10, 14, 22}, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Combos() <= 2*frontQuantum {
		t.Fatalf("plan has %d points, want more than %d", plan.Combos(), 2*frontQuantum)
	}
	return plan
}

func assertSameFront(t *testing.T, want, got []Point, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !samePoint(want[i], got[i]) {
			t.Fatalf("%s: point %d differs: %+v vs %+v", label, i, got[i], want[i])
		}
	}
}

// dominatedBy reports whether some point of front dominates p.
func dominatedBy(p Point, front []Point, ms []Metric) bool {
	for _, q := range front {
		if dominates(q, p, ms) {
			return true
		}
	}
	return false
}

// Streamed fronts must tighten monotonically (a point leaves a snapshot
// only because a later one dominates it), report progress in 512-point
// blocks, end with exactly one complete snapshot, and return the bits of
// the barrier front at every worker count.
func TestParetoFrontStreamMonotoneAndParity(t *testing.T) {
	ctx := context.Background()
	plan := frontStreamPlan(t)
	all, err := plan.RunCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantBlocks := (plan.Combos() + frontQuantum - 1) / frontQuantum
	for _, ms := range [][]Metric{{ByEmbodied, ByCost}, {ByTotal, ByCost, ByArea}} {
		want := ParetoFront(all, ms...)
		for _, workers := range []int{1, 2, 3, 4} {
			opt := engine.WithWorkers(workers)
			barrier, total, err := plan.ParetoFrontCtx(ctx, ms, opt)
			if err != nil {
				t.Fatal(err)
			}
			if total != plan.Combos() {
				t.Fatalf("barrier total = %d, want %d", total, plan.Combos())
			}
			assertSameFront(t, want, barrier, "barrier front")

			var snaps []FrontSnapshot
			got, total, err := plan.ParetoFrontStream(ctx, ms, func(s FrontSnapshot) error {
				snaps = append(snaps, s)
				return nil
			}, opt)
			if err != nil {
				t.Fatal(err)
			}
			if total != plan.Combos() {
				t.Fatalf("%d workers: streamed total = %d, want %d", workers, total, plan.Combos())
			}
			assertSameFront(t, want, got, "streamed front (return)")
			if len(snaps) == 0 {
				t.Fatalf("%d workers: no snapshots emitted", workers)
			}
			final := snaps[len(snaps)-1]
			if final.BlocksDone != wantBlocks || final.TotalBlocks != wantBlocks {
				t.Fatalf("%d workers: final snapshot at %d/%d blocks, want %d/%d",
					workers, final.BlocksDone, final.TotalBlocks, wantBlocks, wantBlocks)
			}
			assertSameFront(t, want, final.Front, "streamed front (final snapshot)")

			prevDone := -1
			for i, s := range snaps {
				if s.TotalBlocks != wantBlocks {
					t.Fatalf("%d workers: snapshot %d reports %d total blocks, want %d", workers, i, s.TotalBlocks, wantBlocks)
				}
				if s.BlocksDone <= prevDone {
					t.Fatalf("%d workers: snapshot %d: BlocksDone %d did not advance past %d", workers, i, s.BlocksDone, prevDone)
				}
				prevDone = s.BlocksDone
				if i == 0 {
					continue
				}
				for _, p := range snaps[i-1].Front {
					kept := false
					for _, q := range s.Front {
						if samePoint(p, q) {
							kept = true
							break
						}
					}
					if !kept && !dominatedBy(p, s.Front, ms) {
						t.Fatalf("%d workers: snapshot %d: point %+v vanished without a dominator", workers, i, p)
					}
				}
			}
		}
	}
}

// An emit error must cancel the walk and surface unchanged, and emit is
// not called again after it fails.
func TestParetoFrontStreamEmitError(t *testing.T) {
	plan := frontStreamPlan(t)
	boom := errors.New("client went away")
	emitted := make(chan struct{})
	calls, maxDone := 0, 0
	// The serial walk holds at the first quantum boundary until the
	// snapshot it published has been emitted and refused, so the
	// cancellation reaches it with most of the sweep still unwalked.
	progress := engine.WithProgress(func(done, total int) {
		maxDone = done
		if done == frontQuantum {
			select {
			case <-emitted:
			case <-time.After(10 * time.Second):
			}
		}
	})
	_, _, err := plan.ParetoFrontStream(context.Background(), []Metric{ByEmbodied, ByCost}, func(FrontSnapshot) error {
		if calls++; calls == 1 {
			close(emitted)
		}
		return boom
	}, engine.WithWorkers(1), progress)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if calls != 1 {
		t.Errorf("emit called %d times, want once", calls)
	}
	if maxDone >= plan.Combos() {
		t.Errorf("walk covered all %d points after the emit error", maxDone)
	}
}

// A caller's cancellation stops a streamed walk like a barrier one.
func TestParetoFrontStreamCancelled(t *testing.T) {
	plan := frontStreamPlan(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := plan.ParetoFrontStream(ctx, []Metric{ByEmbodied, ByCost}, func(FrontSnapshot) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The replica front-mode unit: segment fronts merged by slot must give
// the barrier front, and each survivor carries its own node assignment.
func TestWalkRangeFrontSegmentsMerge(t *testing.T) {
	ctx := context.Background()
	plan := frontStreamPlan(t)
	ms := []Metric{ByEmbodied, ByCost}
	want, _, err := plan.ParetoFrontCtx(ctx, ms)
	if err != nil {
		t.Fatal(err)
	}
	var entries []frontEntry
	for lo := 0; lo < plan.Combos(); lo += 700 {
		hi := min(lo+700, plan.Combos())
		slots, pts, err := plan.WalkRangeFront(ctx, lo, hi, ms)
		if err != nil {
			t.Fatal(err)
		}
		for i, slot := range slots {
			if i > 0 && slots[i-1] >= slot {
				t.Fatalf("segment [%d,%d): slots not ascending: %v", lo, hi, slots)
			}
			nodes := plan.nodesFor(slot)
			for j := range nodes {
				if pts[i].Nodes[j] != nodes[j] {
					t.Fatalf("slot %d carries nodes %v, want %v", slot, pts[i].Nodes, nodes)
				}
			}
			entries = append(entries, frontEntry{idx: slot, pt: pts[i]})
		}
	}
	assertSameFront(t, want, plan.frontOf(entries, ms), "merged segment fronts")
}
