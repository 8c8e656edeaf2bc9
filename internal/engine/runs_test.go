package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// A run is a claimsPerWorker-th of a worker's share: long batches claim
// many indices at once, and a short batch of heavy points (ecoexp's 32
// figures on up to 4 workers) still claims one at a time.
func TestRunClaimsLength(t *testing.T) {
	for _, w := range []int{2, 4} {
		if got := runLen(32, w); got != 1 {
			t.Errorf("runLen(32, %d) = %d, want 1", w, got)
		}
	}
	for _, c := range []struct{ n, w int }{{500, 2}, {1500, 2}, {625, 4}, {1 << 20, 3}} {
		run := runLen(c.n, c.w)
		if run < 2 || run*c.w*claimsPerWorker > c.n {
			t.Errorf("runLen(%d, %d) = %d, want a claimsPerWorker-th of a worker's share", c.n, c.w, run)
		}
	}
}

// A failure in the middle of a claimed run still wins over every later
// failure: indices below it succeed, the worker holding it evaluates
// its run up to it without looking at the context, and every other
// failing index is higher.
func TestRunClaimsLowestFailureMidRun(t *testing.T) {
	const n, first = 1000, 100
	for _, workers := range []int{1, 2, 4} {
		if first%runLen(n, workers) == 0 {
			t.Fatalf("workers=%d: index %d starts a run; the test needs it mid-run", workers, first)
		}
		_, err := Run(context.Background(), n, func(_ context.Context, i int) (int, error) {
			if i >= first {
				return 0, fmt.Errorf("task %d", i)
			}
			return i, nil
		}, WithWorkers(workers))
		if err == nil || err.Error() != fmt.Sprintf("task %d", first) {
			t.Errorf("workers=%d: error %v, want task %d's", workers, err, first)
		}
	}
}

// A panic in the middle of a run reports its own index, not the run's.
func TestRunClaimsPanicReportsItsIndex(t *testing.T) {
	const n, bad = 1000, 77
	for _, workers := range []int{1, 2, 4} {
		_, err := Run(context.Background(), n, func(_ context.Context, i int) (int, error) {
			if i == bad {
				panic("poisoned point")
			}
			return i, nil
		}, WithWorkers(workers))
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != bad {
			t.Errorf("workers=%d: error %v, want a panic at point %d", workers, err, bad)
		}
	}
}

// Progress still ticks once per point: strictly increasing, ending at n,
// and every result lands in its own slot.
func TestRunClaimsProgressAndSlots(t *testing.T) {
	const n = 5000
	for _, workers := range []int{1, 2, 4} {
		var mu sync.Mutex
		last, calls := 0, 0
		got, err := Run(context.Background(), n, func(_ context.Context, i int) (int, error) {
			return 3 * i, nil
		}, WithWorkers(workers), WithProgress(func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if done != last+1 || total != n {
				t.Errorf("workers=%d: progress (%d, %d) after %d", workers, done, total, last)
			}
			last = done
			calls++
		}))
		if err != nil {
			t.Fatal(err)
		}
		if last != n || calls != n {
			t.Errorf("workers=%d: progress ended at %d after %d calls, want %d", workers, last, calls, n)
		}
		for i, v := range got {
			if v != 3*i {
				t.Fatalf("workers=%d: results[%d] = %d", workers, i, v)
			}
		}
	}
}

// Cancelling the parent context stops the batch within one run: each
// worker finishes at most the run it holds, then sees the cancellation
// when it claims the next.
func TestRunClaimsCancelWithinOneRun(t *testing.T) {
	const n = 1 << 16
	for _, workers := range []int{1, 2, 4} {
		run := runLen(n, workers)
		ctx, cancel := context.WithCancel(context.Background())
		var cancelled atomic.Bool
		var after, total atomic.Int64
		_, err := Run(ctx, n, func(_ context.Context, i int) (int, error) {
			if cancelled.Load() {
				after.Add(1)
			}
			total.Add(1)
			if i == 10 {
				cancel()
				cancelled.Store(true)
			}
			return i, nil
		}, WithWorkers(workers))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error %v, want context.Canceled", workers, err)
		}
		if got := after.Load(); got > int64(workers*run) {
			t.Errorf("workers=%d: %d points ran after the cancellation, want at most %d workers × %d-point runs",
				workers, got, workers, run)
		}
		if total.Load() >= n {
			t.Errorf("workers=%d: the cancelled batch ran all %d points", workers, n)
		}
	}
}
