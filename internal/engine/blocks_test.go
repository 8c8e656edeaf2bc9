package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunScratchPerWorkerState(t *testing.T) {
	type scratch struct{ id int }
	var created atomic.Int32
	n := 64
	owners := make([]*scratch, n)
	_, err := RunScratchRelease(context.Background(), n,
		func() (*scratch, error) {
			return &scratch{id: int(created.Add(1))}, nil
		},
		nil,
		func(_ context.Context, i int, sc *scratch) (int, error) {
			owners[i] = sc
			return i, nil
		},
		WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := created.Load(); got < 1 || got > 4 {
		t.Errorf("created %d scratches for 4 workers", got)
	}
	for i, sc := range owners {
		if sc == nil {
			t.Fatalf("point %d saw no scratch", i)
		}
	}
}

func TestRunScratchInitError(t *testing.T) {
	boom := errors.New("scratch init failed")
	_, err := RunScratchRelease(context.Background(), 8,
		func() (int, error) { return 0, boom }, nil,
		func(_ context.Context, i int, _ int) (int, error) { return i, nil },
		WithWorkers(2))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the scratch init error", err)
	}
}

func TestRunBlocksCoversRange(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 100} {
		n := 23
		seen := make([]atomic.Int32, n)
		err := RunBlocks(context.Background(), n, func(_ context.Context, lo, hi int, tick func()) error {
			if lo > hi || lo < 0 || hi > n {
				return fmt.Errorf("bad block [%d, %d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
				tick()
			}
			return nil
		}, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestRunBlocksProgress(t *testing.T) {
	var mu sync.Mutex
	var last int
	calls := 0
	err := RunBlocks(context.Background(), 17, func(_ context.Context, lo, hi int, tick func()) error {
		for i := lo; i < hi; i++ {
			tick()
		}
		return nil
	}, WithWorkers(4), WithProgress(func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if done != last+1 || total != 17 {
			t.Errorf("progress (%d, %d) after %d", done, total, last)
		}
		last = done
		calls++
	}))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 17 {
		t.Errorf("progress called %d times, want 17", calls)
	}
}

func TestRunBlocksErrorWins(t *testing.T) {
	boom := errors.New("block failed")
	err := RunBlocks(context.Background(), 40, func(ctx context.Context, lo, hi int, tick func()) error {
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err // must not mask the real failure
			}
			if i == 11 {
				return boom
			}
			tick()
		}
		return nil
	}, WithWorkers(4))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the block error", err)
	}
}

func TestRunBlocksParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := RunBlocks(ctx, 10, func(ctx context.Context, lo, hi int, tick func()) error {
		return ctx.Err()
	}, WithWorkers(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunBlocksZero(t *testing.T) {
	if err := RunBlocks(context.Background(), 0, func(_ context.Context, lo, hi int, tick func()) error {
		return errors.New("must not run")
	}); err != nil {
		t.Fatal(err)
	}
}
