package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// A panicking point task must surface as a *PanicError naming the point,
// not crash the process, at every worker count (serial inline path and
// pooled goroutines alike).
func TestRunRecoversTaskPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Run(context.Background(), 16, func(_ context.Context, i int) (int, error) {
			if i == 7 {
				panic("poisoned point")
			}
			return i, nil
		}, WithWorkers(workers))
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want *PanicError, got %v", workers, err)
		}
		if pe.Value != "poisoned point" {
			t.Errorf("workers=%d: panic value = %v", workers, pe.Value)
		}
		if len(pe.Stack) == 0 || !strings.Contains(pe.Error(), "poisoned point") {
			t.Errorf("workers=%d: error missing stack/value: %s", workers, pe.Error())
		}
	}
}

// A panicking block fn must surface as a *PanicError naming the block
// range — the shape a shard replica walking a leased range depends on.
func TestRunBlocksRecoversBlockPanic(t *testing.T) {
	for _, workers := range []int{1, 3} {
		err := RunBlocks(context.Background(), 30, func(_ context.Context, lo, hi int, tick func()) error {
			for k := lo; k < hi; k++ {
				if k == 13 {
					panic("poisoned block")
				}
				tick()
			}
			return nil
		}, WithWorkers(workers))
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want *PanicError, got %v", workers, err)
		}
		if pe.Lo > 13 || pe.Hi <= 13 {
			t.Errorf("workers=%d: block range [%d,%d) does not contain the panicking point", workers, pe.Lo, pe.Hi)
		}
		if !strings.Contains(pe.Error(), "poisoned block") {
			t.Errorf("workers=%d: error missing value: %s", workers, pe.Error())
		}
	}
}

// A panicking scratch constructor poisons the run like a scratch error,
// not the process.
func TestRunScratchRecoversConstructorPanic(t *testing.T) {
	_, err := RunScratchRelease(context.Background(), 4,
		func() (int, error) { panic("bad scratch") }, nil,
		func(_ context.Context, i int, _ int) (int, error) { return i, nil },
		WithWorkers(2))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
}
