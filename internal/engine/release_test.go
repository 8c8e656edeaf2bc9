package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// Every scratch a worker built must be released exactly once, on
// success, on task failure and on cancellation — the contract a
// step-spanning scratch pool depends on.
func TestRunScratchReleaseReturnsEveryScratch(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		built, released := 0, 0
		newScratch := func() (int, error) {
			mu.Lock()
			defer mu.Unlock()
			built++
			return built, nil
		}
		release := func(int) {
			mu.Lock()
			defer mu.Unlock()
			released++
		}

		_, err := RunScratchRelease(context.Background(), 20, newScratch, release,
			func(_ context.Context, i int, _ int) (int, error) { return i, nil },
			WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		if built == 0 || released != built {
			t.Fatalf("workers=%d: released %d of %d scratches", workers, released, built)
		}
		mu.Unlock()

		sentinel := errors.New("boom")
		_, err = RunScratchRelease(context.Background(), 20, newScratch, release,
			func(_ context.Context, i int, _ int) (int, error) {
				if i == 3 {
					return 0, sentinel
				}
				return i, nil
			}, WithWorkers(workers))
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want sentinel", workers, err)
		}
		mu.Lock()
		if released != built {
			t.Fatalf("workers=%d: after failure released %d of %d scratches", workers, released, built)
		}
		mu.Unlock()
	}
}

// A nil release hook runs the batch without releasing anything.
func TestRunScratchReleaseNilHook(t *testing.T) {
	got, err := RunScratchRelease(context.Background(), 5,
		func() (struct{}, error) { return struct{}{}, nil },
		nil,
		func(_ context.Context, i int, _ struct{}) (int, error) { return i + 1, nil },
		WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("results[%d] = %d", i, v)
		}
	}
}
