package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

func db() *tech.DB { return tech.Default() }

func TestRunIndexAddressing(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got, err := Run(context.Background(), 100, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		}, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	got, err := Run(context.Background(), 0, func(_ context.Context, i int) (int, error) {
		t.Error("task ran for empty batch")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: got %v, %v", got, err)
	}
}

func TestRunFailFast(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(context.Background(), 1000, func(_ context.Context, i int) (int, error) {
		if i == 3 || i == 500 {
			return 0, fmt.Errorf("task %d: %w", i, boom)
		}
		return i, nil
	}, WithWorkers(4))
	if !errors.Is(err, boom) {
		t.Fatalf("want task error, got %v", err)
	}
}

func TestRunSerialErrorIsLowestIndex(t *testing.T) {
	// With one worker the walk is strictly ordered, so the error must be
	// the first failing index — same as the old serial loops.
	_, err := Run(context.Background(), 100, func(_ context.Context, i int) (int, error) {
		if i >= 10 {
			return 0, fmt.Errorf("task %d failed", i)
		}
		return i, nil
	}, WithWorkers(1))
	if err == nil || err.Error() != "task 10 failed" {
		t.Fatalf("serial error = %v, want task 10 failed", err)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	ran := 0
	_, err := Run(ctx, 10000, func(_ context.Context, i int) (int, error) {
		mu.Lock()
		ran++
		if ran == 5 {
			cancel()
		}
		mu.Unlock()
		return i, nil
	}, WithWorkers(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran >= 10000 {
		t.Error("cancellation did not stop the batch early")
	}
}

func TestRunProgress(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	_, err := Run(context.Background(), 50, func(_ context.Context, i int) (int, error) {
		return i, nil
	}, WithWorkers(4), WithProgress(func(done, total int) {
		if total != 50 {
			t.Errorf("total = %d, want 50", total)
		}
		mu.Lock()
		seen = append(seen, done)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 50 {
		t.Fatalf("progress called %d times, want 50", len(seen))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress out of order at call %d: done = %d", i, d)
		}
	}
}

// TestEvaluateBatchMatchesSerial checks EvaluateBatch against Evaluate
// bit for bit on hand-built testcases and 50 random systems spanning the
// model's feature space, serially and across three workers.
func TestEvaluateBatchMatchesSerial(t *testing.T) {
	d := db()
	systems := []*core.System{
		testcases.GA102(d, 7, 14, 10, false),
		testcases.GA102(d, 7, 7, 7, true),
		testcases.A15(d, 7, 14, 10, false),
		testcases.EMR(d, 10, false),
	}
	rng := rand.New(rand.NewSource(23))
	for range 50 {
		systems = append(systems, testcases.Random(rng, d))
	}
	want := make([]*core.Report, len(systems))
	for i, s := range systems {
		rep, err := s.Evaluate(d)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}
	for _, workers := range []int{1, 3} {
		got, err := EvaluateBatch(context.Background(), d, systems, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := range systems {
			assertReportsEqual(t, fmt.Sprintf("workers=%d system=%d", workers, i), want[i], got[i])
		}
	}
}

// TestEvaluateBatchOneULPApart batches a GA102 with a copy whose first
// chiplet has one more ulp of transistors. The two are different
// systems, so each report must carry the bits of its own Evaluate: a
// batch that shared per-die results between near-equal inputs would hand
// the copy the original's figures.
func TestEvaluateBatchOneULPApart(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false)
	bumped := *base
	bumped.Chiplets = slices.Clone(base.Chiplets)
	bumped.Chiplets[0].Transistors = math.Nextafter(bumped.Chiplets[0].Transistors, math.Inf(1))
	systems := []*core.System{base, &bumped}

	got, err := EvaluateBatch(context.Background(), d, systems, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*core.Report, len(systems))
	for i, s := range systems {
		if want[i], err = s.Evaluate(d); err != nil {
			t.Fatal(err)
		}
		assertReportsEqual(t, fmt.Sprintf("system %d", i), want[i], got[i])
	}
	if want[0].MfgKg == want[1].MfgKg {
		t.Fatal("the one-ulp copy must differ from the original in C_mfg, or this test checks nothing")
	}
}

func TestEvaluateBatchError(t *testing.T) {
	d := db()
	bad := testcases.GA102(d, 7, 14, 10, false)
	bad.Chiplets[0].Transistors = -1
	_, err := EvaluateBatch(context.Background(), d,
		[]*core.System{testcases.GA102(d, 7, 14, 10, false), bad})
	if err == nil {
		t.Fatal("invalid system must fail the batch")
	}
}

// assertReportsEqual requires every field reachable from the two
// reports — totals, per-chiplet rows and the packaging result with its
// floorplan — to match, floats by math.Float64bits: the byte-identical
// guarantee of the engine.
func assertReportsEqual(t *testing.T, label string, want, got *core.Report) {
	t.Helper()
	w, g := reportFields(want), reportFields(got)
	for path, wv := range w {
		if gv, ok := g[path]; !ok || gv != wv {
			t.Fatalf("%s: %s = %s, want %s", label, path, gv, wv)
		}
	}
	for path, gv := range g {
		if _, ok := w[path]; !ok {
			t.Fatalf("%s: unexpected %s = %s", label, path, gv)
		}
	}
}

// reportFields flattens a report into path -> value, formatting floats
// as their IEEE-754 bits so that equal values with different bits (and
// NaNs) are told apart.
func reportFields(r *core.Report) map[string]string {
	out := map[string]string{}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			out[path] = fmt.Sprintf("%#016x", math.Float64bits(v.Float()))
		case reflect.Pointer:
			if !v.IsNil() {
				walk(path, v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		case reflect.Int, reflect.Int64, reflect.String, reflect.Bool:
			out[path] = fmt.Sprint(v)
		}
	}
	walk("Report", reflect.ValueOf(r))
	return out
}
