package uncertainty

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/engine"
	"ecochip/internal/kernel"
	"ecochip/internal/testcases"
)

// RunPlanned folds every worker's counters into the plan before it
// returns: the stats are the same at any worker count, Evals is the
// sample count, and an EPYC-8 sample recomputes two dies — the run of
// eight identical CCDs shares one cell, the IO die has its own.
func TestRunPlannedStatsWorkerInvariant(t *testing.T) {
	d := db()
	base, err := testcases.EPYC(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	var want kernel.ParamStats
	for _, workers := range []int{1, 2, 4} {
		_, plan, err := RunPlanned(context.Background(), base, d, DefaultSpread(), n, 2024, engine.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		st := plan.Stats()
		if st.Evals != n || st.DieRecomputes != 2*n || st.RoutingRefreshes != n {
			t.Fatalf("workers=%d: %+v, want %d evals, %d die recomputes and %d routing refreshes", workers, st, n, 2*n, n)
		}
		if workers == 1 {
			want = st
		} else if st != want {
			t.Errorf("workers=%d: stats %+v, serial %+v", workers, st, want)
		}
	}
}

// Systems built from runs of identical chiplets, where the compiled
// path shares one cell (and one communication cell) per run, must
// still match the reference path bit for bit.
func TestCompiledMonteCarloMatchesReferenceRepeatedChiplets(t *testing.T) {
	d := db()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(27))
	evaluated := 0
	for trial := 0; trial < 12; trial++ {
		base := testcases.Random(rng, d)
		var runs []core.Chiplet
		for _, c := range base.Chiplets {
			for k := 0; k < 1+rng.Intn(4); k++ {
				c.Name = fmt.Sprintf("%s-%d", c.Name, k)
				runs = append(runs, c)
			}
		}
		base.Chiplets = runs
		seed := rng.Int63()
		want, refErr := RunReference(ctx, base, d, DefaultSpread(), 30, seed)
		got, err := RunCtx(ctx, base, d, DefaultSpread(), 30, seed, engine.WithWorkers(2))
		if refErr != nil {
			if err == nil {
				t.Fatalf("trial %d: reference failed (%v) but compiled run succeeded", trial, refErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !distBitIdentical(got, want) {
			t.Fatalf("trial %d (%d chiplets, arch %v): distribution differs\nwant %+v\ngot  %+v",
				trial, len(base.Chiplets), base.Packaging.Arch, want, got)
		}
		evaluated++
	}
	if evaluated < 6 {
		t.Fatalf("only %d of 12 trials evaluated cleanly", evaluated)
	}
}
