package uncertainty

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ecochip/internal/engine"
	"ecochip/internal/testcases"
)

func distBitIdentical(a, b Distribution) bool {
	return a.Samples == b.Samples &&
		math.Float64bits(a.MeanKg) == math.Float64bits(b.MeanKg) &&
		math.Float64bits(a.P5Kg) == math.Float64bits(b.P5Kg) &&
		math.Float64bits(a.P50Kg) == math.Float64bits(b.P50Kg) &&
		math.Float64bits(a.P95Kg) == math.Float64bits(b.P95Kg) &&
		math.Float64bits(a.MinKg) == math.Float64bits(b.MinKg) &&
		math.Float64bits(a.MaxKg) == math.Float64bits(b.MaxKg)
}

// The compiled Monte Carlo must be bit-identical to the per-evaluation
// reference path — same seed-derived draws, same clamping, same float
// bits in every distribution field — across random systems, random
// spreads, seeds and worker counts. This test guards both the sandbox
// node perturbation (replacing per-sample db.Clone) and the per-sample
// dirty-set declaration (floorplan/package-carbon reuse).
func TestCompiledMonteCarloMatchesReferenceRandomized(t *testing.T) {
	d := db()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20260727))

	evaluated := 0
	for trial := 0; trial < 20; trial++ {
		base := testcases.Random(rng, d)
		spread := Spread{
			DefectDensity: 0.5 * rng.Float64(),
			EPA:           0.5 * rng.Float64(),
			FabIntensity:  0.5 * rng.Float64(),
			DesignTime:    0.5 * rng.Float64(),
		}
		if trial%5 == 0 {
			spread.EPA = 0 // exercise the draw-skipping zero-spread path
		}
		seed := rng.Int63()
		n := 40 + rng.Intn(40)

		want, refErr := RunReference(ctx, base, d, spread, n, seed, engine.WithWorkers(2))
		for _, workers := range []int{1, 4} {
			got, err := RunCtx(ctx, base, d, spread, n, seed, engine.WithWorkers(workers))
			if refErr != nil {
				if err == nil {
					t.Fatalf("trial %d: reference failed (%v) but compiled run succeeded", trial, refErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d (%s, %d chiplets, arch %v): compiled run failed: %v",
					trial, base.Name, len(base.Chiplets), base.Packaging.Arch, err)
			}
			if !distBitIdentical(got, want) {
				t.Fatalf("trial %d (%d chiplets, arch %v, nre=%v, spread %+v, seed %d, n %d) workers=%d distribution differs\nwant %+v\ngot  %+v",
					trial, len(base.Chiplets), base.Packaging.Arch, base.IncludeNRE, spread, seed, n, workers, want, got)
			}
		}
		if refErr == nil {
			evaluated++
		}
	}
	if evaluated < 10 {
		t.Fatalf("only %d of 20 random trials evaluated cleanly; generator too error-prone", evaluated)
	}
}

// The reference path pins the compiled path on the canonical testcase.
// Note this is parity between the two CURRENT paths, not with releases
// before the compiled kernel: the per-sample math/rand source was
// deliberately replaced with the splitmix64 stream in both paths at
// once, so fixed-seed distributions differ from pre-kernel versions
// (seeded reproducibility is promised within a version, not across).
func TestRunMatchesReferenceCanonical(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false)
	want, err := RunReference(context.Background(), base, d, DefaultSpread(), 200, 2024)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCtx(context.Background(), base, d, DefaultSpread(), 200, 2024)
	if err != nil {
		t.Fatal(err)
	}
	if !distBitIdentical(got, want) {
		t.Fatalf("compiled run diverges from reference:\nwant %+v\ngot  %+v", want, got)
	}
}
