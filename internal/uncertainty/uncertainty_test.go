package uncertainty

import (
	"context"
	"testing"

	"ecochip/internal/engine"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

func db() *tech.DB { return tech.Default() }

func TestRunErrors(t *testing.T) {
	base := testcases.GA102(db(), 7, 14, 10, false)
	if _, err := RunCtx(context.Background(), base, db(), DefaultSpread(), 5, 1); err == nil {
		t.Error("too few samples should fail")
	}
	bad := DefaultSpread()
	bad.EPA = 0.9
	if _, err := RunCtx(context.Background(), base, db(), bad, 100, 1); err == nil {
		t.Error("excessive spread should fail")
	}
	broken := testcases.GA102(db(), 7, 14, 10, false)
	broken.Chiplets[0].Transistors = 0
	if _, err := RunCtx(context.Background(), broken, db(), DefaultSpread(), 100, 1); err == nil {
		t.Error("invalid system should fail")
	}
}

func TestDistributionShape(t *testing.T) {
	base := testcases.GA102(db(), 7, 14, 10, false)
	d, err := RunCtx(context.Background(), base, db(), DefaultSpread(), 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	if d.Samples != 200 {
		t.Errorf("Samples = %d, want 200", d.Samples)
	}
	if !(d.MinKg <= d.P5Kg && d.P5Kg <= d.P50Kg && d.P50Kg <= d.P95Kg && d.P95Kg <= d.MaxKg) {
		t.Errorf("percentiles out of order: %+v", d)
	}
	if d.MeanKg <= 0 {
		t.Error("mean must be positive")
	}
	// The point estimate must fall inside the sampled range.
	rep, err := base.Evaluate(db())
	if err != nil {
		t.Fatal(err)
	}
	point := rep.EmbodiedKg()
	if point < d.MinKg || point > d.MaxKg {
		t.Errorf("point estimate %.1f outside sampled range [%.1f, %.1f]", point, d.MinKg, d.MaxKg)
	}
	// With ±20% input spreads the output spread should be noticeable
	// but bounded.
	rs := d.RelativeSpread()
	if rs <= 0.01 || rs > 1 {
		t.Errorf("relative spread %.3f implausible", rs)
	}
}

func TestDeterministicSeed(t *testing.T) {
	base := testcases.GA102(db(), 7, 14, 10, false)
	d1, err := RunCtx(context.Background(), base, db(), DefaultSpread(), 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := RunCtx(context.Background(), base, db(), DefaultSpread(), 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("same seed must reproduce the distribution exactly")
	}
	d3, err := RunCtx(context.Background(), base, db(), DefaultSpread(), 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d3 {
		t.Error("different seeds should differ")
	}
}

func TestZeroSpreadCollapses(t *testing.T) {
	base := testcases.GA102(db(), 7, 14, 10, false)
	d, err := RunCtx(context.Background(), base, db(), Spread{}, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxKg-d.MinKg > 1e-9 {
		t.Errorf("zero spread should collapse the distribution, got range %g", d.MaxKg-d.MinKg)
	}
	rep, _ := base.Evaluate(db())
	if diff := d.P50Kg - rep.EmbodiedKg(); diff > 1e-9 || diff < -1e-9 {
		t.Error("zero-spread median should equal the point estimate")
	}
}

// The base system and shared DB must not be mutated.
func TestRunDoesNotMutate(t *testing.T) {
	base := testcases.GA102(db(), 7, 14, 10, false)
	beforeCI := base.Mfg.CarbonIntensity
	beforePower := base.Design.PowerW
	if _, err := RunCtx(context.Background(), base, db(), DefaultSpread(), 50, 3); err != nil {
		t.Fatal(err)
	}
	if base.Mfg.CarbonIntensity != beforeCI || base.Design.PowerW != beforePower {
		t.Error("Run mutated the base system")
	}
	if db().MustGet(7).EPA != 3.5 {
		t.Error("Run mutated the shared tech database")
	}
}

// The fixed-seed distribution must be bit-identical at any worker count:
// every sample owns a seed-derived RNG stream, so scheduling cannot leak
// into the draws.
func TestWorkerCountInvariance(t *testing.T) {
	base := testcases.GA102(db(), 7, 14, 10, false)
	var ref Distribution
	for i, workers := range []int{1, 2, 5, 16} {
		d, err := RunCtx(context.Background(), base, db(), DefaultSpread(), 120, 99,
			engine.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = d
		} else if d != ref {
			t.Fatalf("workers=%d changed the distribution:\nref %+v\ngot %+v", workers, ref, d)
		}
	}
}

// Per-sample streams must be pairwise disjoint across every draw a
// sample can make, not just their first draws: a run of n samples draws
// up to 4n uniforms and all of them must be distinct values. (This
// catches the overlapping-counter construction where sample i's draw k
// equals sample i+1's draw k-1 because adjacent base states sit one
// stream stride apart.)
func TestSampleStreamsDisjoint(t *testing.T) {
	const samples, draws = 1000, 4
	seen := make(map[uint64][2]int, samples*draws)
	for i := 0; i < samples; i++ {
		rng := newSampleStream(2024, i)
		for k := 0; k < draws; k++ {
			v := rng.next()
			if prev, dup := seen[v]; dup {
				t.Fatalf("sample %d draw %d collides with sample %d draw %d", i, k, prev[0], prev[1])
			}
			seen[v] = [2]int{i, k}
		}
	}
	a, b := newSampleStream(1, 0), newSampleStream(2, 0)
	if a.next() == b.next() {
		t.Error("different run seeds must give different streams")
	}
}

// Draws must be uniform in [0, 1): a coarse histogram over many draws
// catches a broken mixing or scaling constant.
func TestSampleStreamUniform(t *testing.T) {
	const draws, bins = 100_000, 10
	var hist [bins]int
	rng := newSampleStream(7, 0)
	for i := 0; i < draws; i++ {
		v := rng.float64()
		if v < 0 || v >= 1 {
			t.Fatalf("draw %g outside [0, 1)", v)
		}
		hist[int(v*bins)]++
	}
	for b, n := range hist {
		if n < draws/bins*8/10 || n > draws/bins*12/10 {
			t.Fatalf("bin %d holds %d of %d draws; stream is not plausibly uniform", b, n, draws)
		}
	}
}
