package pkgcarbon

import (
	"math/rand"
	"testing"

	"ecochip/internal/tech"
)

// The scratch-backed Estimator must reproduce Estimate bit for bit for
// flexible (shape-curve) floorplans too.
func TestEstimatorFlexibleMatchesEstimate(t *testing.T) {
	db := tech.Default()
	rng := rand.New(rand.NewSource(13))
	for _, arch := range []Architecture{RDLFanout, SiliconBridge, PassiveInterposer, ActiveInterposer} {
		p := DefaultParams(arch)
		p.FlexibleFloorplan = true
		est, err := NewEstimator(p)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			chiplets := randChiplets(rng, db)
			want, wantErr := Estimate(chiplets, p)
			got, gotErr := est.Estimate(chiplets)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%v trial %d: error mismatch: %v vs %v", arch, trial, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if !resultsBitIdentical(want, got) {
				t.Fatalf("%v trial %d: results differ\nwant %+v\ngot  %+v", arch, trial, want, got)
			}
		}
	}
}

// Estimator.Estimate on flexible floorplans must stay bit-identical to
// a full Estimate across long single-changed-chiplet walks.
func TestEstimateDeltaFlexibleMatchesEstimate(t *testing.T) {
	db := tech.Default()
	sizes := db.Sizes()
	rng := rand.New(rand.NewSource(17))
	for _, arch := range []Architecture{RDLFanout, SiliconBridge, PassiveInterposer} {
		p := DefaultParams(arch)
		p.FlexibleFloorplan = true
		est, err := NewEstimator(p)
		if err != nil {
			t.Fatal(err)
		}
		chiplets := randChiplets(rng, db)
		if _, err := est.Estimate(chiplets); err != nil {
			t.Fatalf("%v: first estimate: %v", arch, err)
		}
		for step := 0; step < 120; step++ {
			i := rng.Intn(len(chiplets))
			if rng.Intn(3) > 0 {
				chiplets[i].AreaMM2 = 5 + rng.Float64()*300
			}
			if rng.Intn(2) == 0 {
				chiplets[i].Node = db.MustGet(sizes[rng.Intn(len(sizes))])
			}
			want, err := Estimate(chiplets, p)
			if err != nil {
				t.Fatalf("%v step %d: %v", arch, step, err)
			}
			got, err := est.Estimate(chiplets)
			if err != nil {
				t.Fatalf("%v step %d: estimator: %v", arch, step, err)
			}
			if !resultsBitIdentical(want, got) {
				t.Fatalf("%v step %d: estimator diverges\nwant %+v\ngot  %+v", arch, step, want, got)
			}
		}
	}
}
