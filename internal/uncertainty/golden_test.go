package uncertainty

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/testcases"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// The Monte Carlo of the default-RDL 8-CCD EPYC and of GA102(7,10,14)
// at ecodse's defaults (500 samples, seed 2024, the default spread)
// keeps the exact bits of every reported statistic. The goldens store
// Float64bits hex, so a shift in any float operation on the compiled
// parameter path, or in the sample streams, fails here even when the
// parity test against RunReference would shift with it.
func TestMonteCarloGolden(t *testing.T) {
	d := db()
	epyc8, err := testcases.EPYC(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sys  *core.System
	}{
		{"epyc8-rdl", epyc8},
		{"ga102-rdl", testcases.GA102(d, 7, 10, 14, false)},
	} {
		t.Run(c.name, func(t *testing.T) {
			dist, err := RunCtx(context.Background(), c.sys, d, DefaultSpread(), 500, 2024)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("mc samples=%d seed=2024\nmean=%016x\np5=%016x\np50=%016x\np95=%016x\nmin=%016x\nmax=%016x\n",
				dist.Samples, math.Float64bits(dist.MeanKg), math.Float64bits(dist.P5Kg),
				math.Float64bits(dist.P50Kg), math.Float64bits(dist.P95Kg),
				math.Float64bits(dist.MinKg), math.Float64bits(dist.MaxKg))
			checkGolden(t, "mc-"+c.name+".txt", got)
		})
	}
}

// checkGolden compares got with the committed golden file, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n%s\nwant:\n%s", path, got, want)
	}
}
