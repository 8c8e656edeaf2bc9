package sensitivity

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/testcases"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// The tornado of the default-RDL 8-CCD EPYC and of GA102(7,10,14) at
// ecodse's default rel 0.25 keeps the exact bits of every factor's
// base, low and high C_tot, in rank order. The goldens store
// Float64bits hex, so a shift in any float operation on the compiled
// parameter path fails here even when the parity test against
// TornadoReference would shift with it.
func TestTornadoGolden(t *testing.T) {
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
			res, err := TornadoCtx(context.Background(), c.sys, d, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			fmt.Fprintf(&out, "tornado rel=0.25 %d factors\n", len(res))
			for _, r := range res {
				fmt.Fprintf(&out, "%s base=%016x low=%016x high=%016x\n", r.Factor,
					math.Float64bits(r.BaseKg), math.Float64bits(r.LowKg), math.Float64bits(r.HighKg))
			}
			checkGolden(t, "tornado-"+c.name+".txt", out.String())
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
