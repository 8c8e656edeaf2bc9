package explore

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/testcases"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// checkGolden compares got with the committed golden file, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
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

// hexf renders a float as its exact bits.
func hexf(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// Every floorplan path of the packaging model — the dims-only retained
// tree (fixed-shape RDL, passive and active interposers), silicon
// bridges (which read adjacencies) and flexible shape curves — must
// keep the exact bits of every compiled sweep point and of the
// Disaggregate result on the EPYC and GA102 testcases, and of the merge
// trajectory on a six-way GA102 split (where the greedy search does
// merge). The goldens store Float64bits hex, so any change in a float
// operation on these paths fails here.
func TestPackagingPathsGolden(t *testing.T) {
	d := db()
	epyc, err := testcases.EPYC(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	split, err := testcases.GA102Split(d, 6, pkgcarbon.RDLFanout)
	if err != nil {
		t.Fatal(err)
	}
	systems := []struct {
		name  string
		sys   *core.System
		sweep bool
	}{
		{"epyc4", epyc, true},
		{"ga102", testcases.GA102(d, 7, 14, 10, false), true},
		{"ga102split6", split, false},
	}
	packagings := []struct {
		name     string
		arch     pkgcarbon.Architecture
		flexible bool
	}{
		{"rdl", pkgcarbon.RDLFanout, false},
		{"passive", pkgcarbon.PassiveInterposer, false},
		{"active", pkgcarbon.ActiveInterposer, false},
		{"emib", pkgcarbon.SiliconBridge, false},
		{"rdl-flex", pkgcarbon.RDLFanout, true},
		{"passive-flex", pkgcarbon.PassiveInterposer, true},
	}
	nodes := []int{7, 10, 14}
	ctx := context.Background()
	for _, s := range systems {
		for _, pk := range packagings {
			name := s.name + "-" + pk.name
			t.Run(name, func(t *testing.T) {
				base := *s.sys
				base.Packaging = pkgcarbon.DefaultParams(pk.arch)
				base.Packaging.FlexibleFloorplan = pk.flexible
				var out strings.Builder
				if s.sweep {
					points, err := NodeSweepCtx(ctx, &base, d, nodes, cost.DefaultParams())
					if err != nil {
						t.Fatal(err)
					}
					writeSweep(&out, points)
				}
				plan, err := Disaggregate(&base, d)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "disaggregate steps=%d initial=%s embodied=%s\n",
					plan.Steps, hexf(plan.InitialKg), hexf(plan.EmbodiedKg))
				for _, c := range plan.System.Chiplets {
					fmt.Fprintf(&out, "chiplet %s node=%d transistors=%s\n", c.Name, c.NodeNm, hexf(c.Transistors))
				}
				for _, g := range plan.Groups {
					fmt.Fprintf(&out, "group %v\n", g)
				}
				checkGolden(t, name+".txt", out.String())
			})
		}
	}
}

// writeSweep renders a materialized sweep with every float as hex.
func writeSweep(out *strings.Builder, points []Point) {
	fmt.Fprintf(out, "sweep %d points\n", len(points))
	for _, p := range points {
		fmt.Fprintf(out, "%v embodied=%s total=%s cost=%s pkg=%s\n", p.Nodes,
			hexf(p.EmbodiedKg), hexf(p.TotalKg), hexf(p.CostUSD), hexf(p.PackageAreaMM2))
	}
}

// The two default-RDL sweeps whose floorplan traffic differs most keep
// the exact bits of every materialized point: the 8-CCD EPYC over
// {7,10,14,22}, where nearly every Gray step is a shape-memo hit, and
// GA102(7,10,14) over five nodes, where nearly every step misses the
// memo and lays the package out. The EPYC-8 sweep has 262,144 points,
// so its golden is one SHA-256 over every point's node tuple and the
// Float64bits of its four metrics.
func TestDefaultRDLSweepGolden(t *testing.T) {
	d := db()
	ctx := context.Background()
	t.Run("epyc8-rdl", func(t *testing.T) {
		epyc8, err := testcases.EPYC(d, 8)
		if err != nil {
			t.Fatal(err)
		}
		points, err := NodeSweepCtx(ctx, epyc8, d, []int{7, 10, 14, 22}, cost.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var word [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(word[:], v)
			h.Write(word[:])
		}
		for _, p := range points {
			for _, n := range p.Nodes {
				put(uint64(n))
			}
			for _, v := range []float64{p.EmbodiedKg, p.TotalKg, p.CostUSD, p.PackageAreaMM2} {
				put(math.Float64bits(v))
			}
		}
		checkGolden(t, "epyc8-rdl-sweep.txt", fmt.Sprintf("sweep %d points sha256=%x\n", len(points), h.Sum(nil)))
	})
	t.Run("ga102-rdl", func(t *testing.T) {
		points, err := NodeSweepCtx(ctx, testcases.GA102(d, 7, 10, 14, false), d, []int{7, 10, 14, 22, 28}, cost.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		writeSweep(&out, points)
		checkGolden(t, "ga102-rdl-sweep5.txt", out.String())
	})
}

// The barrier Pareto fronts of symmetric plans — the 8-CCD EPYC under
// every objective pair the sweep benchmark folds plus a three-objective
// front, the 6-CCD EPYC over all seven mask nodes (823,543 points), and
// the six-way GA102 digital split on a passive interposer — keep the
// exact bits, Nodes and order of every front point. The goldens store
// Float64bits hex, so a front path that drops, adds, reorders or
// re-rounds a single point fails here. The EPYC-8 and GA102 cases also
// render ParetoFront over the materialized sweep (ecodse's path)
// against the same files: the two paths are identical by contract, and
// the parity tests that compare them cannot catch a shift in both.
func TestFrontGolden(t *testing.T) {
	d := db()
	epyc8, err := testcases.EPYC(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	epyc6, err := testcases.EPYC(d, 6)
	if err != nil {
		t.Fatal(err)
	}
	ga102, err := testcases.GA102DigitalOnly(d, 6, pkgcarbon.PassiveInterposer)
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]Metric{"embodied": ByEmbodied, "total": ByTotal, "cost": ByCost, "area": ByArea}
	cases := []struct {
		name       string
		sys        *core.System
		nodes      []int
		objectives []string
		// materialized also checks ParetoFront(RunCtx(...)).
		materialized bool
	}{
		{"epyc8", epyc8, []int{7, 10, 14, 22}, []string{"embodied", "cost"}, true},
		{"epyc8", epyc8, []int{7, 10, 14, 22}, []string{"total", "cost"}, true},
		{"epyc8", epyc8, []int{7, 10, 14, 22}, []string{"embodied", "area"}, true},
		{"epyc8", epyc8, []int{7, 10, 14, 22}, []string{"embodied", "cost", "area"}, true},
		{"epyc6-masknodes", epyc6, testcases.MaskNodes, []string{"embodied", "cost"}, false},
		{"ga102digital6-passive", ga102, []int{7, 10, 14, 22}, []string{"embodied", "cost"}, true},
		{"ga102digital6-passive", ga102, []int{7, 10, 14, 22}, []string{"total", "cost", "area"}, true},
	}
	ctx := context.Background()
	for _, c := range cases {
		name := "front-" + c.name + "-" + strings.Join(c.objectives, "-")
		t.Run(name, func(t *testing.T) {
			ms := make([]Metric, len(c.objectives))
			for i, o := range c.objectives {
				ms[i] = named[o]
			}
			plan, err := Compile(c.sys, d, c.nodes, cost.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			front, total, err := plan.ParetoFrontCtx(ctx, ms)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name+".txt", renderFront(front, total))
			if !c.materialized || *update {
				return
			}
			points, err := plan.RunCtx(ctx)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name+".txt", renderFront(ParetoFront(points, ms...), len(points)))
		})
	}
}

// renderFront renders a front of total points with every float as hex.
func renderFront(front []Point, total int) string {
	var out strings.Builder
	fmt.Fprintf(&out, "front %d of %d points\n", len(front), total)
	for _, p := range front {
		fmt.Fprintf(&out, "%v embodied=%s total=%s cost=%s pkg=%s\n", p.Nodes,
			hexf(p.EmbodiedKg), hexf(p.TotalKg), hexf(p.CostUSD), hexf(p.PackageAreaMM2))
	}
	return out.String()
}
