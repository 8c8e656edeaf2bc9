package serve

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/explore"
	"ecochip/internal/kernel"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

var ga102Nodes = []int{7, 10, 14}

func ga102(t *testing.T, db *tech.DB) *core.System {
	t.Helper()
	return testcases.GA102(db, 7, 14, 10, false)
}

func samePoint(a, b explore.Point) bool {
	if len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	return math.Float64bits(a.EmbodiedKg) == math.Float64bits(b.EmbodiedKg) &&
		math.Float64bits(a.TotalKg) == math.Float64bits(b.TotalKg) &&
		math.Float64bits(a.CostUSD) == math.Float64bits(b.CostUSD) &&
		math.Float64bits(a.PackageAreaMM2) == math.Float64bits(b.PackageAreaMM2)
}

func assertSamePoints(t *testing.T, want, got []explore.Point, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !samePoint(want[i], got[i]) {
			t.Fatalf("%s: point %d differs\nwant %+v\ngot  %+v", label, i, want[i], got[i])
		}
	}
}

// A served sweep — cold and warm — must carry the exact bits of a
// direct compile-and-run, and the second request must be a cache hit.
func TestSweepParityWarmAndCold(t *testing.T) {
	db := tech.Default()
	sys := ga102(t, db)
	plan, err := explore.Compile(sys, db, ga102Nodes, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	srv := NewServer(db, Config{})
	req := &SweepRequest{System: sys, Nodes: ga102Nodes}
	cold, err := srv.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Front || cold.Total != plan.Combos() {
		t.Fatalf("response shape: front=%v total=%d, want full sweep of %d", cold.Front, cold.Total, plan.Combos())
	}
	assertSamePoints(t, want, cold.Points, "cold sweep")

	warm, err := srv.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, warm.Points, "warm sweep")
	if warm.Key != cold.Key {
		t.Fatalf("keys diverge: %s vs %s", warm.Key, cold.Key)
	}
	s := srv.Stats().Sweeps
	if s.Builds != 1 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("sweep cache stats = %+v, want 1 build / 1 hit / 1 miss", s)
	}
}

// Objectives reduce the served sweep to the Pareto front, bit-identical
// to the plan's own front.
func TestSweepFrontParity(t *testing.T) {
	db := tech.Default()
	sys := ga102(t, db)
	plan, err := explore.Compile(sys, db, ga102Nodes, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want, total, err := plan.ParetoFrontCtx(context.Background(),
		[]explore.Metric{func(p explore.Point) float64 { return p.EmbodiedKg }, func(p explore.Point) float64 { return p.CostUSD }})
	if err != nil {
		t.Fatal(err)
	}

	srv := NewServer(db, Config{})
	resp, err := srv.Sweep(context.Background(), &SweepRequest{
		System: sys, Nodes: ga102Nodes, Objectives: []string{"embodied", "cost"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Front || resp.Total != total {
		t.Fatalf("response shape: front=%v total=%d, want front of %d", resp.Front, resp.Total, total)
	}
	assertSamePoints(t, want, resp.Points, "served front")
}

// A swap what-if must return the exact sweep point of the swapped
// assignment — checked against the full cold sweep, not EvalPoint.
func TestWhatIfSwapParity(t *testing.T) {
	db := tech.Default()
	sys := ga102(t, db)
	plan, err := explore.Compile(sys, db, ga102Nodes, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	all, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	srv := NewServer(db, Config{})
	req := &WhatIfRequest{
		System: sys,
		Nodes:  ga102Nodes,
		Swap:   map[string]int{sys.Chiplets[0].Name: 10},
	}
	resp, err := srv.WhatIf(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != "sweep" || resp.Point == nil {
		t.Fatalf("response = %+v, want a sweep-sourced point", resp)
	}
	assignment := []int{10, sys.Chiplets[1].NodeNm, sys.Chiplets[2].NodeNm}
	var want *explore.Point
	for i := range all {
		if reflect.DeepEqual(all[i].Nodes, assignment) {
			want = &all[i]
			break
		}
	}
	if want == nil {
		t.Fatalf("assignment %v absent from the sweep", assignment)
	}
	if !samePoint(*want, *resp.Point) {
		t.Fatalf("swap point differs\nwant %+v\ngot  %+v", *want, *resp.Point)
	}

	// Warm repeat: same bits, plan cache hit.
	again, err := srv.WhatIf(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !samePoint(*resp.Point, *again.Point) {
		t.Fatal("warm swap diverged from cold swap")
	}
	if s := srv.Stats().Sweeps; s.Builds != 1 || s.Hits != 1 {
		t.Fatalf("sweep cache stats = %+v, want 1 build / 1 hit", s)
	}
}

// applyPerturb mirrors the server's perturbation recipe for reference
// evaluation.
func applyPerturb(sys *core.System, areaScale map[string]float64, volumeScale float64) *core.System {
	out := *sys
	out.Chiplets = append([]core.Chiplet(nil), sys.Chiplets...)
	for i := range out.Chiplets {
		if f, ok := areaScale[out.Chiplets[i].Name]; ok {
			out.Chiplets[i].Transistors *= f
		}
	}
	if volumeScale != 0 {
		vol := out.SystemVolume
		if vol == 0 {
			vol = core.DefaultVolume
		}
		out.SystemVolume = max(1, int(float64(vol)*volumeScale))
		for i := range out.Chiplets {
			parts := out.Chiplets[i].ManufacturedParts
			if parts == 0 {
				parts = core.DefaultVolume
			}
			out.Chiplets[i].ManufacturedParts = max(1, int(float64(parts)*volumeScale))
		}
	}
	return &out
}

func assertTotalsMatchReport(t *testing.T, rep *core.Report, tot *kernel.Totals, label string) {
	t.Helper()
	checks := []struct {
		name      string
		want, got float64
	}{
		{"MfgKg", rep.MfgKg, tot.MfgKg},
		{"DesignKg", rep.DesignKg, tot.DesignKg},
		{"HIKg", rep.HIKg, tot.HIKg},
		{"NREKg", rep.NREKg, tot.NREKg},
		{"OperationalKg", rep.OperationalKg, tot.OperationalKg},
		{"EmbodiedKg", rep.EmbodiedKg(), tot.EmbodiedKg()},
		{"TotalKg", rep.TotalKg(), tot.TotalKg()},
	}
	for _, c := range checks {
		if math.Float64bits(c.want) != math.Float64bits(c.got) {
			t.Fatalf("%s: %s = %g, want %g (bit-exact)", label, c.name, c.got, c.want)
		}
	}
}

// Perturbation what-ifs (area scale, volume scale, both) must carry the
// exact bits of a from-scratch evaluation of the perturbed system.
func TestWhatIfPerturbParity(t *testing.T) {
	db := tech.Default()
	sys := ga102(t, db)
	srv := NewServer(db, Config{})

	cases := []struct {
		name   string
		area   map[string]float64
		volume float64
	}{
		{"area", map[string]float64{sys.Chiplets[0].Name: 1.17}, 0},
		{"volume", nil, 3.5},
		{"both", map[string]float64{sys.Chiplets[1].Name: 0.8}, 0.25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := applyPerturb(sys, tc.area, tc.volume)
			rep, err := ref.Evaluate(db)
			if err != nil {
				t.Fatal(err)
			}
			req := &WhatIfRequest{System: sys, AreaScale: tc.area, VolumeScale: tc.volume}
			for pass, label := range []string{"cold", "warm"} {
				resp, err := srv.WhatIf(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if resp.Source != "param" || resp.Totals == nil {
					t.Fatalf("%s: response = %+v, want param-sourced totals", label, resp)
				}
				assertTotalsMatchReport(t, rep, resp.Totals, label)
				_ = pass
			}
		})
	}
	// One param plan serves every perturbation of the same system/db.
	if s := srv.Stats().Params; s.Builds != 1 || s.Hits != 5 {
		t.Fatalf("param cache stats = %+v, want 1 build / 5 hits", s)
	}
}

func TestWhatIfValidation(t *testing.T) {
	db := tech.Default()
	sys := ga102(t, db)
	srv := NewServer(db, Config{})
	bad := []struct {
		name string
		req  *WhatIfRequest
	}{
		{"no system", &WhatIfRequest{}},
		{"empty", &WhatIfRequest{System: sys}},
		{"swap and perturb", &WhatIfRequest{System: sys, Nodes: ga102Nodes,
			Swap: map[string]int{sys.Chiplets[0].Name: 10}, VolumeScale: 2}},
		{"swap without nodes", &WhatIfRequest{System: sys,
			Swap: map[string]int{sys.Chiplets[0].Name: 10}}},
		{"swap unknown chiplet", &WhatIfRequest{System: sys, Nodes: ga102Nodes,
			Swap: map[string]int{"nope": 10}}},
		{"swap outside candidates", &WhatIfRequest{System: sys, Nodes: ga102Nodes,
			Swap: map[string]int{sys.Chiplets[0].Name: 3}}},
		{"area unknown chiplet", &WhatIfRequest{System: sys,
			AreaScale: map[string]float64{"nope": 1.1}}},
		{"area non-positive", &WhatIfRequest{System: sys,
			AreaScale: map[string]float64{sys.Chiplets[0].Name: 0}}},
		{"volume negative", &WhatIfRequest{System: sys, VolumeScale: -1}},
	}
	for _, tc := range bad {
		if _, err := srv.WhatIf(context.Background(), tc.req); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// A served disaggregation — cold and warm — must match the one-shot
// explore entry point bit-for-bit.
func TestDisaggregateParityWarmAndCold(t *testing.T) {
	db := tech.Default()
	sys, err := testcases.EPYC(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := explore.DisaggregateCtx(context.Background(), sys, db)
	if err != nil {
		t.Fatal(err)
	}

	srv := NewServer(db, Config{})
	req := &DisaggregateRequest{System: sys}
	for _, label := range []string{"cold", "warm"} {
		resp, err := srv.Disaggregate(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if math.Float64bits(resp.EmbodiedKg) != math.Float64bits(want.EmbodiedKg) ||
			math.Float64bits(resp.InitialKg) != math.Float64bits(want.InitialKg) ||
			resp.Steps != want.Steps || !reflect.DeepEqual(resp.Groups, want.Groups) {
			t.Fatalf("%s run diverged\nwant %+v steps=%d groups=%v\ngot  %+v", label, want.EmbodiedKg, want.Steps, want.Groups, resp)
		}
	}
	if s := srv.Stats().Disaggregates; s.Builds != 1 || s.Hits != 1 {
		t.Fatalf("disaggregate cache stats = %+v, want 1 build / 1 hit", s)
	}
}

// A streamed front must return the exact barrier front and emit at
// least one complete snapshot.
func TestStreamFrontParity(t *testing.T) {
	db := tech.Default()
	sys := ga102(t, db)
	plan, err := explore.Compile(sys, db, ga102Nodes, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := plan.ParetoFrontCtx(context.Background(),
		[]explore.Metric{func(p explore.Point) float64 { return p.EmbodiedKg }, func(p explore.Point) float64 { return p.CostUSD }})
	if err != nil {
		t.Fatal(err)
	}

	srv := NewServer(db, Config{})
	var snaps int
	var lastDone int
	resp, err := srv.StreamFront(context.Background(), &SweepRequest{
		System: sys, Nodes: ga102Nodes, Objectives: []string{"embodied", "cost"},
	}, func(s explore.FrontSnapshot) error {
		snaps++
		lastDone = s.BlocksDone
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, resp.Points, "streamed front")
	if snaps == 0 {
		t.Fatal("no snapshots emitted")
	}
	if lastDone == 0 {
		t.Fatal("final snapshot reports zero blocks done")
	}
}

func TestStreamFrontNeedsObjectives(t *testing.T) {
	db := tech.Default()
	sys := ga102(t, db)
	srv := NewServer(db, Config{})
	_, err := srv.StreamFront(context.Background(), &SweepRequest{System: sys, Nodes: ga102Nodes}, nil)
	if err == nil {
		t.Fatal("objective-less stream accepted")
	}
}
