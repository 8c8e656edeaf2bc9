package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func harness(t *testing.T) (goldens, *spec, options) {
	t.Helper()
	gold, err := loadGoldens(goldenPath("."))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(".")
	if err != nil {
		t.Fatal(err)
	}
	return gold, sp, options{seed: 7, seconds: 0.5, dir: ".", out: t.TempDir(), log: new(bytes.Buffer)}
}

// TestWorkloadsRunClean runs each workload briefly at a fixed seed: no
// operation may fail, and every end-to-end metric of BENCHMARK.json is
// printed by name with its unit.
func TestWorkloadsRunClean(t *testing.T) {
	gold, sp, o := harness(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		w := findWorkload(w.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names an unknown workload")
		}
		t.Run(w.name, func(t *testing.T) {
			log := new(bytes.Buffer)
			o.log = log
			res, err := benchRun(context.Background(), w, gold, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%d of %d operations failed:\n%s", res.Failed, res.Attempted, log)
			}
			for _, m := range sp.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !strings.Contains(log.String(), m.Name) {
					t.Errorf("metric %s (%s) not reported: %+v", m.Name, m.Unit, got)
				}
				if got.Value <= 0 {
					t.Errorf("metric %s = %v, want > 0", m.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(sp.EndToEnd) {
				t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(sp.EndToEnd))
			}
		})
	}
}

// TestTraceRunReportsEveryLayerMetric checks that a traced run prints
// every per-layer metric of BENCHMARK.json, with no failed operation and
// child spans covering at least 90% of op wall time.
func TestTraceRunReportsEveryLayerMetric(t *testing.T) {
	gold, sp, o := harness(t)
	o.seconds = 1
	res, err := traceRun(context.Background(), dseSession, gold, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d of %d operations failed:\n%s", res.Failed, res.Attempted, o.log)
	}
	for _, m := range sp.PerLayer {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer metric %s (%s) not reported: %+v", m.Name, m.Unit, got)
		}
	}
	if len(res.Metrics) != len(sp.PerLayer) {
		t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(sp.PerLayer))
	}
	if c := res.Metrics["bench.span_coverage_pct"].Value; c < 90 {
		t.Errorf("child spans cover %.1f%% of op wall time, want >= 90%%", c)
	}
}

// TestGoldensCoverCatalogue checks that the golden file holds exactly
// one hash per catalogue input, and that the TCP-sharded sweep pins the
// same bits as the local one.
func TestGoldensCoverCatalogue(t *testing.T) {
	gold, _, _ := harness(t)
	want := map[string]bool{}
	for _, w := range workloads {
		inst, err := w.setup(context.Background(), false)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range inst.catalogue() {
			k := goldenKey(w.name, it.key)
			if want[k] {
				t.Errorf("duplicate catalogue key %s", k)
			}
			want[k] = true
			if _, ok := gold[k]; !ok {
				t.Errorf("no golden hash for %s", k)
			}
		}
		if err := inst.close(); err != nil {
			t.Fatal(err)
		}
	}
	for k := range gold {
		if !want[k] {
			t.Errorf("golden hash for %s, which no workload issues", k)
		}
	}
	for local, sharded := range map[string]string{
		"sweep-262k/materialize/embodied-cost": "shard-tcp/sweep/embodied-cost",
		"sweep-262k/front/embodied-cost":       "shard-tcp/front/embodied-cost",
		"sweep-262k/front/total-cost":          "shard-tcp/front/total-cost",
		"sweep-262k/front/embodied-area":       "shard-tcp/front/embodied-area",
	} {
		if gold[local] != gold[sharded] {
			t.Errorf("%s = %016x but %s = %016x", local, gold[local], sharded, gold[sharded])
		}
	}
}

// TestDealKeepsTheMix checks that a seed changes the order of a cycle
// but not its composition.
func TestDealKeepsTheMix(t *testing.T) {
	inst, err := serveMix.setup(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	s := inst.(*serveInst)
	kinds := func(seed int64) map[string]int {
		n := map[string]int{}
		d := newDeck(inst, seed)
		for i := 0; i < 25; i++ {
			ix := d.draw()[0]
			kind := s.reqs[ix].kind
			switch {
			case contains(s.cold, ix):
				kind = "cold"
			case contains(s.perturb, ix):
				kind = "perturb"
			}
			n[kind]++
		}
		return n
	}
	want := map[string]int{"whatif": 15, "perturb": 5, "sweep": 2, "stream": 1, "disaggregate": 1, "cold": 1}
	for _, seed := range []int64{1, 2, 99} {
		got := kinds(seed)
		for k, n := range want {
			if got[k] != n {
				t.Errorf("seed %d: %d %s requests per cycle, want %d", seed, got[k], k, n)
			}
		}
	}
}
