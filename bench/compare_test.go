package main

import (
	"math"
	"testing"
)

func TestQuartileValuesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(data, n=4).
	for _, c := range []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 2, 7, 7, 4.5}, 2, 4.5, 7},
	} {
		q1, m, q3 := quartileValues(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartileValues(%v) = %v, %v, %v; want %v, %v, %v", c.data, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// series returns n values spread evenly over center ± width/2,
// interleaved so consecutive runs alternate around the center.
func series(n int, center, width float64) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		k := float64(i/2) / float64(max(n/2, 1))
		if i%2 == 1 {
			k = -k
		}
		vs[i] = center + k*width/2
	}
	return vs
}

func TestJudge(t *testing.T) {
	throughput := specMetric{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	latency := specMetric{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		name string
		m    specMetric
		p, c []float64
		want string
	}{
		{"clear gain", throughput, series(10, 100, 2), series(10, 120, 2), improved},
		{"clear gain, lower is better", latency, series(10, 10, 0.2), series(10, 8, 0.2), improved},
		{"gain on too few pairs", throughput, series(9, 100, 2), series(9, 120, 2), unchanged},
		{"gain inside the parent's spread", throughput, series(10, 100, 8), append([]float64{99}, series(9, 103, 0.1)...), unchanged},
		{"regression past the bound", throughput, series(10, 100, 2), series(10, 85, 2), regressed},
		{"latency regression past the bound", latency, series(10, 10, 0.2), series(10, 11.5, 0.2), regressed},
		{"within the bound", latency, series(10, 10, 0.2), series(10, 10.5, 0.2), unchanged},
		{"noisy parent", latency, series(10, 10, 4), series(10, 10.5, 4), unresolved},
		{"noisy parent, change better everywhere", latency, series(10, 10, 4), series(10, 5, 1), improved},
		{"ties count for neither side", throughput, series(10, 100, 0), series(10, 100, 0), unchanged},
	} {
		got := judge("w", c.m, c.p, c.c, 0, 0)
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %s (wins %d/%d, parent %+v, change %+v), want %s",
				c.name, got.Verdict, got.Wins, got.Pairs, got.Parent, got.Change, c.want)
		}
	}
}

// runsOf builds a run file of one ops_per_s value per round and
// workload; a NaN stands for a run that ended without a result.
func runsOf(vals map[string][]float64) *runFile {
	f := &runFile{}
	for w, vs := range vals {
		for i, v := range vs {
			r := runRecord{Workload: w, Round: i, Result: result{Correct: true, Attempted: 100}}
			if math.IsNaN(v) {
				r.Error = "exit status 1"
				r.Result = result{}
			} else {
				r.Result.Metrics = map[string]metric{"ops_per_s": {v, "1/s"}}
			}
			f.Runs = append(f.Runs, r)
		}
	}
	return f
}

var opsPerS = []specMetric{{Name: "ops_per_s", Better: "higher", Bound: 0.1}}

func verdicts(rows []compareRow) map[string]string {
	got := map[string]string{}
	for _, r := range rows {
		got[r.Workload] = r.Verdict
	}
	return got
}

func TestCompareRunsPairsPerWorkload(t *testing.T) {
	parent := runsOf(map[string][]float64{"sweep-262k": series(10, 100, 2), "shard-tcp": series(10, 50, 1)})
	change := runsOf(map[string][]float64{"sweep-262k": series(10, 130, 2), "shard-tcp": series(10, 40, 1)})
	rows := compareRuns(parent, change, opsPerS)
	if got := verdicts(rows); len(rows) != 2 || got["sweep-262k"] != improved || got["shard-tcp"] != regressed {
		t.Fatalf("verdicts %v, want sweep-262k improved and shard-tcp regressed", got)
	}
}

// TestCompareFailuresRegress checks that more failures on the change's
// side is a regression whatever its timings, and that a run ending
// without a result neither shifts the pairing of later rounds nor hides
// its workload.
func TestCompareFailuresRegress(t *testing.T) {
	parent := runsOf(map[string][]float64{"sweep-262k": series(10, 100, 2), "serve-mix": series(10, 100, 2)})
	changeVals := series(10, 130, 2)
	changeVals[3] = math.NaN()
	change := runsOf(map[string][]float64{"sweep-262k": changeVals, "serve-mix": series(10, 130, 2)})
	for i := range change.Runs {
		if change.Runs[i].Workload == "serve-mix" && change.Runs[i].Round == 5 {
			change.Runs[i].Result.Failed = 1
			change.Runs[i].Result.Correct = false
		}
	}
	rows := compareRuns(parent, change, opsPerS)
	if got := verdicts(rows); got["sweep-262k"] != regressed || got["serve-mix"] != regressed {
		t.Fatalf("verdicts %v, want both regressed: the change failed where the parent did not", got)
	}
	for _, r := range rows {
		if r.Workload == "sweep-262k" && (r.Pairs != 9 || r.Wins != 9 || r.ChangeFailed != 1) {
			t.Errorf("sweep-262k: %d/%d wins, %d failures; want 9/9 and 1", r.Wins, r.Pairs, r.ChangeFailed)
		}
	}

	// Every run of the change failing leaves no metric, but a row.
	dead := runsOf(map[string][]float64{"sweep-262k": {math.NaN(), math.NaN()}})
	rows = compareRuns(runsOf(map[string][]float64{"sweep-262k": {100, 101}}), dead, opsPerS)
	if len(rows) != 1 || rows[0].Verdict != regressed {
		t.Fatalf("rows %+v, want one regressed row", rows)
	}

	// Equal failures on both sides do not by themselves regress.
	same := runsOf(map[string][]float64{"sweep-262k": series(10, 100, 2)})
	same.Runs[0].Result.Failed = 2
	if got := verdicts(compareRuns(same, same, opsPerS)); got["sweep-262k"] != unchanged {
		t.Fatalf("verdicts %v, want unchanged", got)
	}
}
