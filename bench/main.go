// Command ecobench is the end-to-end benchmark of ecochip. It drives four
// workloads through the public package calls the shipped binaries make
// (ecoexp, ecodse, ecoserve, ecoreplica), checks every result against
// committed golden hashes, and prints each metric by name and unit.
//
// From the repository root:
//
//	bash bench/run.sh --workload sweep-262k --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh                      # all four, each in its own process
//	bash bench/run.sh --trace 1            # per-layer metrics from traced runs
//	bash bench/run.sh -runs 10 -o runs.json
//	bash bench/run.sh compare parent.json change.json
//	bash bench/run.sh pair -o dir PARENT_CHECKOUT CHANGE_CHECKOUT
//	bash bench/run.sh curve -o curve.json  # sharding crossover curve
//	bash bench/run.sh -update-golden
//
// A single-workload run prints human-readable lines and, last, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var workloads = []*workload{dseSession, sweep262k, serveMix, shardTCP}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the settings of one benchmark invocation.
type options struct {
	seed    int64
	seconds float64
	// dir is the benchmark's directory (holding testdata/); traced runs
	// write their span files to out.
	dir, out string
	log      io.Writer
}

// setupRuns is how many fresh set-ups a run times; setup_s is their
// median and the last one is measured.
const setupRuns = 5

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "pair":
			os.Exit(pairMain(os.Args[2:], os.Stdout))
		case "curve":
			os.Exit(curveMain(os.Args[2:], os.Stdout))
		}
	}
	fs := flag.NewFlagSet("ecobench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: dse-session, sweep-262k, serve-mix or shard-tcp (default: all four, each in its own process)")
	seed := fs.Int64("seed", 1, "workload seed: picks the order and mix of operations from the fixed catalogue")
	seconds := fs.Float64("seconds", 25, "measured seconds of each run")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	update := fs.Bool("update-golden", false, "rewrite testdata/golden.json from the current code and exit")
	runs := fs.Int("runs", 1, "all workloads: runs per workload, with seeds seed, seed+1, ...")
	out := fs.String("o", "", "all workloads: write every run and each metric's quartiles to this JSON file")
	fs.Parse(os.Args[1:])

	dir, err := benchDir()
	if err != nil {
		fatal(err)
	}
	o := options{seed: *seed, seconds: *seconds, dir: dir, out: filepath.Join(dir, "out"), log: os.Stdout}
	ctx := context.Background()
	switch {
	case *update:
		g := goldens{}
		for _, w := range workloads {
			if err := recordGoldens(ctx, w, g); err != nil {
				fatal(err)
			}
		}
		if err := g.save(goldenPath(dir)); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d golden hashes to %s\n", len(g), goldenPath(dir))
	case *name == "":
		os.Exit(suiteMain(o, *runs, *trace, *out))
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		gold, err := loadGoldens(goldenPath(dir))
		if err != nil {
			fatal(err)
		}
		var res result
		if *trace != 0 {
			res, err = traceRun(ctx, w, gold, o)
		} else {
			res, err = benchRun(ctx, w, gold, o)
		}
		if err != nil {
			fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ecobench:", err)
	os.Exit(1)
}

// benchDir finds the benchmark directory from the repository root or
// from inside it.
func benchDir() (string, error) {
	for _, d := range []string{"bench", "."} {
		if _, err := os.Stat(filepath.Join(d, "run.sh")); err == nil {
			return d, nil
		}
	}
	return "", errors.New("run from the repository root: bench/run.sh not found")
}

func goldenPath(dir string) string { return filepath.Join(dir, "testdata", "golden.json") }

// benchRun measures one workload untraced and returns its end-to-end
// metrics.
func benchRun(ctx context.Context, w *workload, gold goldens, o options) (result, error) {
	var inst instance
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, err
			}
		}
		// Collect the previous instance first, so that a set-up does not
		// pay for its predecessor's garbage.
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(ctx, false); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ph := runPhase(ctx, w, inst, newDeck(inst, o.seed), seconds(o.seconds), gold, nil, o.log)
	if err := inst.close(); err != nil {
		return result{}, err
	}
	m, floorErr := endToEnd(w, ph, time.Duration(median(setups)*float64(time.Second)))
	res := result{Correct: ph.failed == 0, Attempted: ph.ops, Failed: ph.failed, Metrics: m}
	if floorErr != nil {
		fmt.Fprintf(o.log, "%s: INVALID percentile: %v\n", w.name, floorErr)
	}
	fmt.Fprintf(o.log, "%s: %d ops (%d failed) in %.2f s, %d closed-loop client(s), seed %d\n",
		w.name, ph.ops, ph.failed, ph.wall.Seconds(), w.clients, o.seed)
	fmt.Fprintf(o.log, "host speed probe: median %.1f us on one thread; latencies scaled per operation, other times x %.4f\n",
		ph.speed.oneUS, ph.speed.overall)
	printMetrics(o.log, m, ph.ops)
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func printMetrics(w io.Writer, m map[string]metric, samples int) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		if samples > 0 && strings.HasPrefix(n, "latency_") {
			note = fmt.Sprintf("  (n=%d)", samples)
		}
		fmt.Fprintf(w, "  %-40s %14.4f %-6s%s\n", n, m[n].Value, m[n].Unit, note)
	}
}

// traceRun is the traced run of w: half the time untraced and half
// traced (their difference is the tracing overhead), then a short traced
// phase of every other workload, so each per-layer metric is measured
// on the workload it belongs to. Span files go to o.out.
func traceRun(ctx context.Context, w *workload, gold goldens, o options) (result, error) {
	half := seconds(o.seconds / 2)
	short := seconds(min(2.5, max(0.25, o.seconds/8)))

	inst, err := w.setup(ctx, false)
	if err != nil {
		return result{}, err
	}
	plain := runPhase(ctx, w, inst, newDeck(inst, o.seed), half, gold, nil, o.log)
	if err := inst.close(); err != nil {
		return result{}, err
	}
	res := result{Attempted: plain.ops, Failed: plain.failed, Metrics: map[string]metric{}}
	p50 := map[string]float64{}
	order := []*workload{w}
	for _, x := range workloads {
		if x != w {
			order = append(order, x)
		}
	}
	for _, x := range order {
		dur := short
		if x == w {
			dur = half
		}
		inst, err := x.setup(ctx, true)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", x.name, err)
		}
		tr := newTracer()
		ph := runPhase(ctx, x, inst, newDeck(inst, o.seed), dur, gold, tr, o.log)
		lm, err := inst.layers(ctx, tr)
		if cerr := inst.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", x.name, err)
		}
		for k, v := range lm {
			res.Metrics[k] = v
		}
		res.Attempted += ph.ops
		res.Failed += ph.failed
		lat := append([]time.Duration(nil), ph.lat...)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p50[x.name] = ms(percentile(lat, 0.5))
		tr.report(o.log, x.name)
		if err := tr.write(o.out, x.name); err != nil {
			return result{}, err
		}
		if x == w {
			res.Metrics["bench.span_coverage_pct"] = metric{100 * tr.coverage(), "%"}
			// Both at the reference host speed, as ops_per_s is.
			traced := float64(ph.ops) / ph.wall.Seconds() / ph.speed.overall
			untraced := float64(plain.ops) / plain.wall.Seconds() / plain.speed.overall
			res.Metrics["bench.trace_overhead_pct"] = metric{100 * (1 - traced/untraced), "%"}
			fmt.Fprintf(o.log, "tracing overhead on %s: %.1f ops/s untraced, %.1f ops/s traced at reference speed (%.2f%%)\n",
				w.name, untraced, traced, res.Metrics["bench.trace_overhead_pct"].Value)
		}
	}
	res.Metrics["shard.vs_local_ratio"] = metric{p50[shardTCP.name] / p50[sweep262k.name], "ratio"}
	res.Correct = res.Failed == 0
	printMetrics(o.log, res.Metrics, 0)
	return res, nil
}
