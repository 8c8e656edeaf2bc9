package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// spec is BENCHMARK.json: the workloads, and each metric's unit,
// direction and regression bound.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(dir string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(dir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// runFile records a set of runs and each metric's quartiles per
// workload; compare reads two of them.
type runFile struct {
	Machine machine                         `json:"machine"`
	Seconds float64                         `json:"seconds"`
	Trace   int                             `json:"trace"`
	Runs    []runRecord                     `json:"runs"`
	Summary map[string]map[string]quartiles `json:"summary"`
}

// runRecord is one run. Runs of the same round on two sides pair up in
// compare. A run that ended without a result line keeps its place, with
// the reason in Error.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Round    int    `json:"round"`
	Error    string `json:"error,omitempty"`
	Result   result `json:"result"`
}

func record(workload string, seed int64, round int, res result, err error) runRecord {
	r := runRecord{Workload: workload, Seed: seed, Round: round, Result: res}
	if err != nil {
		r.Error = err.Error()
	}
	return r
}

func (f *runFile) save(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

type quartiles struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3 - Q1) / Median.
	Spread float64 `json:"spread"`
}

// machine identifies where a set of runs was measured.
type machine struct {
	NProc     int    `json:"nproc"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go_version"`
	CPU       string `json:"cpu"`
}

func thisMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GOARCH: runtime.GOARCH, GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// suiteMain runs every workload `runs` times, each run in its own
// process (so rss_peak_mb is per workload), rotating the workload order
// between rounds. It prints each metric's quartiles against its bound,
// and writes the runs to out when set.
func suiteMain(o options, runs, trace int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecobench:", err)
		return 1
	}
	sp, err := loadSpec(o.dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecobench:", err)
		return 1
	}
	rf := runFile{Machine: thisMachine(), Seconds: o.seconds, Trace: trace}
	status := 0
	for r := 0; r < runs; r++ {
		for k := range workloads {
			w := workloads[(k+r)%len(workloads)]
			seed := o.seed + int64(r)
			res, err := child("", []string{exe}, w.name, seed, o.seconds, trace, o.log)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ecobench: %s seed %d: %v\n", w.name, seed, err)
			}
			if err != nil || !res.Correct {
				status = 1
			}
			rf.Runs = append(rf.Runs, record(w.name, seed, r, res, err))
		}
	}
	rf.Summary = summarize(rf.Runs)
	printSummary(o.log, rf.Summary, sp, trace != 0)
	if out != "" {
		if err := rf.save(out); err != nil {
			fmt.Fprintln(os.Stderr, "ecobench:", err)
			return 1
		}
	}
	return status
}

// child runs one workload in a fresh process, the command argv started
// in dir (empty: the current directory), echoing its report and
// returning its result line.
func child(dir string, argv []string, name string, seed int64, secs float64, trace int, log io.Writer) (result, error) {
	args := append(argv[1:len(argv):len(argv)], "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd := exec.Command(argv[0], args...)
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(log, l)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}

func summarize(runs []runRecord) map[string]map[string]quartiles {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	out := map[string]map[string]quartiles{}
	for w, ms := range values {
		out[w] = map[string]quartiles{}
		for name, vs := range ms {
			q := quartilesOf(vs)
			q.Unit = units[name]
			out[w][name] = q
		}
	}
	return out
}

// printSummary prints, per workload, each metric's median and
// quartiles; end-to-end metrics also show their bound, flagged when the
// spread exceeds a third of it (NOISY) or all of it (OVER).
func printSummary(w io.Writer, sum map[string]map[string]quartiles, sp *spec, traced bool) {
	bounds := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, wl := range workloads {
		ms := sum[wl.name]
		if ms == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s\n  %-40s %14s %14s %14s %8s %8s\n", wl.name, "metric", "q1", "median", "q3", "spread", "bound")
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			q := ms[n]
			line := fmt.Sprintf("  %-40s %14.4f %14.4f %14.4f %7.2f%%", n, q.Q1, q.Median, q.Q3, 100*q.Spread)
			if b, ok := bounds[n]; ok && !traced {
				flag := ""
				switch {
				case n == "setup_s":
				case q.Spread > b:
					flag = "  OVER"
				case q.Spread > b/3:
					flag = "  NOISY"
				}
				line += fmt.Sprintf(" %7.2f%%%s", 100*b, flag)
			}
			fmt.Fprintln(w, line)
		}
	}
}
