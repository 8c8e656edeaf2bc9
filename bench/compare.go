package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts of compare, per workload and end-to-end metric.
const (
	improved   = "improved"
	regressed  = "regressed"
	unresolved = "unresolved"
	unchanged  = "unchanged"
)

// minPairs is the least number of parent/change pairs a claimed gain
// rests on.
const minPairs = 10

// compareRow is one workload's verdict on one metric. Failed counts the
// failed operations, plus one per run that ended without a result, of
// the workload's runs on each side.
type compareRow struct {
	Workload, Metric           string
	Parent, Change             quartiles
	ParentFailed, ChangeFailed int
	Pairs, Wins                int
	Verdict                    string
}

// compareMain implements `compare parent.json change.json`: it pairs the
// runs of each workload in one file with the runs of the same round in
// the other and judges every end-to-end metric by its BENCHMARK.json
// bound. It exits 1 when any metric regressed.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: ecobench compare parent.json change.json")
		return 2
	}
	sp, err := specHere()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecobench:", err)
		return 1
	}
	var files [2]*runFile
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			files[i] = new(runFile)
			err = json.Unmarshal(b, files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ecobench: %s: %v\n", path, err)
			return 1
		}
	}
	return printCompare(w, compareRuns(files[0], files[1], sp.EndToEnd))
}

func specHere() (*spec, error) {
	dir, err := benchDir()
	if err != nil {
		return nil, err
	}
	return loadSpec(dir)
}

// pairMain implements `pair PARENT CHANGE`, where each argument is a
// checkout holding bench/run.sh. Per round and workload it runs the two
// sides back to back, swapping which goes first every round, so that the
// host's drift falls on both alike; then it compares them as compare
// does. Both run files are written to -o when set.
func pairMain(args []string, log io.Writer) int {
	fs := flag.NewFlagSet("pair", flag.ExitOnError)
	runs := fs.Int("runs", minPairs, "pairs per workload")
	seed := fs.Int64("seed", 1, "seed of the first round; round r runs seed+r on both sides")
	secs := fs.Float64("seconds", 25, "measured seconds of each run")
	out := fs.String("o", "", "directory to write parent.json and change.json to")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: ecobench pair [-runs n] [-seed n] [-seconds s] [-o dir] PARENT CHANGE")
		return 2
	}
	sp, err := specHere()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecobench:", err)
		return 1
	}
	roots := fs.Args()
	var files [2]*runFile
	for i := range files {
		files[i] = &runFile{Machine: thisMachine(), Seconds: *secs}
	}
	for r := 0; r < *runs; r++ {
		for k := range workloads {
			name := workloads[(k+r)%len(workloads)].name
			for i := 0; i < 2; i++ {
				side := (i + r) % 2
				fmt.Fprintf(log, "== round %d, %s, %s\n", r, name, roots[side])
				res, err := child(roots[side], []string{"bash", filepath.Join("bench", "run.sh")}, name, *seed+int64(r), *secs, 0, log)
				files[side].Runs = append(files[side].Runs, record(name, *seed+int64(r), r, res, err))
			}
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "ecobench:", err)
			return 1
		}
		for i, name := range []string{"parent.json", "change.json"} {
			files[i].Summary = summarize(files[i].Runs)
			if err := files[i].save(filepath.Join(*out, name)); err != nil {
				fmt.Fprintln(os.Stderr, "ecobench:", err)
				return 1
			}
		}
	}
	return printCompare(log, compareRuns(files[0], files[1], sp.EndToEnd))
}

// printCompare prints one row per workload and metric and returns 1 if
// any regressed.
func printCompare(w io.Writer, rows []compareRow) int {
	status := 0
	fmt.Fprintf(w, "%-12s %-16s %30s %30s %9s %7s %9s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "failed", "verdict")
	for _, r := range rows {
		delta := 0.0
		if r.Parent.Median != 0 {
			delta = 100 * (r.Change.Median - r.Parent.Median) / r.Parent.Median
		}
		fmt.Fprintf(w, "%-12s %-16s %30s %30s %+8.2f%% %3d/%-3d %4d/%-4d  %s\n", r.Workload, r.Metric,
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.Parent.Median, r.Parent.Q1, r.Parent.Q3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.Change.Median, r.Change.Q1, r.Change.Q3),
			delta, r.Wins, r.Pairs, r.ParentFailed, r.ChangeFailed, r.Verdict)
		if r.Verdict == regressed {
			status = 1
		}
	}
	return status
}

// compareRuns judges every end-to-end metric of every workload present
// in both files, pairing runs of the same round. A workload none of
// whose runs produced a metric still gets one row, so that its failures
// show.
func compareRuns(parent, change *runFile, metrics []specMetric) []compareRow {
	var rows []compareRow
	for _, wl := range workloads {
		pr, cr := roundsOf(parent, wl.name), roundsOf(change, wl.name)
		if len(pr) == 0 || len(cr) == 0 {
			continue
		}
		pf, cf := failures(pr), failures(cr)
		n := len(rows)
		for _, m := range metrics {
			if p, c := pairedValues(pr, cr, m.Name); len(p) > 0 {
				rows = append(rows, judge(wl.name, m, p, c, pf, cf))
			}
		}
		if len(rows) == n {
			rows = append(rows, judge(wl.name, specMetric{Name: "(no results)"}, nil, nil, pf, cf))
		}
	}
	return rows
}

// roundsOf returns a file's runs of one workload by round.
func roundsOf(f *runFile, workload string) map[int]runRecord {
	out := map[int]runRecord{}
	for _, r := range f.Runs {
		if r.Workload == workload {
			out[r.Round] = r
		}
	}
	return out
}

// failures counts failed operations, and one for each run that ended
// without a result.
func failures(runs map[int]runRecord) int {
	n := 0
	for _, r := range runs {
		n += r.Result.Failed
		if r.Error != "" {
			n++
		}
	}
	return n
}

// pairedValues lists a metric's values of the rounds both sides
// measured, in round order.
func pairedValues(parent, change map[int]runRecord, name string) (p, c []float64) {
	rounds := make([]int, 0, len(parent))
	for r := range parent {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	for _, r := range rounds {
		pm, ok1 := parent[r].Result.Metrics[name]
		cm, ok2 := change[r].Result.Metrics[name]
		if ok1 && ok2 {
			p = append(p, pm.Value)
			c = append(c, cm.Value)
		}
	}
	return p, c
}

// judge applies the failure rule, the pair rule and the metric's bound
// to paired values p[i], c[i]:
//   - regressed: the change failed more operations than the parent, or
//     its median is worse than the parent's by more than the bound (a
//     share of the parent's median);
//   - improved: at least minPairs pairs, the change wins at least nine
//     tenths of them (ties count for neither), and the medians differ in
//     its favour by more than the parent's interquartile range;
//   - unresolved: the parent's own spread is wider than the bound and
//     not every change run reads better than every parent run;
//   - unchanged otherwise.
func judge(workload string, m specMetric, p, c []float64, parentFailed, changeFailed int) compareRow {
	better := func(a, b float64) bool { return a < b }
	if m.Better == "higher" {
		better = func(a, b float64) bool { return a > b }
	}
	row := compareRow{Workload: workload, Metric: m.Name, Parent: quartilesOf(p), Change: quartilesOf(c),
		ParentFailed: parentFailed, ChangeFailed: changeFailed, Pairs: min(len(p), len(c))}
	for i := 0; i < row.Pairs; i++ {
		if better(c[i], p[i]) {
			row.Wins++
		}
	}
	pm, cm := row.Parent.Median, row.Change.Median
	iqr := row.Parent.Q3 - row.Parent.Q1
	worse := 0.0
	if pm != 0 {
		worse = (cm - pm) / pm
	}
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := row.Pairs > 0
	for _, x := range c {
		for _, y := range p {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case changeFailed > parentFailed:
		row.Verdict = regressed
	case row.Pairs >= minPairs && 10*row.Wins >= 9*row.Pairs && better(cm, pm) && math.Abs(cm-pm) > iqr:
		row.Verdict = improved
	case worse > m.Bound:
		row.Verdict = regressed
	case row.Parent.Spread > m.Bound && !allBetter:
		row.Verdict = unresolved
	default:
		row.Verdict = unchanged
	}
	return row
}

func quartilesOf(vs []float64) quartiles {
	q1, med, q3 := quartileValues(vs)
	q := quartiles{N: len(vs), Q1: q1, Median: med, Q3: q3}
	if med != 0 {
		q.Spread = (q3 - q1) / med
	}
	return q
}
