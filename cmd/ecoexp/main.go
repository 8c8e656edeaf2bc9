// Command ecoexp regenerates the data behind every figure of the
// ECO-CHIP paper's evaluation (the Go equivalent of the artifact's
// run_all.sh):
//
//	ecoexp                  # print every experiment table
//	ecoexp -exp fig7a       # one experiment
//	ecoexp -csv results/    # also write one CSV per experiment
//
// Analysis-backed experiments (ext-tornado, ext-uncertainty) run on
// compiled parameter plans; -progress reports their evaluation ticks and
// compiled-plan statistics to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ecochip/internal/experiments"
	"ecochip/internal/report"
	"ecochip/internal/tech"
)

func main() {
	exp := flag.String("exp", "", "run a single experiment id (default: all)")
	csvDir := flag.String("csv", "", "directory to write per-experiment CSV files")
	list := flag.Bool("list", false, "list experiment ids and exit")
	progress := flag.Bool("progress", false, "print analysis progress and compiled-plan statistics to stderr")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	var opt experiments.Options
	if *progress {
		opt.StatsTo = os.Stderr
		opt.Progress = func(done, total int) {
			if done%100 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\r%d/%d evaluations", done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}
	if err := run(*exp, *csvDir, opt, os.Stdout); err != nil {
		fatal(err)
	}
}

// run executes one or all experiments, printing tables to w and
// optionally writing CSVs into csvDir. A zero Options runs every
// experiment exactly as experiments.Run would; the progress and
// statistics sinks are honored by the experiments that support them,
// which also forces the run-all fan-out serial so the progress stream
// stays readable.
func run(exp, csvDir string, opt experiments.Options, w io.Writer) error {
	db := tech.Default()
	var tables []*report.Table
	if exp != "" {
		t, err := experiments.RunWith(exp, db, opt)
		if err != nil {
			return err
		}
		tables = []*report.Table{t}
	} else if opt.Progress != nil || opt.StatsTo != nil {
		for _, id := range experiments.IDs() {
			t, err := experiments.RunWith(id, db, opt)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			tables = append(tables, t)
		}
	} else {
		var err error
		tables, err = experiments.RunAll(db)
		if err != nil {
			return err
		}
	}

	for _, t := range tables {
		if err := t.Fprint(w); err != nil {
			return err
		}
	}

	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		for _, t := range tables {
			f, err := os.Create(filepath.Join(csvDir, t.Title+".csv"))
			if err != nil {
				return err
			}
			err = t.WriteCSV(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "wrote %d CSV files to %s\n", len(tables), csvDir)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ecoexp:", err)
	os.Exit(1)
}
