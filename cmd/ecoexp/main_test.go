package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecochip/internal/experiments"
)

func TestRunSingleExperiment(t *testing.T) {
	var out strings.Builder
	if err := run("fig7a", "", experiments.Options{}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== fig7a ==") {
		t.Errorf("output missing fig7a table:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run("fig99", "", experiments.Options{}, &out); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestRunAllWritesCSVs(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run("", dir, experiments.Options{}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range experiments.IDs() {
		path := filepath.Join(dir, id+".csv")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("missing CSV for %s: %v", id, err)
			continue
		}
		if len(strings.Split(strings.TrimSpace(string(data)), "\n")) < 2 {
			t.Errorf("%s.csv has no data rows", id)
		}
	}
	// Every table printed.
	if got := strings.Count(out.String(), "== "); got < len(experiments.IDs()) {
		t.Errorf("printed %d tables, want %d", got, len(experiments.IDs()))
	}
}

// The statistics sink must surface compiled-plan statistics.
func TestRunAnalysisOptions(t *testing.T) {
	var out, stats strings.Builder
	if err := run("ext-tornado", "", experiments.Options{StatsTo: &stats}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats.String(), "param plan:") {
		t.Errorf("stats output missing parameter-plan statistics:\n%s", stats.String())
	}
}
