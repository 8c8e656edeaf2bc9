package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecochip/internal/config"
)

func exampleDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := config.WriteExampleDir(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func cfgFor(mode string) runConfig {
	return runConfig{mode: mode, rel: 0.25, samples: 50, seed: 1, workers: 1}
}

func TestRunSweepMode(t *testing.T) {
	var out, stats strings.Builder
	if err := run(exampleDir(t), cfgFor("sweep"), &out, &stats); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Pareto front") {
		t.Errorf("sweep output missing front:\n%s", out.String())
	}
}

func TestRunSweepProgressStats(t *testing.T) {
	dir := exampleDir(t)
	cfg := cfgFor("sweep")
	cfg.progress = true
	var out, stats strings.Builder
	if err := run(dir, cfg, &out, &stats); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats.String(), "compiled plan:") {
		t.Errorf("progress run missing compiled-plan statistics:\n%s", stats.String())
	}
}

func TestRunTornadoMode(t *testing.T) {
	var out strings.Builder
	if err := run(exampleDir(t), cfgFor("tornado"), &out, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "swing_kg") {
		t.Errorf("tornado output missing swing column:\n%s", out.String())
	}
}

func TestRunTornadoProgressStats(t *testing.T) {
	dir := exampleDir(t)
	cfg := cfgFor("tornado")
	cfg.progress = true
	var out, stats strings.Builder
	if err := run(dir, cfg, &out, &stats); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats.String(), "param plan:") {
		t.Errorf("tornado progress run missing parameter-plan statistics:\n%s", stats.String())
	}
}

func TestRunMCProgressStats(t *testing.T) {
	cfg := cfgFor("mc")
	cfg.progress = true
	var out, stats strings.Builder
	if err := run(exampleDir(t), cfg, &out, &stats); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats.String(), "param plan:") {
		t.Errorf("mc progress run missing parameter-plan statistics:\n%s", stats.String())
	}
}

func TestRunGroupMode(t *testing.T) {
	var out strings.Builder
	if err := run(exampleDir(t), cfgFor("group"), &out, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "embodied carbon:") {
		t.Errorf("group output missing summary:\n%s", out.String())
	}
}

func TestRunMCMode(t *testing.T) {
	var out strings.Builder
	if err := run(exampleDir(t), cfgFor("mc"), &out, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "relative_spread") {
		t.Errorf("mc output missing distribution:\n%s", out.String())
	}
}

func TestRunBadMode(t *testing.T) {
	var out strings.Builder
	if err := run(exampleDir(t), cfgFor("magic"), &out, nil); err == nil {
		t.Error("unknown mode should fail")
	}
}

func TestRunMissingDir(t *testing.T) {
	var out strings.Builder
	if err := run(t.TempDir(), cfgFor("sweep"), &out, nil); err == nil {
		t.Error("empty design dir should fail")
	}
}

func TestSweepNeedsNodeList(t *testing.T) {
	dir := exampleDir(t)
	// Remove the node list.
	if err := removeNodeList(dir); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(dir, cfgFor("sweep"), &out, nil); err == nil {
		t.Error("sweep without node_list.txt should fail")
	}
}

func TestWriteHeapProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.pprof")
	if err := writeHeapProfile(path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("heap profile is empty")
	}
}

// removeNodeList deletes node_list.txt from a design dir.
func removeNodeList(dir string) error {
	return os.Remove(filepath.Join(dir, "node_list.txt"))
}
