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

// The compiled and reference sweep paths must print identical tables.
func TestRunSweepUncompiledMatchesCompiled(t *testing.T) {
	dir := exampleDir(t)
	var compiled, reference strings.Builder
	if err := run(dir, cfgFor("sweep"), &compiled, nil); err != nil {
		t.Fatal(err)
	}
	cfg := cfgFor("sweep")
	cfg.uncompiled = true
	if err := run(dir, cfg, &reference, nil); err != nil {
		t.Fatal(err)
	}
	if compiled.String() != reference.String() {
		t.Errorf("compiled and uncompiled sweeps diverge:\n%s\nvs\n%s", compiled.String(), reference.String())
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

	cfg.uncompiled = true
	var out2, stats2 strings.Builder
	if err := run(dir, cfg, &out2, &stats2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats2.String(), "memo cache:") {
		t.Errorf("uncompiled progress run missing cache statistics:\n%s", stats2.String())
	}
}

// The sharded sweep path (loopback replicas under the lease protocol,
// with an injected fault schedule) must print the exact table of the
// in-process engine path, and -progress must surface the shard
// protocol counters.
func TestRunSweepShardedMatchesEngine(t *testing.T) {
	dir := exampleDir(t)
	var plain strings.Builder
	if err := run(dir, cfgFor("sweep"), &plain, nil); err != nil {
		t.Fatal(err)
	}

	cfg := cfgFor("sweep")
	cfg.shardReplicas = 3
	cfg.shardFaults = "dup=0.4,err=0.2,seed=7"
	cfg.progress = true
	var out, stats strings.Builder
	if err := run(dir, cfg, &out, &stats); err != nil {
		t.Fatal(err)
	}
	if out.String() != plain.String() {
		t.Errorf("sharded and engine sweeps diverge:\n%s\nvs\n%s", out.String(), plain.String())
	}
	if !strings.Contains(stats.String(), "shard:") || !strings.Contains(stats.String(), "leases granted") {
		t.Errorf("sharded progress run missing shard statistics:\n%s", stats.String())
	}
	if !strings.Contains(stats.String(), "point memo:") {
		t.Errorf("sharded progress run missing point-memo statistics:\n%s", stats.String())
	}

	cfg.uncompiled = true
	if err := run(dir, cfg, &out, &stats); err == nil || !strings.Contains(err.Error(), "-shard-replicas") {
		t.Errorf("sharded -uncompiled run: err = %v, want the flag conflict", err)
	}
}

func TestRunSweepShardFaultSpecRejected(t *testing.T) {
	cfg := cfgFor("sweep")
	cfg.shardReplicas = 1
	cfg.shardFaults = "drop=2.0"
	var out, stats strings.Builder
	if err := run(exampleDir(t), cfg, &out, &stats); err == nil {
		t.Error("out-of-range fault probability accepted")
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

	cfg.uncompiled = true
	var out2, stats2 strings.Builder
	if err := run(dir, cfg, &out2, &stats2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats2.String(), "memo cache:") {
		t.Errorf("uncompiled tornado progress run missing cache statistics:\n%s", stats2.String())
	}
}

// The compiled and reference tornado / Monte Carlo paths must print
// identical tables (they are bit-identical underneath).
func TestRunAnalysisUncompiledMatchesCompiled(t *testing.T) {
	dir := exampleDir(t)
	for _, mode := range []string{"tornado", "mc"} {
		var compiled, reference strings.Builder
		if err := run(dir, cfgFor(mode), &compiled, nil); err != nil {
			t.Fatal(err)
		}
		cfg := cfgFor(mode)
		cfg.uncompiled = true
		if err := run(dir, cfg, &reference, nil); err != nil {
			t.Fatal(err)
		}
		if compiled.String() != reference.String() {
			t.Errorf("%s: compiled and uncompiled outputs diverge:\n%s\nvs\n%s", mode, compiled.String(), reference.String())
		}
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
