package main

import (
	"strings"
	"testing"
)

// The sweep -progress output must surface the floorplan-tree
// reuse statistics next to the compiled-plan counters (the example
// design is multi-chiplet, so the packaging estimator runs).
func TestRunSweepProgressFloorplanStats(t *testing.T) {
	cfg := cfgFor("sweep")
	cfg.progress = true
	var out, stats strings.Builder
	if err := run(exampleDir(t), cfg, &out, &stats); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats.String(), "floorplan tree:") {
		t.Errorf("progress run missing floorplan-tree statistics:\n%s", stats.String())
	}
}

// The tornado -progress output includes the parameter plan's floorplan
// reuse counter via ParamStats.String.
func TestRunTornadoProgressFloorplanReuses(t *testing.T) {
	cfg := cfgFor("tornado")
	cfg.progress = true
	var out, stats strings.Builder
	if err := run(exampleDir(t), cfg, &out, &stats); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats.String(), "floorplan reuses") {
		t.Errorf("tornado progress run missing floorplan-reuse statistics:\n%s", stats.String())
	}
}
