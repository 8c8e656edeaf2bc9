package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ecochip/internal/config"
)

// epycDir writes an EPYC-style design directory: eight CCD-class logic
// dies (not reused, so the grouping optimizer may merge them) around a
// large IO die on an RDL substrate — the many-chiplet regime the
// disaggregate plan statistics are about.
func epycDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	arch := config.ArchitectureFile{
		SystemName:      "epyc-like",
		Packaging:       "RDL",
		ReferenceNodeNm: 7,
	}
	for i := 0; i < 8; i++ {
		arch.Chiplets = append(arch.Chiplets, config.ChipletJSON{
			Name: fmt.Sprintf("ccd%d", i), Type: "logic", AreaMM2: 74, NodeNm: 7,
		})
	}
	arch.Chiplets = append(arch.Chiplets, config.ChipletJSON{
		Name: "iod", Type: "analog", AreaMM2: 416, NodeNm: 14,
	})
	data, err := json.MarshalIndent(arch, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "architecture.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// The group -progress output must surface the disaggregate plan
// statistics and the folded incremental-floorplan line on the
// EPYC-scale testcase.
func TestRunGroupProgressDisaggregateStats(t *testing.T) {
	cfg := cfgFor("group")
	cfg.progress = true
	var out, stats strings.Builder
	if err := run(epycDir(t), cfg, &out, &stats); err != nil {
		t.Fatal(err)
	}
	s := stats.String()
	if !strings.Contains(s, "disaggregate plan:") {
		t.Fatalf("group progress run missing disaggregate plan statistics:\n%s", s)
	}
	if !strings.Contains(s, "pooled-scratch reuses") {
		t.Fatalf("group progress run missing pooled-scratch counter:\n%s", s)
	}
	if !strings.Contains(s, "incremental floorplan:") {
		t.Fatalf("group progress run missing floorplan statistics:\n%s", s)
	}
	if !regexp.MustCompile(`\([0-9.]+% reuse\)`).MatchString(s) {
		t.Fatalf("no reuse rate in stats output:\n%s", s)
	}
}
