package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// checkGolden compares got with the committed golden file, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n%s\nwant:\n%s", path, got, want)
	}
}

// emibDir writes the example design with silicon-bridge packaging, the
// one architecture whose package model reads the floorplan's
// adjacencies.
func emibDir(t *testing.T) string {
	t.Helper()
	dir := exampleDir(t)
	path := filepath.Join(dir, "architecture.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	arch := strings.Replace(string(data), `"packaging": "RDL"`, `"packaging": "EMIB"`, 1)
	if arch == string(data) {
		t.Fatal("example architecture.json has no RDL packaging line to replace")
	}
	if err := os.WriteFile(path, []byte(arch), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// Every mode's table on the example design, the sweep and grouping
// tables of its silicon-bridge variant, and the grouping plan of the
// EPYC-style design, must match the committed goldens byte for
// byte, so a change that shifts a printed digit fails here even when it
// shifts every run the same way.
func TestRunGolden(t *testing.T) {
	example, emib, epyc := exampleDir(t), emibDir(t), epycDir(t)
	for _, c := range []struct{ name, dir, mode string }{
		{"sweep", example, "sweep"},
		{"tornado", example, "tornado"},
		{"mc", example, "mc"},
		{"group", example, "group"},
		{"sweep-emib", emib, "sweep"},
		{"group-emib", emib, "group"},
		{"group-epyc", epyc, "group"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(c.dir, cfgFor(c.mode), &out, nil); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name+".txt", out.String())
		})
	}
}
