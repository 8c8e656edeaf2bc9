package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecochip/internal/experiments"
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

// All experiment tables must match the committed golden byte for byte.
func TestRunAllGolden(t *testing.T) {
	var out strings.Builder
	if err := run("", "", experiments.Options{}, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "all.txt", out.String())
}
