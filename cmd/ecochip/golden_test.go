package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecochip/internal/config"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// TestRunGolden pins run's whole stdout on the example design directory
// — the breakdown, the summary and the sorted node sweep — byte for
// byte against committed goldens, at the CLI's default -top and with
// every one of the 27 combinations listed.
func TestRunGolden(t *testing.T) {
	dir := t.TempDir()
	if err := config.WriteExampleDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		topN int
	}{
		{"example-top10", 10},
		{"example-all", 27},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(dir, 1000, c.topN, &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", c.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run go test -update to create it)", err)
			}
			if out.String() != string(want) {
				t.Errorf("output differs from %s:\n%s\nwant:\n%s", path, out.String(), want)
			}
		})
	}
}
