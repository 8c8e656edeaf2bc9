package main

import (
	"fmt"
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

// A local sweep folds the front on the compiled plan, and -progress
// names what each of its counts counts. The example design has no
// interchangeable chiplets: the fold walks every candidate, the engine
// line counts those points, and the serial walk looks each of its 27
// points up in the package memo once, finding none. The EPYC-style
// design's eight CCDs form one orbit class; over {7, 10, 14, 22} nm the
// fold evaluates one member per orbit, so the engine line counts 1,920
// orbits, the compiled-plan line the 2,460 points evaluated
// (representatives plus the members of unpruned orbits, no Gray steps)
// and the header all 262,144 candidates. The orbit fold bypasses the
// package memo, which reads 0/0.
func TestRunSweepProgressStats(t *testing.T) {
	epyc := epycDir(t)
	if err := os.WriteFile(filepath.Join(epyc, "node_list.txt"), []byte("7\n10\n14\n22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, dir      string
		combos, points int // -1: not pinned
		engine         string
		memo           string
	}{
		{"example", exampleDir(t), 27, -1, "", "package memo: 0 hits, 27 misses"},
		{"epyc", epyc, 1 << 18, 2460, "1920/1920 orbits", "package memo: 0 hits, 0 misses"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := cfgFor("sweep")
			cfg.progress = true
			var out, stats strings.Builder
			if err := run(c.dir, cfg, &out, &stats); err != nil {
				t.Fatal(err)
			}
			var front, combos, points, cells, steps, inits int
			if _, err := fmt.Sscanf(out.String(), "== carbon-cost Pareto front (%d of %d candidates) ==", &front, &combos); err != nil {
				t.Fatalf("sweep header: %v\n%s", err, out.String())
			}
			if c.combos > 0 && combos != c.combos {
				t.Errorf("header counts %d candidates, want %d", combos, c.combos)
			}
			line := statsLine(t, stats.String(), "compiled plan:")
			if _, err := fmt.Sscanf(line, "compiled plan: %d points from %d table cells, %d gray steps, %d block inits", &points, &cells, &steps, &inits); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			engine := c.engine
			if engine == "" {
				engine = fmt.Sprintf("%d/%d points", combos, combos)
			}
			if got := statsLine(t, stats.String(), engine[:strings.Index(engine, "/")+1]); got != engine {
				t.Errorf("engine progress line %q, want %q", got, engine)
			}
			orbits := c.engine != ""
			if got := statsLine(t, stats.String(), "package memo:"); !strings.HasPrefix(got, c.memo+" (") {
				t.Errorf("package memo line %q, want %q", got, c.memo)
			}
			if orbits {
				if points != c.points || steps != 0 || inits != points {
					t.Errorf("orbit fold: %d points, %d gray steps, %d block inits of %d candidates; want %d points, each a block init", points, steps, inits, combos, c.points)
				}
			} else if points != combos {
				t.Errorf("walk evaluated %d points of %d candidates", points, combos)
			}
		})
	}
}

// statsLine returns the -progress line that starts with prefix.
func statsLine(t *testing.T, stats, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(stats, "\n") {
		if line = strings.TrimSpace(line[strings.LastIndex(line, "\r")+1:]); strings.HasPrefix(line, prefix) {
			return line
		}
	}
	t.Fatalf("progress output has no %q line:\n%s", prefix, stats)
	return ""
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
	if got := statsLine(t, stats.String(), "50/"); got != "50/50 samples" {
		t.Errorf("mc engine progress line %q, want %q", got, "50/50 samples")
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
