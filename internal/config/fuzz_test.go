package config

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ecochip/internal/cost"
	"ecochip/internal/engine"
	"ecochip/internal/explore"
)

// designFiles are the files LoadSystem reads, in FuzzLoadSystem's
// argument order.
var designFiles = []string{"architecture.json", "packageC.json", "designC.json", "mfgC.json", "operationalC.json", "node_list.txt"}

// maxFuzzSweep bounds the sweep a fuzzed directory runs, so one input
// cannot spend the fuzz budget on a near-cap walk.
const maxFuzzSweep = 512

// FuzzLoadSystem writes fuzzed design-directory files (an empty file
// stands for an absent one) and loads them. LoadSystem must not panic;
// on success, NodeSweepPlanned over the loaded node list must return
// one point per combination or an error, and never a recovered panic.
// Multi-chiplet monoliths reach the sweep's single-evaluation path.
func FuzzLoadSystem(f *testing.F) {
	example := f.TempDir()
	if err := WriteExampleDir(example); err != nil {
		f.Fatal(err)
	}
	seed := make([][]byte, len(designFiles))
	for i, name := range designFiles {
		data, err := os.ReadFile(filepath.Join(example, name))
		if err != nil && !os.IsNotExist(err) {
			f.Fatal(err)
		}
		seed[i] = data
	}
	f.Add(seed[0], seed[1], seed[2], seed[3], seed[4], seed[5])
	// TestMonolithicSkipsPackaging's directory, and the example's three
	// blocks on one die over a repeated node and over mixed nodes.
	f.Add([]byte(`{"monolithic":true,"chiplets":[
		{"name":"a","type":"logic","area_mm2":100,"node_nm":7}]}`), []byte{}, []byte{}, []byte{}, []byte{}, []byte{})
	mono := []byte(`{"monolithic":true,"chiplets":[
		{"name":"digital","type":"logic","area_mm2":500,"node_nm":7},
		{"name":"memory","type":"memory","area_mm2":80,"node_nm":7},
		{"name":"analog","type":"analog","area_mm2":48,"node_nm":7}]}`)
	f.Add(mono, []byte{}, seed[2], []byte{}, seed[4], []byte("7\n7\n"))
	f.Add(mono, []byte{}, seed[2], []byte{}, seed[4], []byte("7\n10\n14\n"))

	db := db()
	f.Fuzz(func(t *testing.T, arch, pkg, design, mfgc, op, nodeList []byte) {
		dir := t.TempDir()
		for i, data := range [][]byte{arch, pkg, design, mfgc, op, nodeList} {
			if len(data) == 0 {
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, designFiles[i]), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		sys, nodes, err := LoadSystem(dir, db)
		if err != nil {
			return
		}
		combos := 1
		for range sys.Chiplets {
			if combos *= len(nodes); combos > maxFuzzSweep {
				return
			}
		}
		points, plan, err := explore.NodeSweepPlanned(context.Background(), sys, db, nodes, cost.DefaultParams(), engine.WithWorkers(1))
		var pe *engine.PanicError
		switch {
		case errors.As(err, &pe):
			t.Fatalf("sweep panicked: %v", err)
		case err == nil && len(points) != combos:
			t.Fatalf("sweep returned %d points for %d combinations", len(points), combos)
		case err == nil && (plan == nil) != (sys.Monolithic && len(sys.Chiplets) > 1):
			t.Fatalf("sweep plan %v for a system with monolithic=%v and %d blocks", plan != nil, sys.Monolithic, len(sys.Chiplets))
		}
	})
}
