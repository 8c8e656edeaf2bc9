package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// goldens maps "<workload>/<catalogue key>" to the committed hash of that
// input's result. They anchor bit-identity across commits: the check
// never consults the in-tree *Reference oracles, which a refactor could
// shift in lockstep with the code.
type goldens map[string]uint64

func goldenKey(workload, key string) string { return workload + "/" + key }

func loadGoldens(path string) (goldens, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var hex map[string]string
	if err := json.Unmarshal(b, &hex); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	g := make(goldens, len(hex))
	for k, v := range hex {
		h, err := strconv.ParseUint(v, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", path, k, err)
		}
		g[k] = h
	}
	return g, nil
}

func (g goldens) save(path string) error {
	hex := make(map[string]string, len(g))
	for k, v := range g {
		hex[k] = fmt.Sprintf("%016x", v)
	}
	b, err := json.MarshalIndent(hex, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// check hashes a result and compares it with its golden.
func (g goldens) check(workload, key string, f fold) error {
	want, ok := g[goldenKey(workload, key)]
	if !ok {
		return fmt.Errorf("%s: no golden hash (run with -update-golden)", key)
	}
	h := newHasher()
	f(h)
	if h.h != want {
		return fmt.Errorf("%s: result hash %016x, golden %016x", key, h.h, want)
	}
	return nil
}

// recordGoldens runs every catalogue input of the workload once and
// stores its result hash in g.
func recordGoldens(ctx context.Context, w *workload, g goldens) error {
	inst, err := w.setup(ctx, false)
	if err != nil {
		return err
	}
	defer inst.close()
	for _, it := range inst.catalogue() {
		f, err := it.run(ctx, nil)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", w.name, it.key, err)
		}
		h := newHasher()
		f(h)
		g[goldenKey(w.name, it.key)] = h.h
	}
	return nil
}
