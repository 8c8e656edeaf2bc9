package engine

import (
	"context"
	"fmt"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/testcases"
)

// fullFactorial enumerates every node assignment of the candidate list
// across the system's chiplets, serial-walk order (chiplet 0 is the most
// significant digit).
func fullFactorial(base *core.System, nodes []int) ([]*core.System, error) {
	nc := len(base.Chiplets)
	total := 1
	for i := 0; i < nc; i++ {
		total *= len(nodes)
	}
	systems := make([]*core.System, total)
	assign := make([]int, nc)
	for idx := 0; idx < total; idx++ {
		rem := idx
		for i := nc - 1; i >= 0; i-- {
			assign[i] = nodes[rem%len(nodes)]
			rem /= len(nodes)
		}
		s, err := base.WithNodes(assign...)
		if err != nil {
			return nil, err
		}
		systems[idx] = s
	}
	return systems, nil
}

// TestDeterminismFullFactorial is the acceptance test of the engine: a
// 4-chiplet x 5-node full-factorial sweep (625 systems) evaluated
// through EvaluateBatch must return byte-identical results to the serial
// Evaluate loop — same point order, same floats — for every worker
// count.
func TestDeterminismFullFactorial(t *testing.T) {
	d := db()
	base, err := testcases.GA102Split(d, 2, pkgcarbon.RDLFanout) // 2 digital + memory + analog = 4 chiplets
	if err != nil {
		t.Fatal(err)
	}
	nodes := []int{7, 10, 14, 22, 28}
	systems, err := fullFactorial(base, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(systems) != 625 {
		t.Fatalf("expected 625 design points, got %d", len(systems))
	}

	// Serial reference: the pre-engine path, one Evaluate per point.
	want := make([]*core.Report, len(systems))
	for i, s := range systems {
		rep, err := s.Evaluate(d)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}

	for _, cfg := range []struct {
		name string
		opts []Option
	}{
		{"serial", []Option{WithWorkers(1)}},
		{"parallel-2", []Option{WithWorkers(2)}},
		{"parallel-8", []Option{WithWorkers(8)}},
		{"parallel-default", nil},
	} {
		got, err := EvaluateBatch(context.Background(), d, systems, cfg.opts...)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		for i := range systems {
			assertReportsEqual(t, fmt.Sprintf("%s point %d", cfg.name, i), want[i], got[i])
		}
	}
}
