package ecochip

// Facade coverage of the batch-evaluation engine: the exported
// EvaluateBatch / *Ctx workflows must behave exactly like their serial
// counterparts while exposing the engine's knobs (workers, progress).

import (
	"context"
	"sync"
	"testing"
)

func TestFacadeEvaluateBatch(t *testing.T) {
	db := DefaultDB()
	systems := []*System{
		GA102(db, 7, 14, 10, false),
		GA102(db, 7, 7, 7, true),
		A15(db, 7, 14, 10, false),
		EMR(db, 10, false),
	}
	var mu sync.Mutex
	calls := 0
	reports, err := EvaluateBatch(context.Background(), db, systems,
		WithWorkers(2), WithProgress(func(done, total int) {
			mu.Lock()
			calls++
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(systems) {
		t.Fatalf("got %d reports for %d systems", len(reports), len(systems))
	}
	for i, s := range systems {
		want, err := s.Evaluate(db)
		if err != nil {
			t.Fatal(err)
		}
		if reports[i].TotalKg() != want.TotalKg() || reports[i].EmbodiedKg() != want.EmbodiedKg() {
			t.Errorf("system %d: batch report differs from serial Evaluate", i)
		}
	}
	if calls != len(systems) {
		t.Errorf("progress callback ran %d times, want %d", calls, len(systems))
	}
}

func TestFacadeNodeSweepCtxMatchesNodeSweep(t *testing.T) {
	db := DefaultDB()
	base := GA102(db, 7, 14, 10, false)
	nodes := []int{7, 10, 14}
	cp := DefaultCostParams()
	serial, err := NodeSweepCtx(context.Background(), base, db, nodes, cp, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NodeSweepCtx(context.Background(), base, db, nodes, cp, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("point counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Label() != parallel[i].Label() || serial[i].EmbodiedKg != parallel[i].EmbodiedKg ||
			serial[i].CostUSD != parallel[i].CostUSD {
			t.Errorf("point %d differs between serial and parallel sweep", i)
		}
	}
}

func TestFacadeUncertaintyCtxReproducible(t *testing.T) {
	db := DefaultDB()
	base := GA102(db, 7, 14, 10, false)
	d1, err := UncertaintyCtx(context.Background(), base, db, 100, 7, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := UncertaintyCtx(context.Background(), base, db, 100, 7, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("fixed-seed Monte Carlo must not depend on worker count")
	}
}

func TestFacadeTornadoCtx(t *testing.T) {
	db := DefaultDB()
	base := GA102(db, 7, 14, 10, false)
	serial, err := TornadoCtx(context.Background(), base, db, 0.25, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := TornadoCtx(context.Background(), base, db, 0.25, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("factor counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("factor %d differs: serial %+v parallel %+v", i, serial[i], parallel[i])
		}
	}
}
