package kernel

import (
	"testing"

	"ecochip/internal/floorplan"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

func TestScratchPoolReuseAndStatsFolding(t *testing.T) {
	db := tech.Default()
	pkg := pkgcarbon.DefaultParams(pkgcarbon.RDLFanout)
	var folded floorplan.TreeStats
	pool := NewScratchPool(func() (*SweepScratch, error) {
		return NewSweepScratch(&pkg, 2)
	}, func(sc *SweepScratch) { sc.FoldFloorplan(&folded) })

	sc, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if pool.Reuses() != 0 {
		t.Fatalf("first Get should build fresh, reuses = %d", pool.Reuses())
	}
	ch := sc.Chiplets()
	ch[0] = pkgcarbon.Chiplet{Name: "a", AreaMM2: 100, Node: db.MustGet(7)}
	ch[1] = pkgcarbon.Chiplet{Name: "b", AreaMM2: 50, Node: db.MustGet(14)}
	if _, err := sc.EstimatePackage(); err != nil {
		t.Fatal(err)
	}
	pool.Put(sc)
	if folded.Plans() == 0 {
		t.Fatalf("Put should fold the scratch's floorplan work: %+v", folded)
	}
	first := folded

	// A second Get must return the same warm scratch (the free list
	// guarantees retention, unlike a sync.Pool); its counters were
	// zeroed by the first fold, so Put adds nothing (no double counting).
	sc2, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if sc2 != sc {
		t.Fatal("pool did not reuse the returned scratch")
	}
	if pool.Reuses() != 1 {
		t.Fatalf("reuses = %d, want 1", pool.Reuses())
	}
	pool.Put(sc2)
	if folded != first {
		t.Fatalf("idle scratch changed the folded stats: %+v vs %+v", folded, first)
	}

	sc3, _ := pool.Get()
	ch = sc3.ResizeChiplets(1)
	if len(ch) != 1 {
		t.Fatalf("ResizeChiplets(1) returned %d slots", len(ch))
	}
	ch[0] = pkgcarbon.Chiplet{Name: "solo", AreaMM2: 80, Node: db.MustGet(7)}
	if _, err := sc3.EstimatePackage(); err != nil {
		t.Fatal(err)
	}
	pool.Put(sc3)
	if folded.Plans() != first.Plans()+1 {
		t.Fatalf("resized estimate should fold exactly one more plan: %+v vs %+v", folded, first)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("ResizeChiplets beyond capacity should panic")
			}
		}()
		sc3.ResizeChiplets(3)
	}()
}

// A pool built with ParamPlan.Fold folds a param-plan scratch's
// counters into its plan, once.
func TestScratchPoolFoldsParamStats(t *testing.T) {
	d := tech.Default()
	base := testcases.GA102(d, 7, 14, 10, false)
	plan, err := CompileParams(base, d)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewScratchPool(plan.NewScratch, plan.Fold)
	sc, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Eval(sc, base, d, DirtyMfg); err != nil {
		t.Fatal(err)
	}
	if got := plan.Stats().Evals; got != 0 {
		t.Fatalf("Stats counted an unreleased scratch: Evals = %d", got)
	}
	pool.Put(sc)
	first := plan.Stats()
	if first.Evals != 1 || first.DieRecomputes != uint64(len(base.Chiplets)) {
		t.Fatalf("Put did not fold the scratch's counters: %+v", first)
	}
	sc, _ = pool.Get()
	pool.Put(sc)
	if got := plan.Stats(); got != first {
		t.Fatalf("an idle scratch changed the folded stats: %+v vs %+v", got, first)
	}
}

// Every Put runs the release hook exactly once, on the scratch it
// returns, whether the scratch was built fresh or reused.
func TestScratchPoolPutRunsHookOnce(t *testing.T) {
	type scratch struct{ released int }
	pool := NewScratchPool(func() (*scratch, error) { return &scratch{}, nil },
		func(sc *scratch) { sc.released++ })
	a, _ := pool.Get()
	b, _ := pool.Get()
	if a == b {
		t.Fatal("two outstanding Gets shared a scratch")
	}
	pool.Put(a)
	if a.released != 1 || b.released != 0 {
		t.Fatalf("after one Put: released %d and %d, want 1 and 0", a.released, b.released)
	}
	pool.Put(b)
	c, _ := pool.Get() // the most recently returned scratch, b
	pool.Put(c)
	if a.released != 1 || b.released != 2 {
		t.Fatalf("after three Puts: released %d and %d, want 1 and 2", a.released, b.released)
	}
}
