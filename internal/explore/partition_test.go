package explore

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/descarbon"
	"ecochip/internal/mfg"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// fineGrained builds a system of many small same-node logic blocks plus
// a memory and an analog block — a granularity where merging should pay.
func fineGrained(logicBlocks int, blockMM2 float64) *core.System {
	ref := db().MustGet(7)
	var chiplets []core.Chiplet
	for i := 0; i < logicBlocks; i++ {
		chiplets = append(chiplets, core.BlockFromArea(
			"logic"+string(rune('a'+i)), tech.Logic, blockMM2, ref, 7))
	}
	chiplets = append(chiplets,
		core.BlockFromArea("memory", tech.Memory, 60, ref, 14),
		core.BlockFromArea("analog", tech.Analog, 30, ref, 10),
	)
	return &core.System{
		Name:      "fine",
		Chiplets:  chiplets,
		Packaging: pkgcarbon.DefaultParams(pkgcarbon.RDLFanout),
		Mfg:       mfg.DefaultParams(),
		Design:    descarbon.DefaultParams(),
	}
}

func TestDisaggregateErrors(t *testing.T) {
	mono := testcases.GA102(db(), 7, 7, 7, true)
	if _, err := DisaggregateCtx(context.Background(), mono, db()); err == nil {
		t.Error("monolith input should fail")
	}
	bad := fineGrained(2, 20)
	bad.Chiplets[0].Transistors = 0
	if _, err := DisaggregateCtx(context.Background(), bad, db()); err == nil {
		t.Error("invalid system should fail")
	}
}

// Many tiny blocks: the per-chiplet packaging overhead dominates, so the
// optimizer must merge aggressively and beat the starting point.
func TestMergesTinyBlocks(t *testing.T) {
	base := fineGrained(6, 2) // 6 x 2mm^2 logic slivers: per-chiplet overhead dominates
	plan, err := DisaggregateCtx(context.Background(), base, db())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps == 0 {
		t.Fatal("tiny blocks should trigger merges")
	}
	if plan.EmbodiedKg >= plan.InitialKg {
		t.Errorf("optimized carbon %.2f should beat initial %.2f", plan.EmbodiedKg, plan.InitialKg)
	}
	if len(plan.System.Chiplets) >= 8 {
		t.Errorf("expected fewer chiplets after merging, still have %d", len(plan.System.Chiplets))
	}
	// Group bookkeeping covers every original block exactly once.
	seen := map[string]int{}
	for _, g := range plan.Groups {
		for _, name := range g {
			seen[name]++
		}
	}
	if len(seen) != 8 {
		t.Errorf("groups should cover 8 blocks, got %d", len(seen))
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("block %s appears %d times", name, n)
		}
	}
}

// Huge blocks: merging would wreck yield, so the optimizer must leave
// them alone.
func TestKeepsHugeBlocksApart(t *testing.T) {
	base := fineGrained(3, 300) // 3 x 300mm^2 logic slabs
	plan, err := DisaggregateCtx(context.Background(), base, db())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range plan.Groups {
		if len(g) > 1 && strings.HasPrefix(g[0], "logic") {
			t.Errorf("300mm^2 slabs should not merge: %v", g)
		}
	}
	if plan.EmbodiedKg > plan.InitialKg {
		t.Error("plan must never be worse than the starting point")
	}
}

// Different types never merge; reused IP never merges.
func TestMergeConstraints(t *testing.T) {
	a := core.Chiplet{Name: "a", Type: tech.Logic}
	b := core.Chiplet{Name: "b", Type: tech.Memory}
	if mergeable(a, b) {
		t.Error("logic and memory must not merge")
	}
	c := core.Chiplet{Name: "c", Type: tech.Logic, Reused: true}
	if mergeable(a, c) {
		t.Error("reused IP must not merge")
	}
	if !mergeable(a, core.Chiplet{Name: "d", Type: tech.Logic}) {
		t.Error("same-type fresh blocks should merge")
	}
}

// Merging settles on the most advanced node of the pair.
func TestMergeNodeChoice(t *testing.T) {
	a := core.Chiplet{Name: "a", Type: tech.Logic, Transistors: 1e9, NodeNm: 14}
	b := core.Chiplet{Name: "b", Type: tech.Logic, Transistors: 2e9, NodeNm: 7}
	m := merge(a, b)
	if m.NodeNm != 7 {
		t.Errorf("merged node = %d, want 7", m.NodeNm)
	}
	if m.Transistors != 3e9 {
		t.Errorf("merged transistors = %g, want 3e9", m.Transistors)
	}
}

// Determinism: same input, same plan.
func TestDisaggregateDeterministic(t *testing.T) {
	p1, err := DisaggregateCtx(context.Background(), fineGrained(5, 15), db())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := DisaggregateCtx(context.Background(), fineGrained(5, 15), db())
	if err != nil {
		t.Fatal(err)
	}
	if p1.EmbodiedKg != p2.EmbodiedKg || p1.Steps != p2.Steps || len(p1.Groups) != len(p2.Groups) {
		t.Error("Disaggregate is not deterministic")
	}
}

// The base system must not be mutated.
func TestDisaggregateDoesNotMutate(t *testing.T) {
	base := fineGrained(4, 12)
	before := len(base.Chiplets)
	name0 := base.Chiplets[0].Name
	if _, err := DisaggregateCtx(context.Background(), base, db()); err != nil {
		t.Fatal(err)
	}
	if len(base.Chiplets) != before || base.Chiplets[0].Name != name0 {
		t.Error("Disaggregate mutated its input")
	}
}

// A retained search must hand back bit-identical Plans run after run —
// the serving contract: a warm re-run serves the same answer as the
// cold one, from memos instead of recomputation.
func TestDisaggregateSearchWarmRunsBitIdentical(t *testing.T) {
	base := fineGrained(8, 3)
	d := db()
	ds, err := CompileDisaggregate(base, d)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := DisaggregateCtx(context.Background(), base, d)
	if err != nil {
		t.Fatal(err)
	}
	var prevHits uint64
	for run := 0; run < 3; run++ {
		got, err := ds.Run(context.Background())
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if math.Float64bits(got.EmbodiedKg) != math.Float64bits(cold.EmbodiedKg) ||
			math.Float64bits(got.InitialKg) != math.Float64bits(cold.InitialKg) {
			t.Fatalf("run %d: EmbodiedKg/InitialKg = %v/%v, want %v/%v (bit-exact)",
				run, got.EmbodiedKg, got.InitialKg, cold.EmbodiedKg, cold.InitialKg)
		}
		if got.Steps != cold.Steps || !reflect.DeepEqual(got.Groups, cold.Groups) {
			t.Fatalf("run %d: trajectory diverged: %d steps %v, want %d steps %v",
				run, got.Steps, got.Groups, cold.Steps, cold.Groups)
		}
		hits := ds.Stats().MergedCellHits
		if run > 0 && hits == prevHits {
			t.Errorf("run %d: no merged-cell memo hits on a warm re-run", run)
		}
		prevHits = hits
	}
	// Warm runs must add no misses: the whole candidate table is served
	// from the retained arenas.
	s := ds.Stats()
	if s.MergedCellMisses != cold.Stats.MergedCellMisses {
		t.Errorf("warm runs recomputed merged cells: %d misses, want %d (cold run only)",
			s.MergedCellMisses, cold.Stats.MergedCellMisses)
	}
}

// Concurrent Runs serialize on the retained state and each returns the
// same bits.
func TestDisaggregateSearchConcurrentRuns(t *testing.T) {
	base := fineGrained(6, 2)
	d := db()
	ds, err := CompileDisaggregate(base, d)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ds.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := ds.Run(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			if math.Float64bits(got.EmbodiedKg) != math.Float64bits(ref.EmbodiedKg) {
				t.Errorf("EmbodiedKg = %v, want %v", got.EmbodiedKg, ref.EmbodiedKg)
			}
		}()
	}
	wg.Wait()
}
