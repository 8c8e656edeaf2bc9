package explore

import (
	"context"
	"math"
	"testing"

	"ecochip/internal/cost"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// EvalPoint must invert the Gray code exactly: for every output slot of
// a full run, evaluating that slot's node assignment returns the same
// float bits. The second pass re-asks every point so the scratch
// serves the package terms from its package memo — the serving-layer
// warm path — and must stay bit-identical.
func TestEvalPointMatchesRunSlots(t *testing.T) {
	d := tech.Default()
	base := testcases.GA102(d, 7, 14, 10, false)
	nodes := []int{7, 10, 14}
	plan, err := Compile(base, d, nodes, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Both passes run on one pinned scratch: a pooled scratch may be
	// dropped between calls (sync.Pool does so at random under -race),
	// and each scratch has its own package memo.
	sc, err := plan.getScratch()
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for idx, want := range ref {
			got, err := plan.evalPoint(context.Background(), sc, want.Nodes)
			if err != nil {
				t.Fatalf("pass %d slot %d: %v", pass, idx, err)
			}
			for i, nm := range want.Nodes {
				if got.Nodes[i] != nm {
					t.Fatalf("pass %d slot %d: nodes %v, want %v", pass, idx, got.Nodes, want.Nodes)
				}
			}
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"EmbodiedKg", got.EmbodiedKg, want.EmbodiedKg},
				{"TotalKg", got.TotalKg, want.TotalKg},
				{"CostUSD", got.CostUSD, want.CostUSD},
				{"PackageAreaMM2", got.PackageAreaMM2, want.PackageAreaMM2},
			} {
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Fatalf("pass %d slot %d: %s = %v, want %v (bit-exact)", pass, idx, c.name, c.got, c.want)
				}
			}
		}
	}
	// The memo must actually be carrying the second pass.
	plan.putScratch(sc)
	if s := plan.Stats(); s.PkgMemo.Hits == 0 {
		t.Errorf("no package-memo hits across repeated EvalPoint calls: %+v", s.PkgMemo)
	}
}

func TestEvalPointErrors(t *testing.T) {
	d := tech.Default()
	base := testcases.GA102(d, 7, 14, 10, false)
	plan, err := Compile(base, d, []int{7, 10, 14}, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.EvalPoint(context.Background(), []int{7, 10}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := plan.EvalPoint(context.Background(), []int{7, 10, 5}); err == nil {
		t.Error("node outside the candidate set accepted")
	}
}
