package explore

import (
	"context"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/testcases"
)

func BenchmarkNodeSweep27(b *testing.B) {
	base := testcases.GA102(db(), 7, 14, 10, false)
	cp := cost.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NodeSweep(base, db(), []int{7, 10, 14}, cp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNodeSweepReference27 is the same sweep on the uncompiled
// per-point path (the PR 1 engine baseline).
func BenchmarkNodeSweepReference27(b *testing.B) {
	base := testcases.GA102(db(), 7, 14, 10, false)
	cp := cost.DefaultParams()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NodeSweepReference(ctx, base, db(), []int{7, 10, 14}, cp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile isolates the one-time plan construction cost the
// compiled sweep amortizes over its points.
func BenchmarkCompile(b *testing.B) {
	base := testcases.GA102(db(), 7, 14, 10, false)
	cp := cost.DefaultParams()
	d := db()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(base, d, []int{7, 10, 14, 22, 28}, cp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDisaggregate8Blocks(b *testing.B) {
	base := fineGrained(6, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DisaggregateCtx(context.Background(), base, db()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDisaggregate10Blocks is the EPYC-scale (10-die) greedy
// search: 8 mergeable logic slivers plus memory and analog, a multi-step
// trajectory that exercises the step-spanning compiled state (merged-
// cell memo, pooled scratches, retained floorplan trees).
func BenchmarkDisaggregate10Blocks(b *testing.B) {
	base := fineGrained(8, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DisaggregateCtx(context.Background(), base, db()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDisaggregateReference is the evaluate-per-candidate oracle on
// the same 10-die search — the bit-identity baseline, not the pre-PR
// path (which already evaluated candidates on the cell-table seam).
func BenchmarkDisaggregateReference(b *testing.B) {
	base := fineGrained(8, 3)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DisaggregateReference(ctx, base, db()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepKey is the warm serving path's cache-key derivation:
// the Keyer has folded the database once, so each key writes only the
// system, node list and cost parameters.
func BenchmarkSweepKey(b *testing.B) {
	epyc, err := testcases.EPYC(db(), 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		sys   *core.System
		nodes []int
	}{
		{"EPYC8", epyc, []int{7, 10, 14}},
		{"GA102", testcases.GA102(db(), 7, 14, 10, false), []int{7, 10, 14, 22, 28}},
	} {
		b.Run(c.name, func(b *testing.B) {
			ky := NewKeyer(db())
			cp := cost.DefaultParams()
			if _, err := ky.SweepKey(c.sys, c.nodes, cp); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ky.SweepKey(c.sys, c.nodes, cp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParamKey is the perturbation what-if's cache-key derivation
// on GA102.
func BenchmarkParamKey(b *testing.B) {
	sys := testcases.GA102(db(), 7, 14, 10, false)
	ky := NewKeyer(db())
	if _, err := ky.ParamKey(sys); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ky.ParamKey(sys); err != nil {
			b.Fatal(err)
		}
	}
}
