package floorplan

import (
	"fmt"
	"testing"
)

func benchBlocks(n int) []Block {
	blocks := make([]Block, n)
	for i := range blocks {
		blocks[i] = Block{Name: fmt.Sprintf("b%d", i), AreaMM2: float64(20 + 13*i%200)}
	}
	return blocks
}

func BenchmarkPlan8(b *testing.B) {
	blocks := benchBlocks(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(blocks, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlan32(b *testing.B) {
	blocks := benchBlocks(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(blocks, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanFlexible8(b *testing.B) {
	blocks := benchBlocks(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanFlexible(blocks, 0.5, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTreeUpdate measures the retained-tree single-area fast path: the
// per-Gray-step floorplan cost of a compiled sweep whose step misses the
// shape memo. Perturbing the globally smallest block keeps the topology
// provably stable — it is last in every partition sequence, so every
// decision depends only on the unchanged predecessors — areas that
// never recur keep the memo from serving a step, and the benchmark
// asserts every step took the relayout.
func benchTreeUpdate(b *testing.B, n int) {
	b.Helper()
	blocks := benchBlocks(n)
	smallest := 0
	for i, blk := range blocks {
		if blk.AreaMM2 < blocks[smallest].AreaMM2 {
			smallest = i
		}
	}
	var tr Tree
	if _, err := tr.PlanDims(blocks, 0.5); err != nil {
		b.Fatal(err)
	}
	base := blocks[smallest].AreaMM2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Update(smallest, base-float64(i+1)*1e-9); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := tr.Stats(); s.Fallbacks > 0 || s.MemoHits > 0 || s.FastPath == 0 {
		b.Fatalf("update benchmark left the relayout fast path: %+v", s)
	}
}

func BenchmarkTreeUpdate8(b *testing.B)  { benchTreeUpdate(b, 8) }
func BenchmarkTreeUpdate32(b *testing.B) { benchTreeUpdate(b, 32) }

// benchTreeDiff measures a block-set change on the Disaggregate
// candidate shape — two survivors removed, one merged die appended —
// alternating between two candidate sets so every plan is a shape
// change, which rebuilds the tree from scratch.
func benchTreeDiff(b *testing.B, n int) {
	b.Helper()
	base := benchBlocks(n)
	cands := make([][]Block, 2)
	for c := range cands {
		i, j := c, c+2 // two distinct overlapping pairs
		cand := make([]Block, 0, n-1)
		for k, blk := range base {
			if k != i && k != j {
				cand = append(cand, blk)
			}
		}
		cands[c] = append(cand, Block{
			Name:    base[i].Name + "+" + base[j].Name,
			AreaMM2: base[i].AreaMM2 + base[j].AreaMM2,
		})
	}
	var tr Tree
	if _, err := tr.PlanDims(base, 0.5); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.PlanDims(cands[i&1], 0.5); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := tr.Stats(); s.DiffFallbacks != uint64(b.N) {
		b.Fatalf("every candidate plan should rebuild once: %+v", s)
	}
}

func BenchmarkTreeDiff9(b *testing.B)  { benchTreeDiff(b, 9) }
func BenchmarkTreeDiff24(b *testing.B) { benchTreeDiff(b, 24) }
