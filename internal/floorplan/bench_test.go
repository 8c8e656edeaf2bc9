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

// benchTreeUpdate measures a single-area Update that misses the shape
// memo: the per-Gray-step floorplan cost of a compiled sweep step that
// lays the package out. Areas that never recur keep the memo from
// serving a step, perturbing the globally smallest block keeps it in
// place in the sorted order, and the benchmark asserts every step took
// exactly one layout.
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
	if s := tr.Stats(); s.Fallbacks != uint64(b.N) || s.MemoHits > 0 {
		b.Fatalf("every update should miss the memo and lay out once: %+v", s)
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
