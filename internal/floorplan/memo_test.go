package floorplan

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Tests of the shape memo behind Tree.Update: every served
// bounding box must carry the from-scratch planner's bits, whatever mix
// of memo hits, sort-order repairs and layouts produced it.

// dimsIdentical checks a tree result against a from-scratch plan of
// blocks at float-bit granularity.
func dimsIdentical(t *testing.T, label string, blocks []Block, spacing float64, got *Result) {
	t.Helper()
	var sc Scratch
	want, err := sc.Plan(blocks, spacing)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	boxBitIdentical(t, label, want, got)
}

// sweepBlocks builds k identical CCD-style blocks plus odd ones, each
// block drawing its area from a small per-kind pool — the shape of a
// compiled node sweep, where every Gray step moves one die between a
// handful of node areas and identical dies swap sort positions.
func sweepBlocks(rng *rand.Rand, k, odd int, aspects bool) (blocks []Block, pools [][]float64) {
	ccd := []float64{74, 52.5, 61.25, 88}
	for i := 0; i < k; i++ {
		blocks = append(blocks, Block{Name: fmt.Sprintf("ccd%d", i), AreaMM2: ccd[rng.Intn(len(ccd))]})
		pools = append(pools, ccd)
	}
	for i := 0; i < odd; i++ {
		pool := []float64{416, 61.25, 150 + 50*rng.Float64(), 20 + rng.Float64()}
		b := Block{Name: fmt.Sprintf("odd%d", i), AreaMM2: pool[rng.Intn(len(pool))]}
		if aspects {
			b.AspectRatio = 0.5 + rng.Float64()
		}
		blocks = append(blocks, b)
		pools = append(pools, pool)
	}
	return blocks, pools
}

// Randomized Update sequences over identical blocks, exact area ties
// (pools share values across kinds) and non-uniform aspect ratios, with
// PlanDims calls interleaved after whatever mix of hits and misses came
// before.
func TestTreeUpdateDimsMatchesScratchRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	var total TreeStats
	for round := 0; round < 40; round++ {
		k, odd := 2+rng.Intn(7), rng.Intn(3)
		blocks, pools := sweepBlocks(rng, k, odd, round%3 == 2)
		spacing := []float64{0.1, 0.5, 1}[round%3]
		var tr Tree
		if _, err := tr.PlanDims(blocks, spacing); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 300; step++ {
			label := fmt.Sprintf("round %d step %d", round, step)
			i := rng.Intn(len(blocks))
			switch r := rng.Intn(40); {
			case r == 0:
				// A full plan of the current set with one area changed:
				// the same-shape PlanDims path, which re-sorts.
				blocks[i].AreaMM2 = pools[i][rng.Intn(len(pools[i]))]
				got, err := tr.PlanDims(blocks, spacing)
				if err != nil {
					t.Fatal(err)
				}
				dimsIdentical(t, label+" (PlanDims)", blocks, spacing, got)
				continue
			case r < 4:
				blocks[i].AreaMM2 = 1 + 400*rng.Float64() // a shape never seen before
			default:
				blocks[i].AreaMM2 = pools[i][rng.Intn(len(pools[i]))]
			}
			got, err := tr.Update(i, blocks[i].AreaMM2)
			if err != nil {
				t.Fatal(err)
			}
			dimsIdentical(t, label, blocks, spacing, got)
		}
		total.Add(tr.Stats())
	}
	if total.MemoHits == 0 || total.Fallbacks == 0 {
		t.Errorf("sequence did not exercise memo hits and layouts: %+v", total)
	}
}

// Equal areas in a different aspect-ratio order are different shapes: a
// memo keyed on the areas alone would serve one's box for the other.
func TestTreeMemoKeysAspectRatios(t *testing.T) {
	blocks := []Block{
		{Name: "x", AreaMM2: 50, AspectRatio: 2},
		{Name: "y", AreaMM2: 50, AspectRatio: 0.5},
		{Name: "z", AreaMM2: 100},
	}
	var tr Tree
	if _, err := tr.PlanDims(blocks, 0.5); err != nil {
		t.Fatal(err)
	}
	if tr.memo.keyWords != 2*len(blocks) {
		t.Fatalf("non-uniform aspect ratios must enter the key: %d key words for %d blocks", tr.memo.keyWords, len(blocks))
	}
	update := func(i int, area float64) *Result {
		t.Helper()
		blocks[i].AreaMM2 = area
		got, err := tr.Update(i, area)
		if err != nil {
			t.Fatal(err)
		}
		dimsIdentical(t, fmt.Sprintf("%s=%g", blocks[i].Name, area), blocks, 0.5, got)
		return got
	}
	first := *update(0, 100) // sorted areas 100 100 50, aspects 2 1 0.5
	update(0, 50)
	second := *update(1, 100) // sorted areas 100 100 50, aspects 0.5 1 2
	if tr.Stats().MemoHits != 0 {
		t.Fatalf("a shape with the same areas in another aspect order hit the memo: %+v", tr.Stats())
	}
	if first.WidthMM == second.WidthMM && first.HeightMM == second.HeightMM {
		t.Fatalf("test shapes should plan to different boxes: %+v", first)
	}
	update(1, 50)
	update(0, 100)
	if s := tr.Stats(); s.MemoHits != 2 {
		t.Errorf("revisited shapes should both hit: %+v", s)
	}
	// The hash separates these two shapes; the bit-for-bit key compare
	// must too, for shapes whose hashes collide.
	h := tr.shapeHash()
	e := 0
	for tr.memo.hash[e] != h {
		e++
	}
	key := append([]uint64(nil), tr.memo.keys[e*tr.memo.keyWords:(e+1)*tr.memo.keyWords]...)
	if !tr.keyMatches(key) {
		t.Fatal("stored key does not match its own shape")
	}
	key[3], key[5] = key[5], key[3] // same areas, aspects reordered
	if tr.keyMatches(key) {
		t.Error("key compare ignores the aspect ratios")
	}
}

// hitOnce drives tr into a memo hit by moving block i of blocks to area
// a, back, and to a again.
func hitOnce(t *testing.T, tr *Tree, blocks []Block, i int, a float64) {
	t.Helper()
	old := blocks[i].AreaMM2
	before := tr.Stats().MemoHits
	for _, v := range []float64{a, old, a} {
		blocks[i].AreaMM2 = v
		got, err := tr.Update(i, v)
		if err != nil {
			t.Fatal(err)
		}
		dimsIdentical(t, "hitOnce", blocks, 0.5, got)
	}
	if tr.Stats().MemoHits == before {
		t.Fatalf("expected a memo hit: %+v", tr.Stats())
	}
}

// A memo hit serves a stored box without laying anything out; every
// entry point after one must still match the from-scratch plan: a
// same-shape PlanDims, a block-set change and a missing Update.
func TestTreeMemoHitThenOtherEntryPoints(t *testing.T) {
	var blocks []Block
	for i := 0; i < 8; i++ {
		blocks = append(blocks, Block{Name: fmt.Sprintf("ccd%d", i), AreaMM2: 74})
	}
	blocks = append(blocks, Block{Name: "io", AreaMM2: 416})
	var tr Tree
	if _, err := tr.PlanDims(blocks, 0.5); err != nil {
		t.Fatal(err)
	}

	// Same-shape PlanDims with a changed area.
	hitOnce(t, &tr, blocks, 3, 52.5)
	blocks[5].AreaMM2 = 88
	got, err := tr.PlanDims(blocks, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dimsIdentical(t, "PlanDims after hit", blocks, 0.5, got)

	// Block-set change: drop a CCD, append a merged die.
	hitOnce(t, &tr, blocks, 0, 52.5)
	edited := append(append([]Block{}, blocks[1:]...), Block{Name: "merged", AreaMM2: 126.5})
	rebuilds := tr.Stats().DiffFallbacks
	if got, err = tr.PlanDims(edited, 0.5); err != nil {
		t.Fatal(err)
	}
	dimsIdentical(t, "block-set change after hit", edited, 0.5, got)
	if tr.Stats().DiffFallbacks != rebuilds+1 {
		t.Errorf("shape change should count one block-set rebuild: %+v", tr.Stats())
	}
	if len(tr.memo.hash) != 0 {
		t.Errorf("a block-set change must reset the memo: %d entries kept", len(tr.memo.hash))
	}
	blocks = edited

	// A missing Update after a hit lays out the repaired order.
	hitOnce(t, &tr, blocks, 6, 88)
	fallbacks := tr.Stats().Fallbacks
	blocks[2].AreaMM2 = 300
	if got, err = tr.Update(2, 300); err != nil {
		t.Fatal(err)
	}
	dimsIdentical(t, "miss after hit", blocks, 0.5, got)
	if tr.Stats().Fallbacks != fallbacks+1 {
		t.Errorf("a miss after a hit should lay out once (one fallback): %+v", tr.Stats())
	}
}

// The memo starts at memoMinSlots, doubles at half load, stops storing
// at memoMaxSlots/2 entries (stored shapes keep hitting), and resets on
// a spacing or block-set change.
func TestTreeMemoGrowthAndReset(t *testing.T) {
	blocks := []Block{{Name: "a", AreaMM2: 100}, {Name: "b", AreaMM2: 60}, {Name: "c", AreaMM2: 30}}
	var tr Tree
	if _, err := tr.PlanDims(blocks, 0.5); err != nil {
		t.Fatal(err)
	}
	if len(tr.memo.slots) != 0 {
		t.Fatalf("memo allocated before the first store: %d slots", len(tr.memo.slots))
	}
	shape := func(k int) float64 { return 10 + float64(k)/8 }
	for k := 0; k < memoMaxSlots; k++ {
		blocks[2].AreaMM2 = shape(k)
		got, err := tr.Update(2, shape(k))
		if err != nil {
			t.Fatal(err)
		}
		if k%97 == 0 {
			dimsIdentical(t, fmt.Sprintf("shape %d", k), blocks, 0.5, got)
		}
		switch k {
		case 0:
			if len(tr.memo.slots) != memoMinSlots {
				t.Fatalf("first store should size %d slots, got %d", memoMinSlots, len(tr.memo.slots))
			}
		case memoMinSlots / 2:
			if len(tr.memo.slots) != 2*memoMinSlots {
				t.Fatalf("store %d should double the table to %d slots, got %d", k+1, 2*memoMinSlots, len(tr.memo.slots))
			}
		}
	}
	if n := len(tr.memo.hash); n != memoMaxSlots/2 || len(tr.memo.slots) != memoMaxSlots {
		t.Fatalf("memo should stop at %d entries in %d slots: %d entries, %d slots", memoMaxSlots/2, memoMaxSlots, n, len(tr.memo.slots))
	}
	if s := tr.Stats(); s.MemoHits != 0 {
		t.Fatalf("distinct shapes hit the memo: %+v", s)
	}
	// The first shapes were stored, the last ones were not.
	for _, k := range []int{0, memoMaxSlots - 1} {
		hits := tr.Stats().MemoHits
		blocks[2].AreaMM2 = shape(k)
		got, err := tr.Update(2, shape(k))
		if err != nil {
			t.Fatal(err)
		}
		dimsIdentical(t, fmt.Sprintf("revisit %d", k), blocks, 0.5, got)
		if hit := tr.Stats().MemoHits > hits; hit != (k < memoMaxSlots/2) {
			t.Errorf("revisit of shape %d: hit=%v", k, hit)
		}
	}

	// Resets: spacing and block-set changes each empty the memo.
	if _, err := tr.PlanDims(blocks, 0.8); err != nil {
		t.Fatal(err)
	}
	if len(tr.memo.hash) != 0 {
		t.Errorf("spacing change kept %d memo entries", len(tr.memo.hash))
	}
	for _, v := range []float64{12, 13} {
		blocks[2].AreaMM2 = v
		if _, err := tr.Update(2, v); err != nil {
			t.Fatal(err)
		}
	}
	blocks[0].AspectRatio = 2 // same names and count: a shape change all the same
	got, err := tr.PlanDims(blocks, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	dimsIdentical(t, "aspect change", blocks, 0.8, got)
	if len(tr.memo.hash) != 0 || tr.memo.keyWords != 2*len(blocks) {
		t.Errorf("block-set change should reset the memo and widen its key: %d entries, %d key words", len(tr.memo.hash), tr.memo.keyWords)
	}
}

// NaN areas are rejected at every entry point: the stable sort never
// moves a block across a NaN (so no O(n) repair could track one entering
// or leaving), and layoutDims's inline max assumes ordered dims.
func TestNaNAreasRejected(t *testing.T) {
	nan := math.NaN()
	blocks := []Block{{Name: "a", AreaMM2: 10}, {Name: "b", AreaMM2: nan}, {Name: "c", AreaMM2: 20}}
	if _, err := Plan(blocks, 0.5); err == nil {
		t.Error("Plan accepted a NaN area")
	}
	if _, err := PlanFlexible(blocks, 0.5, nil); err == nil {
		t.Error("PlanFlexible accepted a NaN area")
	}
	var tr Tree
	if _, err := tr.PlanDims(blocks, 0.5); err == nil {
		t.Error("Tree.PlanDims accepted a NaN area")
	}
	blocks[1].AreaMM2 = 5
	if _, err := tr.PlanDims(blocks, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Update(1, nan); err == nil {
		t.Error("Tree.Update accepted a NaN area")
	}
	got, err := tr.Update(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	blocks[1].AreaMM2 = 6
	dimsIdentical(t, "after rejected NaN", blocks, 0.5, got)
}

// Pin what MemoHits counts: one per Update served from the memo,
// disjoint from Fallbacks and Unchanged, counted as reuse, carried by
// Add/Delta/Plans and printed by String.
func TestTreeStatsMemoHits(t *testing.T) {
	blocks := []Block{{Name: "a", AreaMM2: 400}, {Name: "b", AreaMM2: 200}, {Name: "c", AreaMM2: 100}}
	var tr Tree
	if _, err := tr.PlanDims(blocks, 0.5); err != nil {
		t.Fatal(err)
	}
	for _, a := range []float64{101, 100, 101, 101} { // miss, miss, hit, unchanged
		if _, err := tr.Update(2, a); err != nil {
			t.Fatal(err)
		}
	}
	s := tr.Stats()
	if s.MemoHits != 1 || s.Unchanged != 1 || s.FastPath != 0 || s.Rebuilds != 1 || s.Fallbacks != 2 {
		t.Fatalf("unexpected counters: %+v", s)
	}
	if s.Plans() != 5 {
		t.Errorf("Plans() = %d, want 5 (one per call)", s.Plans())
	}
	if s.ReuseRate() != 0.5 {
		t.Errorf("ReuseRate() = %g, want 0.5: a memo hit and an unchanged plan are reuse, two layouts are not", s.ReuseRate())
	}
	var sum TreeStats
	sum.Add(s)
	sum.Add(s)
	if sum.MemoHits != 2 || sum.Delta(s) != s {
		t.Errorf("Add/Delta lost MemoHits: sum %+v, delta %+v", sum, sum.Delta(s))
	}
	if str := s.String(); !strings.Contains(str, ": 1 memo /") {
		t.Errorf("String() does not report memo hits: %q", str)
	}
}
