package floorplan

import "fmt"

// This file is the memoized from-scratch planner of bounding boxes. A
// Tree computes the bounding box Scratch.Plan computes — the sort, the
// area-balanced bi-partition and the bottom-up compose — but no
// placements and no adjacencies, which only the silicon-bridge model
// reads (it plans with Scratch.Plan).
//
// Every box a Tree returns was produced by one dims-only layout of a
// sorted order, whose float expressions are layoutSeg's in the same
// order, so it is bit-identical to Scratch.Plan's on the same blocks.
// Between calls the tree keeps three things:
//
//   - The sorted order. PlanDims re-sorts when an area changed; Update,
//     which changes one area (the Gray-step shape of a compiled sweep
//     walk), repairs it in O(n).
//   - An exact shape memo. The bounding box is a pure function of the
//     spacing and the sorted (area, aspect ratio) sequence — block names
//     and caller order only decide which block sits where — so Update
//     looks the repaired sequence up, keyed by its Float64bits, and
//     stores the box of every miss after laying it out.
//   - The last Result, which calls that change no area return as is.
//
// A spacing change or a block-set change (blocks removed, inserted or
// renamed: the Disaggregate candidate shape) starts over: re-sort, lay
// out and empty the memo.

// TreeStats counts how a Tree served its PlanDims and Update calls.
// Every call raises exactly one counter, so Plans() is the call count.
// Rebuilds are the plans no kept state could serve by contract (the
// first plan, spacing changes); every other plan was eligible for reuse.
type TreeStats struct {
	// Rebuilds counts deliberate from-scratch plans: the first plan and
	// any plan whose spacing changed, where no kept state could apply.
	Rebuilds uint64
	// FastPath is always zero. It counted plans served by an incremental
	// relayout that the tree no longer has; the field stays so that code
	// reading it keeps compiling.
	FastPath uint64
	// MemoHits counts Updates served from the exact shape memo: the
	// sorted (area, aspect ratio) sequence was laid out before, so its
	// stored bounding box is returned.
	MemoHits uint64
	// Fallbacks counts same-shape plans laid out from scratch: PlanDims
	// calls that changed an area, and Updates the memo missed.
	Fallbacks uint64
	// DiffFallbacks counts PlanDims calls whose block set changed
	// (blocks removed, inserted or renamed); each rebuilds from scratch.
	DiffFallbacks uint64
	// Unchanged counts plans that changed no area and returned the
	// previous Result.
	Unchanged uint64
}

// Add folds another counter snapshot into s (for aggregating per-worker
// trees).
func (s *TreeStats) Add(o TreeStats) {
	s.Rebuilds += o.Rebuilds
	s.FastPath += o.FastPath
	s.MemoHits += o.MemoHits
	s.Fallbacks += o.Fallbacks
	s.DiffFallbacks += o.DiffFallbacks
	s.Unchanged += o.Unchanged
}

// Plans returns the total number of PlanDims/Update calls the counters
// cover.
func (s TreeStats) Plans() uint64 {
	return s.MemoHits + s.Unchanged + s.Fallbacks + s.DiffFallbacks + s.Rebuilds
}

// ReuseRate returns the fraction of reuse-eligible plans (every plan
// except the deliberate Rebuilds, which could never reuse kept state)
// served without a layout: memo hits and unchanged plans. Counting
// first plans and spacing changes in the denominator would conflate
// "the layout ran" with "reuse was never possible".
func (s TreeStats) ReuseRate() float64 {
	served := s.MemoHits + s.Unchanged
	eligible := served + s.Fallbacks + s.DiffFallbacks
	if eligible == 0 {
		return 0
	}
	return float64(served) / float64(eligible)
}

// String renders the one-line summary CLIs print under -progress (the
// single source of the format, so surfaces cannot drift).
func (s TreeStats) String() string {
	return fmt.Sprintf("floorplan tree: %d memo / %d unchanged / %d+%d fallbacks / %d rebuilds (%.1f%% reuse)",
		s.MemoHits, s.Unchanged, s.Fallbacks, s.DiffFallbacks, s.Rebuilds, 100*s.ReuseRate())
}

// Tree is a memoized floorplanner of bounding boxes (see the file
// comment). The zero value is ready to use: the first PlanDims call
// sorts and lays out the blocks, and later PlanDims or Update calls
// reuse the sorted order, the shape memo and the last Result where the
// new areas allow. A Tree is NOT safe for concurrent use, and the
// Result it returns is owned by the Tree and overwritten by the next
// call.
type Tree struct {
	spacing float64
	built   bool

	blocks []Block   // caller order, current areas
	sorted []Block   // sorted (pre-partition) order
	srcIdx []int     // sorted position -> caller index
	posOf  []int     // caller index -> sorted position
	areas  []float64 // current areas in sorted order (the memo key)

	// Scratch buffers of the layout recursion, which consumes each fully
	// before recursing (the layoutSeg discipline).
	walkOrder []int // members as sorted positions, partitioned in place
	walkTmp   []int
	walkToA   []bool

	memo shapeMemo
	res  Result

	// Stats counts the tree's work. An owner releases the counts by
	// adding them into its totals and zeroing the field
	// (pkgcarbon.Estimator.FoldFloorplanStats).
	Stats TreeStats
}

// PlanDims floorplans the blocks. It returns the previous Result when
// no area changed, re-sorts and lays out when only areas changed, and
// starts over when the spacing changed or blocks were removed, inserted
// or renamed. The returned Result carries only the bounding box
// (WidthMM, HeightMM) and ChipletAreaMM2 — nil Placements, nil
// Adjacencies — bit-identical to Scratch.Plan's on every input.
// Packaging models that consume only the package area (every
// architecture except silicon bridges) run on it.
func (t *Tree) PlanDims(blocks []Block, spacingMM float64) (*Result, error) {
	if spacingMM == 0 {
		spacingMM = DefaultSpacingMM
	}
	total, err := validateBlocks(blocks, spacingMM)
	if err != nil {
		return nil, err
	}
	if !t.built || t.spacing != spacingMM {
		t.Stats.Rebuilds++
		t.rebuild(blocks, spacingMM, total)
		return &t.res, nil
	}
	if !t.sameShape(blocks) {
		// The block set itself changed (removed, inserted or renamed
		// blocks): start over.
		t.Stats.DiffFallbacks++
		t.rebuild(blocks, spacingMM, total)
		return &t.res, nil
	}
	changed := false
	for i, b := range blocks {
		if t.blocks[i].AreaMM2 != b.AreaMM2 {
			t.blocks[i].AreaMM2 = b.AreaMM2
			changed = true
		}
	}
	if !changed {
		t.Stats.Unchanged++
		return &t.res, nil
	}
	t.Stats.Fallbacks++
	t.resort(len(t.blocks))
	t.layout(total)
	return &t.res, nil
}

// Update re-plans after a single block's area change — the Gray-step
// shape of a compiled sweep walk. blockIdx indexes the caller-order
// block list of the last PlanDims call. It repairs the sorted order and
// consults the exact shape memo (see the file comment); on a miss it
// lays out the repaired order and stores the box.
func (t *Tree) Update(blockIdx int, areaMM2 float64) (*Result, error) {
	if !t.built {
		return nil, fmt.Errorf("floorplan: Tree.Update before PlanDims")
	}
	if blockIdx < 0 || blockIdx >= len(t.blocks) {
		return nil, fmt.Errorf("floorplan: Tree.Update block index %d outside [0, %d)", blockIdx, len(t.blocks))
	}
	if !(areaMM2 > 0) {
		b := t.blocks[blockIdx]
		b.AreaMM2 = areaMM2
		return nil, errBlockArea(b)
	}
	if t.blocks[blockIdx].AreaMM2 == areaMM2 {
		t.Stats.Unchanged++
		return &t.res, nil
	}
	t.blocks[blockIdx].AreaMM2 = areaMM2
	// Re-sum the total in caller order: patching it by the area delta
	// would not carry the bits of the fresh in-order sum.
	total := 0.0
	for i := range t.blocks {
		total += t.blocks[i].AreaMM2
	}
	sp := t.posOf[blockIdx]
	t.sorted[sp].AreaMM2 = areaMM2
	t.areas[sp] = areaMM2
	t.repairOrder(sp)
	h := t.shapeHash()
	if w, hgt, hit := t.memoLookup(h); hit {
		t.res.WidthMM, t.res.HeightMM, t.res.ChipletAreaMM2 = w, hgt, total
		t.Stats.MemoHits++
		return &t.res, nil
	}
	t.Stats.Fallbacks++
	t.layout(total)
	t.memoStore(h, t.res.WidthMM, t.res.HeightMM)
	return &t.res, nil
}

// repairOrder moves the block at sorted position sp, whose area just
// changed, to its stable-sort position by adjacent swaps — area
// descending, ties by ascending caller index, the order resort derives.
// Every other block is already in order, so this is resort's
// permutation in O(n).
func (t *Tree) repairOrder(sp int) {
	start := sp
	a, src := t.areas[sp], t.srcIdx[sp]
	for sp > 0 && (t.areas[sp-1] < a || (t.areas[sp-1] == a && t.srcIdx[sp-1] > src)) {
		t.swapSorted(sp-1, sp)
		sp--
	}
	if sp == start {
		for sp < len(t.areas)-1 && (t.areas[sp+1] > a || (t.areas[sp+1] == a && t.srcIdx[sp+1] < src)) {
			t.swapSorted(sp, sp+1)
			sp++
		}
	}
}

// swapSorted exchanges sorted positions i and j, keeping the sorted
// blocks, their areas, srcIdx and posOf in step.
func (t *Tree) swapSorted(i, j int) {
	t.sorted[i], t.sorted[j] = t.sorted[j], t.sorted[i]
	t.areas[i], t.areas[j] = t.areas[j], t.areas[i]
	t.srcIdx[i], t.srcIdx[j] = t.srcIdx[j], t.srcIdx[i]
	t.posOf[t.srcIdx[i]] = i
	t.posOf[t.srcIdx[j]] = j
}

// sameShape reports whether blocks matches the kept set in everything
// but areas.
func (t *Tree) sameShape(blocks []Block) bool {
	if len(blocks) != len(t.blocks) {
		return false
	}
	for i, b := range blocks {
		if b.Name != t.blocks[i].Name || b.AspectRatio != t.blocks[i].AspectRatio {
			return false
		}
	}
	return true
}

// rebuild starts over on a new block set or spacing: it re-sorts, lays
// out and resets the shape memo.
func (t *Tree) rebuild(blocks []Block, spacing, total float64) {
	n := len(blocks)
	t.spacing = spacing
	t.built = true
	t.blocks = append(t.blocks[:0], blocks...)
	t.sizeBuffers(n)
	t.resort(n)
	t.layout(total)
	t.resetMemo()
}

// sizeBuffers grows the per-block buffers to n and re-slices the
// length-dependent one.
func (t *Tree) sizeBuffers(n int) {
	if cap(t.srcIdx) < n {
		t.srcIdx = make([]int, n)
		t.posOf = make([]int, n)
		t.areas = make([]float64, n)
		t.walkOrder = make([]int, n)
		t.walkTmp = make([]int, n)
		t.walkToA = make([]bool, n)
	}
	t.areas = t.areas[:n]
}

// resort derives the sorted permutation of t.blocks[:n]: the stable
// insertion sort by decreasing area of sortBlocksByArea carrying the
// caller index, so the permutation is the one Scratch.Plan produces.
func (t *Tree) resort(n int) {
	src := t.srcIdx[:n]
	for i := range src {
		src[i] = i
	}
	t.sorted = append(t.sorted[:0], t.blocks...)
	sorted := t.sorted
	for i := 1; i < n; i++ {
		b, s := sorted[i], src[i]
		j := i - 1
		for j >= 0 && sorted[j].AreaMM2 < b.AreaMM2 {
			sorted[j+1], src[j+1] = sorted[j], src[j]
			j--
		}
		sorted[j+1], src[j+1] = b, s
	}
	posOf := t.posOf[:n]
	for pos, i := range src {
		posOf[i] = pos
	}
	for pos := range sorted {
		t.areas[pos] = sorted[pos].AreaMM2
	}
}

// layout lays out the current sorted order from scratch and refreshes
// the Result.
func (t *Tree) layout(total float64) {
	order := t.walkOrder[:len(t.sorted)]
	for i := range order {
		order[i] = i
	}
	t.res.WidthMM, t.res.HeightMM = t.layoutDims(order)
	t.res.ChipletAreaMM2 = total
}

// layoutDims is layoutSeg without placements: it bi-partitions seg
// (members as sorted positions in pre-partition order, permuted in
// place exactly like layoutSeg's blocks) and returns the subtree's
// composed bounding box, by the same float expressions as layoutSeg's,
// in the same order.
func (t *Tree) layoutDims(seg []int) (w, h float64) {
	if len(seg) == 1 {
		return t.sorted[seg[0]].dims()
	}
	na := 0
	var areaA, areaB float64
	toA := t.walkToA[:len(seg)]
	for i, sp := range seg {
		if areaA <= areaB {
			toA[i] = true
			areaA += t.areas[sp]
			na++
		} else {
			toA[i] = false
			areaB += t.areas[sp]
		}
	}
	tmp := t.walkTmp[:len(seg)]
	copy(tmp, seg)
	ia, ib := 0, na
	for i, sp := range tmp {
		if toA[i] {
			seg[ia] = sp
			ia++
		} else {
			seg[ib] = sp
			ib++
		}
	}
	lw, lh := t.layoutDims(seg[:na])
	rw, rh := t.layoutDims(seg[na:])
	hw := lw + t.spacing + rw
	// Inline max: dims are positive reals (validated areas), so the
	// branch picks the same bits math.Max would without its NaN/±0
	// prologue.
	hh := lh
	if rh > hh {
		hh = rh
	}
	vw := lw
	if rw > vw {
		vw = rw
	}
	vh := lh + t.spacing + rh
	if hw*hh <= vw*vh {
		return hw, hh
	}
	return vw, vh
}
