package floorplan

import "fmt"

// This file is the retained dims-only planner of bounding boxes. A Tree
// computes the bounding box Scratch.Plan computes — the sort, the
// area-balanced bi-partition and the bottom-up compose — but no
// placements and no adjacencies, which only the silicon-bridge model
// reads (it plans with Scratch.Plan).
//
// Every box a Tree returns was produced by one dims-only layout of the
// sorted blocks, whose float expressions are layoutSeg's in the same
// order, so it is bit-identical to Scratch.Plan's on the same blocks.
// Between calls the tree keeps the block set and its last Result: a
// call that changes no area returns that Result as is, and any other
// call re-sorts and lays out. A spacing change or a block-set change
// (blocks removed, inserted or renamed: the Disaggregate candidate
// shape) is counted apart, as a rebuild.

// TreeStats counts how a Tree served its PlanDims calls. Every call
// raises exactly one counter, so Plans() is the call count. Rebuilds
// are the plans no kept state could serve by contract (the first plan,
// spacing changes).
type TreeStats struct {
	// Rebuilds counts deliberate from-scratch plans: the first plan and
	// any plan whose spacing changed, where no kept state could apply.
	Rebuilds uint64
	// FastPath is always zero. It counted plans served by an incremental
	// relayout that the tree no longer has; the field stays so that code
	// reading it keeps compiling.
	FastPath uint64
	// Fallbacks counts same-shape plans that changed an area and were
	// laid out from scratch.
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
	s.Fallbacks += o.Fallbacks
	s.DiffFallbacks += o.DiffFallbacks
	s.Unchanged += o.Unchanged
}

// Plans returns the total number of PlanDims calls the counters cover.
func (s TreeStats) Plans() uint64 {
	return s.Unchanged + s.Fallbacks + s.DiffFallbacks + s.Rebuilds
}

// String renders the one-line summary CLIs print under -progress (the
// single source of the format, so surfaces cannot drift).
func (s TreeStats) String() string {
	return fmt.Sprintf("floorplan tree: %d unchanged / %d+%d fallbacks / %d rebuilds",
		s.Unchanged, s.Fallbacks, s.DiffFallbacks, s.Rebuilds)
}

// Tree is a retained floorplanner of bounding boxes (see the file
// comment). The zero value is ready to use. A Tree is NOT safe for
// concurrent use, and the Result it returns is owned by the Tree and
// overwritten by the next call.
type Tree struct {
	spacing float64
	built   bool

	blocks []Block // caller order, current areas
	// Scratch buffers of the layout: the blocks' sorted order as caller
	// indices, which the recursion partitions in place, and the buffers
	// each level consumes fully before recursing (the layoutSeg
	// discipline).
	order []int
	tmp   []int
	toA   []bool

	res Result

	// Stats counts the tree's work. An owner releases the counts by
	// adding them into its totals and zeroing the field
	// (pkgcarbon.Estimator.FoldFloorplanStats).
	Stats TreeStats
}

// PlanDims floorplans the blocks. It returns the previous Result when
// no area changed, and otherwise re-sorts and lays out, counting a
// spacing change or a removed, inserted or renamed block as a rebuild.
// The returned Result carries only the bounding box (WidthMM, HeightMM)
// and ChipletAreaMM2 — nil Placements, nil Adjacencies — bit-identical
// to Scratch.Plan's on every input. Packaging models that consume only
// the package area (every architecture except silicon bridges) run on
// it.
func (t *Tree) PlanDims(blocks []Block, spacingMM float64) (*Result, error) {
	if spacingMM == 0 {
		spacingMM = DefaultSpacingMM
	}
	total, err := validateBlocks(blocks, spacingMM)
	if err != nil {
		return nil, err
	}
	switch {
	case !t.built || t.spacing != spacingMM:
		t.Stats.Rebuilds++
	case !t.sameShape(blocks):
		t.Stats.DiffFallbacks++
	case t.sameAreas(blocks):
		t.Stats.Unchanged++
		return &t.res, nil
	default:
		t.Stats.Fallbacks++
	}
	t.spacing, t.built = spacingMM, true
	t.blocks = append(t.blocks[:0], blocks...)
	t.layout(total)
	return &t.res, nil
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

// sameAreas reports whether blocks, of the kept shape, carry the kept
// areas.
func (t *Tree) sameAreas(blocks []Block) bool {
	for i, b := range blocks {
		if b.AreaMM2 != t.blocks[i].AreaMM2 {
			return false
		}
	}
	return true
}

// layout sorts the kept blocks as Scratch.Plan does, lays them out
// from scratch and refreshes the Result.
func (t *Tree) layout(total float64) {
	n := len(t.blocks)
	if cap(t.order) < n {
		t.order = make([]int, n)
		t.tmp = make([]int, n)
		t.toA = make([]bool, n)
	}
	order := t.order[:n]
	// The stable insertion sort of sortBlocksByArea, over caller
	// indices: decreasing area, ties in caller order.
	for i := range order {
		j, a := i-1, t.blocks[i].AreaMM2
		for j >= 0 && t.blocks[order[j]].AreaMM2 < a {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = i
	}
	t.res.WidthMM, t.res.HeightMM = t.layoutDims(order)
	t.res.ChipletAreaMM2 = total
}

// layoutDims is layoutSeg without placements: it bi-partitions seg
// (caller indices in pre-partition order, permuted in place exactly
// like layoutSeg's blocks) and returns the subtree's composed bounding
// box, by the same float expressions as layoutSeg's, in the same order.
func (t *Tree) layoutDims(seg []int) (w, h float64) {
	if len(seg) == 1 {
		return t.blocks[seg[0]].dims()
	}
	na := 0
	var areaA, areaB float64
	toA := t.toA[:len(seg)]
	for i, k := range seg {
		if areaA <= areaB {
			toA[i] = true
			areaA += t.blocks[k].AreaMM2
			na++
		} else {
			toA[i] = false
			areaB += t.blocks[k].AreaMM2
		}
	}
	tmp := t.tmp[:len(seg)]
	copy(tmp, seg)
	ia, ib := 0, na
	for i, k := range tmp {
		if toA[i] {
			seg[ia] = k
			ia++
		} else {
			seg[ib] = k
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
