package floorplan

import (
	"fmt"
	"math"
)

// This file is the retained-mode incremental planner for flexible
// (shape-curve) floorplans — PlanFlexible's counterpart to tree.go. A
// FlexTree caches the sorted permutation, the recursive area-balanced
// partition topology and every subtree's pruned Pareto shape set, so a
// re-plan after a small area change re-derives only the dirty
// leaf-to-root path's shape sets instead of the whole curve.
//
// The contract is bit-identity with PlanFlexible on the same blocks, by
// construction:
//
//   - The topology guard proves the sorted permutation and every
//     partition decision are unchanged (the same guard tree.go runs:
//     partitions depend on areas alone, which fixed-shape and flexible
//     plans share), so the slicing topology is exactly what a fresh
//     plan would rebuild.
//   - A subtree's shape set is a pure function of its leaf blocks and
//     the spacing: clean subtrees keep their retained sets — the very
//     values a fresh recursion would recompute — and dirty nodes re-run
//     the exact combine/prune sequence of layoutShapes, enumerating the
//     retained child sets in their stored order. prune's unstable sort
//     is deterministic for a fixed input order, and the input order is
//     reproduced, so ties and duplicate (w, h) realizations resolve
//     exactly as from scratch — the Pareto pruning is preserved, not
//     approximated.
//   - The root's best-shape pick and the adjacency scan run the
//     from-scratch code on the resulting placements.
//
// Any guard failure falls back to a full rebuild, which is the
// from-scratch algorithm itself, so no input can make the incremental
// path diverge: it can only decline.

// fnode is one retained shape-curve node: the slicing-tree links plus
// the subtree's pruned Pareto set of (width, height) realizations.
type fnode struct {
	parent, left, right int // node indices; left/right are -1 for leaves
	lo, hi              int // leaf-order segment [lo, hi) of the subtree
	shapes              []shape
}

// FlexTree is a retained-mode incremental flexible floorplanner. The
// zero value is ready to use. A FlexTree is NOT safe for concurrent
// use, and the Result it returns (including Placements and Adjacencies)
// is owned by the tree and overwritten by the next call.
type FlexTree struct {
	spacing float64
	aspects []float64
	built   bool

	blocks []Block // caller order, current areas
	sorted []Block // sorted (pre-partition) order
	srcIdx []int   // sorted position -> caller index
	posOf  []int   // caller index -> sorted position

	nodes   []fnode
	nused   int
	root    int
	leafOf  []int     // sorted position -> leaf node index
	leafPos []int     // sorted position -> leaf-order position
	areas   []float64 // current areas in sorted order
	changed []int     // sorted positions whose area changed this round

	walkOrder []int
	walkTmp   []int
	walkToA   []bool
	combBuf   []shape // combine's pre-prune candidate buffer, reused across nodes

	adj   []Adjacency
	res   Result
	stats TreeStats
}

// Stats snapshots the tree's work counters.
func (ft *FlexTree) Stats() TreeStats { return ft.stats }

// Plan floorplans the blocks with flexible aspect ratios, reusing the
// retained topology and every clean subtree's shape set when only block
// areas changed since the previous call. It is bit-identical to
// PlanFlexible on every input.
func (ft *FlexTree) Plan(blocks []Block, spacingMM float64, aspects []float64) (*Result, error) {
	// The validation replicates PlanFlexible's checks in its exact
	// order, so the retained and from-scratch paths surface identical
	// errors.
	if len(blocks) == 0 {
		return nil, errNoBlocks()
	}
	if spacingMM == 0 {
		spacingMM = DefaultSpacingMM
	}
	if spacingMM < 0.1 || spacingMM > 1 {
		return nil, errSpacing(spacingMM)
	}
	if aspects == nil {
		aspects = DefaultAspects
	}
	for _, ar := range aspects {
		if ar <= 0 {
			return nil, fmt.Errorf("floorplan: aspect ratio %g must be positive", ar)
		}
	}
	total := 0.0
	for _, b := range blocks {
		if !(b.AreaMM2 > 0) {
			return nil, errBlockArea(b)
		}
		total += b.AreaMM2
	}

	if !ft.built || ft.spacing != spacingMM || !sameAspects(ft.aspects, aspects) || !ft.sameShape(blocks) {
		ft.stats.Rebuilds++
		ft.rebuild(blocks, spacingMM, aspects, total)
		return &ft.res, nil
	}
	ft.changed = ft.changed[:0]
	for i, b := range blocks {
		if ft.blocks[i].AreaMM2 != b.AreaMM2 {
			ft.blocks[i].AreaMM2 = b.AreaMM2
			sp := ft.posOf[i]
			ft.sorted[sp].AreaMM2 = b.AreaMM2
			ft.areas[sp] = b.AreaMM2
			ft.changed = append(ft.changed, sp)
		}
	}
	if len(ft.changed) == 0 {
		ft.stats.Unchanged++
		return &ft.res, nil
	}
	if ft.update(total) {
		return &ft.res, nil
	}
	ft.stats.Fallbacks++
	ft.rebuild(ft.blocks, spacingMM, aspects, total)
	return &ft.res, nil
}

// Update re-plans after a single block's area change — the Gray-step
// shape of a compiled sweep walk over a flexible-floorplan system.
// blockIdx indexes the caller-order block list of the last Plan call.
func (ft *FlexTree) Update(blockIdx int, areaMM2 float64) (*Result, error) {
	if !ft.built {
		return nil, fmt.Errorf("floorplan: FlexTree.Update before Plan")
	}
	if blockIdx < 0 || blockIdx >= len(ft.blocks) {
		return nil, fmt.Errorf("floorplan: FlexTree.Update block index %d outside [0, %d)", blockIdx, len(ft.blocks))
	}
	if !(areaMM2 > 0) {
		b := ft.blocks[blockIdx]
		b.AreaMM2 = areaMM2
		return nil, errBlockArea(b)
	}
	if ft.blocks[blockIdx].AreaMM2 == areaMM2 {
		ft.stats.Unchanged++
		return &ft.res, nil
	}
	ft.blocks[blockIdx].AreaMM2 = areaMM2
	sp := ft.posOf[blockIdx]
	ft.sorted[sp].AreaMM2 = areaMM2
	ft.areas[sp] = areaMM2
	// Re-sum the total in caller order: patching it by the area delta
	// would not carry the bits of the fresh in-order sum.
	total := 0.0
	for i := range ft.blocks {
		total += ft.blocks[i].AreaMM2
	}
	ft.changed = append(ft.changed[:0], sp)
	if ft.update(total) {
		return &ft.res, nil
	}
	ft.stats.Fallbacks++
	ft.rebuild(ft.blocks, ft.spacing, ft.aspects, total)
	return &ft.res, nil
}

func sameAspects(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameShape reports whether blocks matches the retained set in
// everything but areas.
func (ft *FlexTree) sameShape(blocks []Block) bool {
	if len(blocks) != len(ft.blocks) {
		return false
	}
	for i, b := range blocks {
		if b.Name != ft.blocks[i].Name || b.AspectRatio != ft.blocks[i].AspectRatio {
			return false
		}
	}
	return true
}

// sortedOrderOK reports whether the retained permutation is still what
// the stable sort by decreasing area would produce.
func (ft *FlexTree) sortedOrderOK() bool {
	for k := 0; k < len(ft.sorted)-1; k++ {
		a, b := ft.areas[k], ft.areas[k+1]
		if a < b || (a == b && ft.srcIdx[k] > ft.srcIdx[k+1]) {
			return false
		}
	}
	return true
}

// rangeDirty reports whether any changed block's leaf-order position
// falls in [lo, hi).
func (ft *FlexTree) rangeDirty(lo, hi int) bool {
	for _, sp := range ft.changed {
		if p := ft.leafPos[sp]; p >= lo && p < hi {
			return true
		}
	}
	return false
}

// update is the incremental re-plan: the sorted-order check, a guard
// walk over the dirty paths that re-derives only their shape sets, and
// the root pick. Returns false on any flip.
func (ft *FlexTree) update(total float64) bool {
	if !ft.sortedOrderOK() {
		return false
	}
	order := ft.walkOrder[:len(ft.sorted)]
	for i := range order {
		order[i] = i
	}
	relayouts := 0
	if !ft.incNode(ft.root, order, &relayouts) {
		return false
	}
	ft.stats.FastPath++
	ft.stats.RelayoutNodeSum += uint64(relayouts)
	ft.finish(total)
	return true
}

// incNode verifies node ni's cached partition over seg and re-derives
// the shape sets of dirty subtrees, combining with the retained sibling
// sets. It returns false on any partition flip.
func (ft *FlexTree) incNode(ni int, seg []int, relayouts *int) bool {
	nd := &ft.nodes[ni]
	if nd.left < 0 {
		ft.leafShapes(ni, seg[0])
		*relayouts++
		return true
	}
	split := ft.nodes[nd.left].hi
	na := 0
	var areaA, areaB float64
	toA := ft.walkToA[:len(seg)]
	for i, sp := range seg {
		goesA := areaA <= areaB
		if goesA != (ft.leafPos[sp] < split) {
			return false
		}
		toA[i] = goesA
		if goesA {
			areaA += ft.areas[sp]
			na++
		} else {
			areaB += ft.areas[sp]
		}
	}
	tmp := ft.walkTmp[:len(seg)]
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
	if ft.rangeDirty(nd.lo, split) && !ft.incNode(nd.left, seg[:na], relayouts) {
		return false
	}
	if ft.rangeDirty(split, nd.hi) && !ft.incNode(nd.right, seg[na:], relayouts) {
		return false
	}
	ft.combine(ni)
	*relayouts++
	return true
}

// allocNode takes the next recycled tree-node slot.
func (ft *FlexTree) allocNode(parent int) int {
	if ft.nused == len(ft.nodes) {
		ft.nodes = append(ft.nodes, fnode{})
	}
	ni := ft.nused
	ft.nused++
	ft.nodes[ni] = fnode{parent: parent, left: -1, right: -1}
	return ni
}

// rebuild runs the from-scratch algorithm and repopulates every
// retained cache. blocks may alias ft.blocks (the fallback path).
func (ft *FlexTree) rebuild(blocks []Block, spacing float64, aspects []float64, total float64) {
	n := len(blocks)
	ft.spacing = spacing
	if len(aspects) == 0 {
		ft.aspects = ft.aspects[:0]
	} else if len(ft.aspects) != len(aspects) || &ft.aspects[0] != &aspects[0] {
		ft.aspects = append(ft.aspects[:0], aspects...)
	}
	if len(ft.blocks) != n || &ft.blocks[0] != &blocks[0] {
		ft.blocks = append(ft.blocks[:0], blocks...)
	}
	if cap(ft.srcIdx) < n {
		ft.srcIdx = make([]int, n)
		ft.posOf = make([]int, n)
		ft.leafOf = make([]int, n)
		ft.leafPos = make([]int, n)
		ft.areas = make([]float64, n)
		ft.walkOrder = make([]int, n)
		ft.walkTmp = make([]int, n)
		ft.walkToA = make([]bool, n)
	}
	ft.leafPos = ft.leafPos[:n]
	ft.areas = ft.areas[:n]
	// Stable sort by decreasing area — the same permutation
	// PlanFlexible's sort.SliceStable produces.
	src := ft.srcIdx[:n]
	for i := range src {
		src[i] = i
	}
	ft.sorted = append(ft.sorted[:0], ft.blocks...)
	sorted := ft.sorted
	for i := 1; i < n; i++ {
		b, s := sorted[i], src[i]
		j := i - 1
		for j >= 0 && sorted[j].AreaMM2 < b.AreaMM2 {
			sorted[j+1], src[j+1] = sorted[j], src[j]
			j--
		}
		sorted[j+1], src[j+1] = b, s
	}
	posOf := ft.posOf[:n]
	for pos, i := range src {
		posOf[i] = pos
	}
	for pos := range sorted {
		ft.areas[pos] = sorted[pos].AreaMM2
	}

	ft.nused = 0
	order := ft.walkOrder[:n]
	for i := range order {
		order[i] = i
	}
	nextLeaf := 0
	ft.root = ft.build(order, -1, &nextLeaf)
	for sp := range sorted {
		ft.leafPos[sp] = ft.nodes[ft.leafOf[sp]].lo
	}
	ft.built = true
	ft.finish(total)
}

// build constructs the subtree over seg (members as sorted positions in
// pre-partition order, permuted in place) and derives its shape set.
func (ft *FlexTree) build(seg []int, parent int, nextLeaf *int) int {
	ni := ft.allocNode(parent)
	if len(seg) == 1 {
		sp := seg[0]
		lo := *nextLeaf
		*nextLeaf = lo + 1
		nd := &ft.nodes[ni]
		nd.lo, nd.hi = lo, lo+1
		ft.leafOf[sp] = ni
		ft.leafShapes(ni, sp)
		return ni
	}
	na := 0
	var areaA, areaB float64
	toA := ft.walkToA[:len(seg)]
	for i, sp := range seg {
		if areaA <= areaB {
			toA[i] = true
			areaA += ft.sorted[sp].AreaMM2
			na++
		} else {
			toA[i] = false
			areaB += ft.sorted[sp].AreaMM2
		}
	}
	tmp := ft.walkTmp[:len(seg)]
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
	left := ft.build(seg[:na], ni, nextLeaf)
	right := ft.build(seg[na:], ni, nextLeaf)
	nd := &ft.nodes[ni] // re-take: ft.nodes may have grown
	nd.left, nd.right = left, right
	nd.lo, nd.hi = ft.nodes[left].lo, ft.nodes[right].hi
	ft.combine(ni)
	return ni
}

// leafShapes derives a leaf's shape set — the exact realizations (and
// order) of layoutShapes' leaf case.
func (ft *FlexTree) leafShapes(ni, sp int) {
	b := &ft.sorted[sp]
	if b.AspectRatio > 0 {
		w, h := b.dims()
		ft.nodes[ni].shapes = []shape{{w: w, h: h, placements: []Placement{{Name: b.Name, Width: w, Height: h}}}}
		return
	}
	var out []shape
	for _, ar := range ft.aspects {
		h := math.Sqrt(b.AreaMM2 / ar)
		w := ar * h
		out = append(out, shape{w: w, h: h, placements: []Placement{{Name: b.Name, Width: w, Height: h}}})
	}
	ft.nodes[ni].shapes = prune(out)
}

// combine re-derives an internal node's shape set from its children —
// the exact enumeration order of layoutShapes' internal case, so
// prune's tie resolution cannot diverge from the from-scratch plan. The
// pre-prune candidate buffer is tree-owned scratch (prune reads it and
// returns a fresh Pareto slice, so retaining it is safe); only the
// combined shapes' placement slices are allocated per call, as from
// scratch.
func (ft *FlexTree) combine(ni int) {
	nd := &ft.nodes[ni]
	left := ft.nodes[nd.left].shapes
	right := ft.nodes[nd.right].shapes
	out := ft.combBuf[:0]
	for _, l := range left {
		for _, r := range right {
			out = append(out, combineH(l, r, ft.spacing), combineV(l, r, ft.spacing))
		}
	}
	nd.shapes = prune(out)
	ft.combBuf = out[:0]
}

// finish picks the minimal-area root realization and refreshes the
// Result — the from-scratch selection and adjacency scan.
func (ft *FlexTree) finish(total float64) {
	shapes := ft.nodes[ft.root].shapes
	best := shapes[0]
	for _, s := range shapes[1:] {
		if s.w*s.h < best.w*best.h {
			best = s
		}
	}
	ft.res = Result{
		WidthMM:        best.w,
		HeightMM:       best.h,
		Placements:     best.placements,
		ChipletAreaMM2: total,
	}
	ft.adj = appendAdjacencies(ft.adj[:0], best.placements, ft.spacing)
	ft.res.Adjacencies = ft.adj
}
