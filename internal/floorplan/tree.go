package floorplan

import "fmt"

// This file is the retained-mode incremental planner. A Tree caches the
// outcome of one fixed-shape plan — the sorted order, the recursive
// area-balanced partition and every subtree's composed dimensions — so
// that re-planning after a small area change costs a cheap O(n)
// topology guard plus a recompose of the dirty leaf-to-root path
// instead of a full sort + partition + layout. It computes the bounding
// box only: no placements and no adjacencies, which only the silicon-
// bridge model reads (it plans from scratch with Scratch.Plan).
//
// The contract is bit-identity with Scratch.Plan's bounding box on the
// same blocks, by construction: the guard proves the sorted permutation
// and every partition decision are unchanged, so the slicing topology is
// exactly what a fresh plan would rebuild, and each node's dims are
// recomposed by the same float expressions as layoutSeg's, in the same
// order.
//
// Any guard failure falls back to a full rebuild, which is the
// from-scratch algorithm itself, so no input can make the incremental
// path diverge: it can only decline.
//
// When the block SET changes — the Disaggregate candidate shape of "two
// dies removed, one merged die inserted" — the tree rebuilds from
// scratch: for the handful of blocks a package holds, the plain
// sort + partition + compose is cheaper than any bookkeeping that would
// reuse parts of the retained tree.
//
// Updates (the Gray-step shape of every non-bridge, fixed-shape package
// estimate) also consult an exact shape memo. The bounding box is a
// pure function of the spacing and the sorted (area, aspect ratio)
// sequence — block names and caller order only decide which block sits
// where — so the tree repairs its sorted order in O(n) after the area
// change and looks the sequence up, keyed by its Float64bits. A hit
// serves the W/H the from-scratch algorithm produced for the same
// sequence earlier, bit-identical by construction. It does not touch
// the retained slicing nodes, which are then stale: the next miss
// rebuilds them from the (current) sorted order, and PlanDims, which
// reads them, rebuilds first.

// TreeStats counts the work a retained tree performed across PlanDims
// and Update calls. The counters separate plans where reuse was
// impossible by contract (Rebuilds: the first plan, spacing changes)
// from plans that rebuilt although retained state existed (Fallbacks:
// the guard declined; DiffFallbacks: the block set changed), so
// reuse-rate reporting is not deflated by plans the tree never had a
// chance to serve incrementally.
type TreeStats struct {
	// Rebuilds counts deliberate full from-scratch builds: the first
	// plan and any plan whose spacing changed, where no retained state
	// could apply by contract.
	Rebuilds uint64
	// FastPath counts same-shape plans served by an incremental relayout
	// of the dirty paths with the retained topology.
	FastPath uint64
	// MemoHits counts Updates served from the exact shape memo: the
	// sorted (area, aspect ratio) sequence was planned before, so the
	// stored bounding box is returned and no slicing node is touched. A
	// memo hit is neither FastPath nor Unchanged.
	MemoHits uint64
	// Fallbacks counts same-shape plans that rebuilt the slicing tree
	// from scratch: the incremental attempt hit a sort-order or
	// partition flip, or (Updates) a memo miss found the tree stale
	// after earlier memo hits.
	Fallbacks uint64
	// DiffFallbacks counts PlanDims calls whose block set changed
	// (blocks removed, inserted or renamed); each rebuilds from scratch.
	DiffFallbacks uint64
	// Unchanged counts plans served entirely from the retained result
	// (no area differed).
	Unchanged uint64
	// RelayoutNodeSum is the total number of tree nodes recomposed by
	// fast-path plans; RelayoutNodeSum / FastPath is the mean relayout
	// depth.
	RelayoutNodeSum uint64
}

// MeanRelayoutDepth is the mean number of recomposed tree nodes per
// fast-path plan.
func (s TreeStats) MeanRelayoutDepth() float64 {
	if s.FastPath == 0 {
		return 0
	}
	return float64(s.RelayoutNodeSum) / float64(s.FastPath)
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
	s.RelayoutNodeSum += o.RelayoutNodeSum
}

// Plans returns the total number of PlanDims/Update calls the counters
// cover.
func (s TreeStats) Plans() uint64 {
	return s.FastPath + s.MemoHits + s.Unchanged + s.Fallbacks + s.DiffFallbacks + s.Rebuilds
}

// ReuseRate returns the fraction of reuse-eligible plans (every plan
// except the deliberate Rebuilds, which could never reuse retained
// state) that were served incrementally. This is the accurate hit rate:
// counting first builds and spacing changes in the denominator
// would conflate "the guard declined" with "reuse was never possible".
func (s TreeStats) ReuseRate() float64 {
	served := s.FastPath + s.MemoHits + s.Unchanged
	eligible := served + s.Fallbacks + s.DiffFallbacks
	if eligible == 0 {
		return 0
	}
	return float64(served) / float64(eligible)
}

// String renders the one-line summary CLIs print under -progress (the
// single source of the format, so surfaces cannot drift).
func (s TreeStats) String() string {
	return fmt.Sprintf("incremental floorplan: %d fast-path / %d memo / %d unchanged / %d+%d fallbacks / %d rebuilds (%.1f%% reuse), mean relayout depth %.1f",
		s.FastPath, s.MemoHits, s.Unchanged, s.Fallbacks, s.DiffFallbacks, s.Rebuilds,
		100*s.ReuseRate(), s.MeanRelayoutDepth())
}

// Delta returns the counter increments since prev, an earlier snapshot
// of the same tree — how pooled scratches fold per-run work into an
// aggregate without double counting their history.
func (s TreeStats) Delta(prev TreeStats) TreeStats {
	return TreeStats{
		Rebuilds:        s.Rebuilds - prev.Rebuilds,
		FastPath:        s.FastPath - prev.FastPath,
		MemoHits:        s.MemoHits - prev.MemoHits,
		Fallbacks:       s.Fallbacks - prev.Fallbacks,
		DiffFallbacks:   s.DiffFallbacks - prev.DiffFallbacks,
		Unchanged:       s.Unchanged - prev.Unchanged,
		RelayoutNodeSum: s.RelayoutNodeSum - prev.RelayoutNodeSum,
	}
}

// tnode is one slicing-tree node. Leaves hold a single block; internal
// nodes compose their two children either side by side or stacked,
// separated by the spacing constraint, whichever box is smaller.
type tnode struct {
	left, right int // child node indices, -1 for leaves
	lo, hi      int // leaf-order segment [lo, hi) of the subtree
	w, h        float64
}

// Tree is a retained-mode incremental floorplanner of bounding boxes.
// The zero value is ready to use: the first PlanDims call builds the
// retained state, and subsequent PlanDims or Update calls reuse every
// part of it the new areas leave valid. A Tree is NOT safe for
// concurrent use, and the Result it returns is owned by the Tree and
// overwritten by the next call.
type Tree struct {
	spacing float64
	built   bool

	blocks []Block // caller order, current areas
	sorted []Block // sorted (pre-partition) order
	srcIdx []int   // sorted position -> caller index
	posOf  []int   // caller index -> sorted position

	// nodes[:nused] is the slicing tree; slots are recycled across
	// rebuilds.
	nodes   []tnode
	nused   int
	root    int
	leafOf  []int     // sorted position -> leaf node index
	leafPos []int     // sorted position -> leaf-order position
	areas   []float64 // current areas in sorted order (flat guard-loop copy)
	path    []int     // dirty root-to-leaf path of the last update
	changed []int     // sorted positions whose area changed this round

	// Scratch buffers of the partition walks (build and guard share
	// them; both consume a buffer fully before recursing or descending,
	// the layoutSeg discipline).
	walkOrder []int // members as sorted positions, partitioned in place
	walkTmp   []int
	walkToA   []bool

	// Shape memo. stale reports that memo hits left the slicing nodes
	// and the leaf maps (leafOf, leafPos) behind the sorted permutation
	// and areas, which are always current.
	memo  shapeMemo
	stale bool

	res   Result
	stats TreeStats
}

// Stats snapshots the tree's work counters.
func (t *Tree) Stats() TreeStats { return t.stats }

// PlanDims floorplans the blocks, reusing the retained tree when only
// block areas changed since the previous call (the dirty-path relayout)
// and rebuilding it from scratch when blocks were removed, inserted or
// renamed. The returned Result carries only the bounding box (WidthMM,
// HeightMM) and ChipletAreaMM2 — nil Placements, nil Adjacencies —
// bit-identical to Scratch.Plan's on every input. Packaging models that
// consume only the package area (every architecture except silicon
// bridges) run on it.
func (t *Tree) PlanDims(blocks []Block, spacingMM float64) (*Result, error) {
	if spacingMM == 0 {
		spacingMM = DefaultSpacingMM
	}
	total, err := validateBlocks(blocks, spacingMM)
	if err != nil {
		return nil, err
	}
	if !t.built || t.spacing != spacingMM {
		t.stats.Rebuilds++
		t.rebuild(blocks, spacingMM, total)
		return &t.res, nil
	}
	if !t.sameShape(blocks) {
		// The block set itself changed (removed, inserted or renamed
		// blocks): rebuild with the from-scratch algorithm.
		t.stats.DiffFallbacks++
		t.rebuild(blocks, spacingMM, total)
		return &t.res, nil
	}
	if t.stale {
		// Memo hits left the slicing nodes behind the sorted order:
		// rebuild them (the box carries the bits the memo served).
		t.buildNodes(t.res.ChipletAreaMM2)
	}
	t.changed = t.changed[:0]
	for i, b := range blocks {
		if t.blocks[i].AreaMM2 != b.AreaMM2 {
			t.blocks[i].AreaMM2 = b.AreaMM2
			sp := t.posOf[i]
			t.sorted[sp].AreaMM2 = b.AreaMM2
			t.areas[sp] = b.AreaMM2
			t.changed = append(t.changed, sp)
		}
	}
	if len(t.changed) == 0 {
		t.stats.Unchanged++
		return &t.res, nil
	}
	if t.update(total) {
		return &t.res, nil
	}
	t.stats.Fallbacks++
	t.resort(len(t.blocks))
	t.buildNodes(total)
	return &t.res, nil
}

// Update re-plans after a single block's area change — the Gray-step
// shape of a compiled sweep walk. blockIdx indexes the caller-order
// block list of the last PlanDims call. It repairs the sorted order and
// consults the exact shape memo (see the file comment); on a miss it
// verifies the retained topology still holds (rebuilding the nodes from
// the repaired order when the new area moved the block or flips a
// partition decision) and otherwise recomposes only the dirty
// leaf-to-root path.
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
		t.stats.Unchanged++
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
	sp, moved := t.repairOrder(sp)
	h := t.shapeHash()
	if w, hgt, hit := t.memoLookup(h); hit {
		t.stale = true
		t.res.WidthMM, t.res.HeightMM, t.res.ChipletAreaMM2 = w, hgt, total
		t.stats.MemoHits++
		return &t.res, nil
	}
	// A moved block invalidates the leaf maps, and memo hits leave the
	// whole tree stale: both rebuild the nodes from the repaired order.
	if t.stale || moved || !t.updateOne(sp, total) {
		t.stats.Fallbacks++
		t.buildNodes(total)
	}
	t.memoStore(h, t.res.WidthMM, t.res.HeightMM)
	return &t.res, nil
}

// repairOrder moves the block at sorted position sp, whose area just
// changed, to its stable-sort position by adjacent swaps — area
// descending, ties by ascending caller index, the order resort derives —
// and returns the new position and whether it moved. Every other block
// is already in order, so this is resort's permutation in O(n).
func (t *Tree) repairOrder(sp int) (int, bool) {
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
	return sp, sp != start
}

// swapSorted exchanges sorted positions i and j, keeping the sorted
// blocks, their areas, srcIdx and posOf in step. The leaf maps are left
// behind: a moved block means the slicing nodes must be rebuilt.
func (t *Tree) swapSorted(i, j int) {
	t.sorted[i], t.sorted[j] = t.sorted[j], t.sorted[i]
	t.areas[i], t.areas[j] = t.areas[j], t.areas[i]
	t.srcIdx[i], t.srcIdx[j] = t.srcIdx[j], t.srcIdx[i]
	t.posOf[t.srcIdx[i]] = i
	t.posOf[t.srcIdx[j]] = j
}

// sameShape reports whether blocks matches the retained set in
// everything but areas.
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

// sortedOrderOK reports whether the retained permutation is still what
// the stable sort by decreasing area would produce: ties must order by
// ascending caller index.
func (t *Tree) sortedOrderOK() bool {
	for k := 0; k < len(t.sorted)-1; k++ {
		a, b := t.areas[k], t.areas[k+1]
		if a < b || (a == b && t.srcIdx[k] > t.srcIdx[k+1]) {
			return false
		}
	}
	return true
}

// updateOne is the single-changed-block incremental re-plan of the
// block at sorted position sp, whose sorted order repairOrder left
// unchanged: one partition-guard descent along the dirty root-to-leaf
// path and a bottom-up recompose of that path. Returns false on any
// partition flip.
func (t *Tree) updateOne(sp int, total float64) bool {
	n := len(t.sorted)
	members := t.walkOrder[:n]
	for i := range members {
		members[i] = i
	}
	dirtyLeaf := t.leafOf[sp]
	dirtyPos := t.leafPos[sp]
	t.path = t.path[:0]
	ni := t.root
	for t.nodes[ni].left >= 0 {
		nd := &t.nodes[ni]
		split := t.nodes[nd.left].hi
		inLeft := dirtyPos < split
		var areaA, areaB float64
		keep := t.walkTmp[:0]
		for _, m := range members {
			goesA := areaA <= areaB
			mLeft := t.leafPos[m] < split
			if goesA != mLeft {
				return false
			}
			if goesA {
				areaA += t.areas[m]
			} else {
				areaB += t.areas[m]
			}
			if mLeft == inLeft {
				keep = append(keep, m)
			}
		}
		t.walkTmp, t.walkOrder = t.walkOrder, t.walkTmp
		members = keep
		t.path = append(t.path, ni)
		if inLeft {
			ni = nd.left
		} else {
			ni = nd.right
		}
	}
	// The guard passed: refresh the leaf dims and recompose the path
	// bottom-up.
	b := &t.sorted[sp]
	w, h := b.dims()
	leaf := &t.nodes[dirtyLeaf]
	leaf.w, leaf.h = w, h
	for i := len(t.path) - 1; i >= 0; i-- {
		t.compose(t.path[i])
	}
	t.stats.FastPath++
	t.stats.RelayoutNodeSum += uint64(len(t.path))
	t.finishResult(total)
	return true
}

// update is the general multi-change incremental re-plan of PlanDims:
// a full sorted-order check and a recursive guard walk over the union of
// dirty paths.
func (t *Tree) update(total float64) bool {
	if !t.sortedOrderOK() {
		return false
	}
	order := t.walkOrder[:len(t.sorted)]
	for i := range order {
		order[i] = i
	}
	relayouts := 0
	if !t.incrementalNode(t.root, order, &relayouts) {
		return false
	}
	t.stats.FastPath++
	t.stats.RelayoutNodeSum += uint64(relayouts)
	t.finishResult(total)
	return true
}

// incrementalNode verifies node ni's cached partition over seg — the
// subtree's members as sorted positions in ascending order, which IS
// the pre-partition order (every partition is stable, so each node
// receives its members in the globally sorted order) — recurses into
// dirty children, and recomposes the node. It returns false on any
// partition flip.
func (t *Tree) incrementalNode(ni int, seg []int, relayouts *int) bool {
	nd := &t.nodes[ni]
	if nd.left < 0 {
		b := &t.sorted[seg[0]]
		nd.w, nd.h = b.dims()
		return true
	}
	split := t.nodes[nd.left].hi
	na := 0
	var areaA, areaB float64
	toA := t.walkToA[:len(seg)]
	for i, sp := range seg {
		goesA := areaA <= areaB
		if goesA != (t.leafPos[sp] < split) {
			return false
		}
		toA[i] = goesA
		if goesA {
			areaA += t.areas[sp]
			na++
		} else {
			areaB += t.areas[sp]
		}
	}
	// Stable in-place partition of seg (the layoutSeg trick), so the
	// children see their members in ascending sorted order too.
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
	if t.rangeDirty(nd.lo, split) && !t.incrementalNode(nd.left, seg[:na], relayouts) {
		return false
	}
	if t.rangeDirty(split, nd.hi) && !t.incrementalNode(nd.right, seg[na:], relayouts) {
		return false
	}
	t.compose(ni)
	*relayouts++
	return true
}

// rangeDirty reports whether any changed block's leaf-order position
// falls in [lo, hi).
func (t *Tree) rangeDirty(lo, hi int) bool {
	for _, sp := range t.changed {
		if p := t.leafPos[sp]; p >= lo && p < hi {
			return true
		}
	}
	return false
}

// compose recomputes an internal node's dimensions from its children —
// the exact float expressions of layoutSeg's composition step, in the
// same order.
func (t *Tree) compose(ni int) {
	nd := &t.nodes[ni]
	l, r := &t.nodes[nd.left], &t.nodes[nd.right]
	lw, lh := l.w, l.h
	rw, rh := r.w, r.h
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
		nd.w, nd.h = hw, hh
	} else {
		nd.w, nd.h = vw, vh
	}
}

// allocNode takes the next recycled tree-node slot.
func (t *Tree) allocNode() int {
	if t.nused == len(t.nodes) {
		t.nodes = append(t.nodes, tnode{})
	}
	ni := t.nused
	t.nused++
	t.nodes[ni] = tnode{left: -1, right: -1}
	return ni
}

// rebuild runs the from-scratch algorithm on a new block set or
// spacing: it repopulates every retained cache and resets the shape
// memo.
func (t *Tree) rebuild(blocks []Block, spacing, total float64) {
	n := len(blocks)
	t.spacing = spacing
	t.blocks = append(t.blocks[:0], blocks...)
	t.sizeBuffers(n)
	t.resort(n)
	t.buildNodes(total)
	t.resetMemo()
}

// buildNodes rebuilds the slicing tree and the leaf maps from the
// current sorted order — the from-scratch partition and composition —
// and refreshes the Result.
func (t *Tree) buildNodes(total float64) {
	n := len(t.sorted)
	t.nused = 0
	order := t.walkOrder[:n]
	for i := range order {
		order[i] = i
	}
	nextLeaf := 0
	t.root = t.build(order, &nextLeaf)
	t.built = true
	t.stale = false
	t.finishResult(total)
}

// sizeBuffers grows the retained per-block buffers to n and re-slices
// the length-dependent ones.
func (t *Tree) sizeBuffers(n int) {
	if cap(t.srcIdx) < n {
		t.srcIdx = make([]int, n)
		t.posOf = make([]int, n)
		t.leafOf = make([]int, n)
		t.leafPos = make([]int, n)
		t.areas = make([]float64, n)
		t.walkOrder = make([]int, n)
		t.walkTmp = make([]int, n)
		t.walkToA = make([]bool, n)
	}
	// A slicing tree over n leaves holds exactly 2n-1 nodes; presizing
	// spares allocNode the append-doubling churn.
	if cap(t.nodes) < 2*n-1 {
		t.nodes = append(make([]tnode, 0, 2*n-1), t.nodes...)
	}
	t.leafPos = t.leafPos[:n]
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

// build constructs the subtree over seg (members as sorted positions in
// pre-partition order; permuted in place exactly like layoutSeg) and
// returns its node index. Leaf-order positions are assigned in DFS
// order, matching the in-place permutation of the fused layout.
func (t *Tree) build(seg []int, nextLeaf *int) int {
	ni := t.allocNode()
	if len(seg) == 1 {
		sp := seg[0]
		lo := *nextLeaf
		*nextLeaf = lo + 1
		b := &t.sorted[sp]
		w, h := b.dims()
		nd := &t.nodes[ni]
		nd.lo, nd.hi = lo, lo+1
		nd.w, nd.h = w, h
		t.leafOf[sp], t.leafPos[sp] = ni, lo
		return ni
	}
	na := 0
	var areaA, areaB float64
	toA := t.walkToA[:len(seg)]
	for i, sp := range seg {
		if areaA <= areaB {
			toA[i] = true
			areaA += t.sorted[sp].AreaMM2
			na++
		} else {
			toA[i] = false
			areaB += t.sorted[sp].AreaMM2
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
	left := t.build(seg[:na], nextLeaf)
	right := t.build(seg[na:], nextLeaf)
	nd := &t.nodes[ni] // re-take: t.nodes may have grown
	nd.left, nd.right = left, right
	nd.lo, nd.hi = t.nodes[left].lo, t.nodes[right].hi
	t.compose(ni)
	return ni
}

// finishResult refreshes the Result from the root's composed box.
func (t *Tree) finishResult(total float64) {
	root := &t.nodes[t.root]
	t.res.WidthMM = root.w
	t.res.HeightMM = root.h
	t.res.ChipletAreaMM2 = total
}
