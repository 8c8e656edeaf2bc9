package floorplan

import (
	"math"
	"sort"
)

// This file is the allocation-free core of the fixed-shape floorplanner.
// Plan and Scratch.Plan share it: the recursive bi-partition and the
// bottom-up layout are fused into one in-place recursion over a sorted
// block segment, writing placements into a preallocated slice instead of
// appending per subtree. The float arithmetic — partition decisions,
// orientation choice, coordinate shifts — is performed in exactly the
// order of the historical buildTree+layout pair, so results are
// bit-identical; only the storage strategy differs.

// Scratch holds the reusable buffers of repeated floorplanning calls —
// the per-point hot loop of a compiled design-space sweep plans a fresh
// area tuple for every candidate, and the buffers dominate its
// allocation profile. A Scratch is NOT safe for concurrent use; give
// each worker its own.
//
// The Result returned by Scratch.Plan (including its Placements and
// Adjacencies slices) is owned by the Scratch and overwritten by the
// next call.
type Scratch struct {
	sorted []Block
	tmp    []Block
	toA    []bool
	place  []Placement
	adj    []Adjacency
	res    Result
}

// Plan is exactly floorplan.Plan with scratch-backed storage. See the
// Scratch doc comment for the result-ownership caveat.
func (s *Scratch) Plan(blocks []Block, spacingMM float64) (*Result, error) {
	if spacingMM == 0 {
		spacingMM = DefaultSpacingMM
	}
	total, err := validateBlocks(blocks, spacingMM)
	if err != nil {
		return nil, err
	}

	n := len(blocks)
	if cap(s.sorted) < n {
		s.sorted = make([]Block, n)
		s.tmp = make([]Block, n)
		s.toA = make([]bool, n)
		s.place = make([]Placement, n)
	}
	sorted := s.sorted[:n]
	copy(sorted, blocks)
	sortBlocksByArea(sorted)

	place := s.place[:n]
	w, h := s.layoutSeg(sorted, place, spacingMM)

	s.adj = appendAdjacencies(s.adj[:0], place, spacingMM)
	s.res = Result{
		WidthMM:        w,
		HeightMM:       h,
		Placements:     place,
		Adjacencies:    s.adj,
		ChipletAreaMM2: total,
	}
	return &s.res, nil
}

// validateBlocks runs the shared Plan input checks and returns the total
// chiplet area.
func validateBlocks(blocks []Block, spacingMM float64) (float64, error) {
	if len(blocks) == 0 {
		return 0, errNoBlocks()
	}
	if spacingMM < 0.1 || spacingMM > 1 {
		return 0, errSpacing(spacingMM)
	}
	total := 0.0
	for _, b := range blocks {
		if !(b.AreaMM2 > 0) {
			return 0, errBlockArea(b)
		}
		total += b.AreaMM2
	}
	return total, nil
}

// sortBlocksByArea stably sorts blocks by decreasing area with an
// insertion sort: stability makes the permutation identical to the
// historical sort.SliceStable call, and for the handful of chiplets a
// package holds it avoids sort's closure and reflection overhead.
func sortBlocksByArea(blocks []Block) {
	for i := 1; i < len(blocks); i++ {
		b := blocks[i]
		j := i - 1
		for j >= 0 && blocks[j].AreaMM2 < b.AreaMM2 {
			blocks[j+1] = blocks[j]
			j--
		}
		blocks[j+1] = b
	}
}

// layoutSeg fuses the area-balanced bi-partition (buildTree) and the
// bottom-up layout into one recursion over seg, writing the subtree's
// placements into place (same length). seg is permuted in place; the
// partition step is stable, matching the append order of the historical
// recursive build.
func (s *Scratch) layoutSeg(seg []Block, place []Placement, spacing float64) (w, h float64) {
	if len(seg) == 1 {
		w, h = seg[0].dims()
		place[0] = Placement{Name: seg[0].Name, Width: w, Height: h}
		return w, h
	}

	// Stable partition: block k goes to A iff A's running area does not
	// exceed B's at the time of assignment (the buildTree rule).
	na := 0
	var areaA, areaB float64
	toA := s.toA[:len(seg)]
	for i, b := range seg {
		if areaA <= areaB {
			toA[i] = true
			areaA += b.AreaMM2
			na++
		} else {
			toA[i] = false
			areaB += b.AreaMM2
		}
	}
	tmp := s.tmp[:len(seg)]
	copy(tmp, seg)
	ia, ib := 0, na
	for i, b := range tmp {
		if toA[i] {
			seg[ia] = b
			ia++
		} else {
			seg[ib] = b
			ib++
		}
	}

	lw, lh := s.layoutSeg(seg[:na], place[:na], spacing)
	rw, rh := s.layoutSeg(seg[na:], place[na:], spacing)

	// Horizontal composition: children side by side along x.
	hw := lw + spacing + rw
	hh := math.Max(lh, rh)
	// Vertical composition: children stacked along y.
	vw := math.Max(lw, rw)
	vh := lh + spacing + rh

	right := place[na:]
	if hw*hh <= vw*vh {
		for i := range right {
			right[i].X += lw + spacing
		}
		return hw, hh
	}
	for i := range right {
		right[i].Y += lh + spacing
	}
	return vw, vh
}

// appendAdjacencies is findAdjacencies writing into a reusable buffer.
func appendAdjacencies(out []Adjacency, ps []Placement, spacing float64) []Adjacency {
	const eps = 1e-9
	maxGap := spacing + eps
	for i := 0; i < len(ps); i++ {
		for j := i + 1; j < len(ps); j++ {
			if adj, ok := facing(ps[i], ps[j], maxGap); ok {
				out = append(out, adj)
			}
		}
	}
	return sortAdjacencies(out)
}

// sortAdjacencies orders an adjacency list by (A, B) name.
func sortAdjacencies(out []Adjacency) []Adjacency {
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
