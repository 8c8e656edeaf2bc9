package floorplan

import (
	"fmt"
	"math"
	"sort"
)

// This file adds classic slicing-floorplan shape curves: when chiplet
// aspect ratios are flexible (soft macros before die-size freeze), each
// subtree carries a Pareto set of candidate (width, height) realizations
// and the parent picks combinations that minimize its own bounding box.
// PlanFlexible is strictly better (never worse) than Plan's fixed-shape
// layout in package area, at the cost of more work per node. It is an
// opt-in capability; the paper's experiments use the fixed-shape Plan.

// DefaultAspects are the candidate width/height ratios a flexible block
// may take.
var DefaultAspects = []float64{0.5, 2.0 / 3.0, 1, 1.5, 2}

// maxShapesPerNode caps the Pareto set carried per subtree to bound the
// combination growth.
const maxShapesPerNode = 10

type shape struct {
	w, h       float64
	placements []Placement
}

// PlanFlexible floorplans the blocks allowing each block without an
// explicit AspectRatio to take any of the candidate aspects. Blocks with
// AspectRatio > 0 keep it fixed. aspects nil selects DefaultAspects.
func PlanFlexible(blocks []Block, spacingMM float64, aspects []float64) (*Result, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("floorplan: no blocks to place")
	}
	if spacingMM == 0 {
		spacingMM = DefaultSpacingMM
	}
	if spacingMM < 0.1 || spacingMM > 1 {
		return nil, fmt.Errorf("floorplan: spacing %g mm outside Table I range [0.1, 1]", spacingMM)
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

	sorted := make([]Block, len(blocks))
	copy(sorted, blocks)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].AreaMM2 > sorted[j].AreaMM2 })
	root := buildTree(sorted)

	shapes := layoutShapes(root, spacingMM, aspects)
	best := shapes[0]
	for _, s := range shapes[1:] {
		if s.w*s.h < best.w*best.h {
			best = s
		}
	}
	res := &Result{
		WidthMM:        best.w,
		HeightMM:       best.h,
		Placements:     best.placements,
		ChipletAreaMM2: total,
	}
	res.Adjacencies = findAdjacencies(best.placements, spacingMM)
	return res, nil
}

func layoutShapes(n *node, spacing float64, aspects []float64) []shape {
	if n.block != nil {
		b := n.block
		if b.AspectRatio > 0 {
			w, h := b.dims()
			return []shape{{w: w, h: h, placements: []Placement{{Name: b.Name, Width: w, Height: h}}}}
		}
		var out []shape
		for _, ar := range aspects {
			h := math.Sqrt(b.AreaMM2 / ar)
			w := ar * h
			out = append(out, shape{w: w, h: h, placements: []Placement{{Name: b.Name, Width: w, Height: h}}})
		}
		return prune(out)
	}
	left := layoutShapes(n.left, spacing, aspects)
	right := layoutShapes(n.right, spacing, aspects)
	var out []shape
	for _, l := range left {
		for _, r := range right {
			out = append(out, combineH(l, r, spacing), combineV(l, r, spacing))
		}
	}
	return prune(out)
}

func combineH(l, r shape, spacing float64) shape {
	out := shape{w: l.w + spacing + r.w, h: math.Max(l.h, r.h)}
	out.placements = append(out.placements, l.placements...)
	for _, p := range r.placements {
		p.X += l.w + spacing
		out.placements = append(out.placements, p)
	}
	return out
}

func combineV(l, r shape, spacing float64) shape {
	out := shape{w: math.Max(l.w, r.w), h: l.h + spacing + r.h}
	out.placements = append(out.placements, l.placements...)
	for _, p := range r.placements {
		p.Y += l.h + spacing
		out.placements = append(out.placements, p)
	}
	return out
}

// prune keeps the Pareto-minimal (w, h) shapes (no other shape is
// narrower and shorter), capped at maxShapesPerNode by area.
func prune(shapes []shape) []shape {
	sort.Slice(shapes, func(i, j int) bool {
		if shapes[i].w != shapes[j].w {
			return shapes[i].w < shapes[j].w
		}
		return shapes[i].h < shapes[j].h
	})
	var out []shape
	bestH := math.Inf(1)
	for _, s := range shapes {
		if s.h < bestH-1e-12 {
			out = append(out, s)
			bestH = s.h
		}
	}
	if len(out) > maxShapesPerNode {
		sort.Slice(out, func(i, j int) bool { return out[i].w*out[i].h < out[j].w*out[j].h })
		out = out[:maxShapesPerNode]
		sort.Slice(out, func(i, j int) bool { return out[i].w < out[j].w })
	}
	return out
}
