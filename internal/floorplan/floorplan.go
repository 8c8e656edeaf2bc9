// Package floorplan implements the whitespace / system-area estimation
// algorithm of Section III-D(3) of the ECO-CHIP paper.
//
// The algorithm performs recursive bi-partitioning to build a slicing
// floorplan of the chiplets on the package substrate or interposer:
//
//  1. Chiplets are sorted in decreasing order of area and assigned one by
//     one to the partition with the lesser total area (area-balanced
//     two-way partition).
//  2. Each partition is recursively bi-partitioned until it holds a single
//     chiplet, forming a full binary tree whose leaves are chiplets.
//  3. The floorplan is derived bottom-up: a leaf is the chiplet's bounding
//     box; an internal node places its two sub-partitions side by side
//     (choosing the orientation that minimizes the bounding-box area),
//     separated by the chiplet-spacing constraint.
//
// Whitespace arises from (i) the spacing between sub-partitions and
// (ii) bounding-box slack when the two sub-partitions have mismatched
// dimensions. The resulting placement also yields the pairwise chiplet
// interfaces (shared-edge overlaps) used to place silicon bridges and NoC
// routers.
package floorplan

import (
	"fmt"
	"math"
)

// DefaultSpacingMM is the default chiplet-to-chiplet spacing constraint
// (Table I: 0.1 - 1 mm).
const DefaultSpacingMM = 0.5

// Block is one chiplet to be placed. Width and Height are optional; when
// zero the block is treated as a square of the given area.
type Block struct {
	Name    string
	AreaMM2 float64
	// AspectRatio is width/height; 0 means square.
	AspectRatio float64
}

func (b Block) dims() (w, h float64) {
	ar := b.AspectRatio
	if ar <= 0 {
		ar = 1
	}
	// w*h = area, w/h = ar  =>  h = sqrt(area/ar), w = ar*h.
	h = math.Sqrt(b.AreaMM2 / ar)
	return ar * h, h
}

// Placement is the placed location of one chiplet in package coordinates
// (mm), with the origin at the lower-left of the package.
type Placement struct {
	Name          string
	X, Y          float64
	Width, Height float64
}

// Adjacency records a pair of placed chiplets whose edges face each other
// across exactly the spacing gap, along with the length of the shared
// (overlapping) edge in mm. Silicon bridges and inter-die routers are
// provisioned per adjacency.
type Adjacency struct {
	A, B      string
	OverlapMM float64
}

// Result is the outcome of floorplanning a set of chiplets.
type Result struct {
	// WidthMM and HeightMM are the package bounding-box dimensions.
	WidthMM, HeightMM float64
	// Placements lists every chiplet's placed rectangle.
	Placements []Placement
	// Adjacencies lists pairs of chiplets with facing edges.
	Adjacencies []Adjacency
	// ChipletAreaMM2 is the sum of chiplet areas.
	ChipletAreaMM2 float64
}

// AreaMM2 returns the package (substrate/interposer) bounding-box area.
func (r *Result) AreaMM2() float64 { return r.WidthMM * r.HeightMM }

// WhitespaceMM2 returns the package area not covered by chiplets.
func (r *Result) WhitespaceMM2() float64 { return r.AreaMM2() - r.ChipletAreaMM2 }

// WhitespaceFraction returns whitespace as a fraction of package area.
func (r *Result) WhitespaceFraction() float64 {
	if r.AreaMM2() == 0 {
		return 0
	}
	return r.WhitespaceMM2() / r.AreaMM2()
}

type node struct {
	block       *Block // leaf
	left, right *node  // internal
}

// Plan floorplans the blocks with the given chiplet spacing (mm). It
// returns an error for an empty block list, non-positive or NaN areas,
// or a spacing outside the Table I range [0.1, 1] mm (0 selects the
// default).
func Plan(blocks []Block, spacingMM float64) (*Result, error) {
	// A fresh scratch per call keeps the returned Result independent;
	// hot loops use Scratch.Plan to amortize the buffers.
	var sc Scratch
	res, err := sc.Plan(blocks, spacingMM)
	if err != nil {
		return nil, err
	}
	out := *res
	return &out, nil
}

func errNoBlocks() error {
	return fmt.Errorf("floorplan: no blocks to place")
}

func errSpacing(spacingMM float64) error {
	return fmt.Errorf("floorplan: spacing %g mm outside Table I range [0.1, 1]", spacingMM)
}

func errBlockArea(b Block) error {
	return fmt.Errorf("floorplan: block %q has non-positive or NaN area %g", b.Name, b.AreaMM2)
}

// buildTree performs the recursive area-balanced bi-partition. blocks must
// already be sorted by decreasing area.
func buildTree(blocks []Block) *node {
	if len(blocks) == 1 {
		b := blocks[0]
		return &node{block: &b}
	}
	var partA, partB []Block
	var areaA, areaB float64
	for _, b := range blocks {
		if areaA <= areaB {
			partA = append(partA, b)
			areaA += b.AreaMM2
		} else {
			partB = append(partB, b)
			areaB += b.AreaMM2
		}
	}
	return &node{left: buildTree(partA), right: buildTree(partB)}
}

// findAdjacencies scans placed rectangles pairwise for facing edges
// separated by at most the spacing gap (with slack for bounding-box
// whitespace up to one spacing unit) and a positive overlap.
func findAdjacencies(ps []Placement, spacing float64) []Adjacency {
	return appendAdjacencies(nil, ps, spacing)
}

func facing(a, b Placement, maxGap float64) (Adjacency, bool) {
	// Horizontal neighbours (a left of b or b left of a).
	gapX := math.Max(b.X-(a.X+a.Width), a.X-(b.X+b.Width))
	overlapY := math.Min(a.Y+a.Height, b.Y+b.Height) - math.Max(a.Y, b.Y)
	if gapX >= -1e-9 && gapX <= maxGap && overlapY > 1e-9 {
		return Adjacency{A: a.Name, B: b.Name, OverlapMM: overlapY}, true
	}
	// Vertical neighbours.
	gapY := math.Max(b.Y-(a.Y+a.Height), a.Y-(b.Y+b.Height))
	overlapX := math.Min(a.X+a.Width, b.X+b.Width) - math.Max(a.X, b.X)
	if gapY >= -1e-9 && gapY <= maxGap && overlapX > 1e-9 {
		return Adjacency{A: a.Name, B: b.Name, OverlapMM: overlapX}, true
	}
	return Adjacency{}, false
}
