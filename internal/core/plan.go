package core

import (
	"fmt"

	"ecochip/internal/descarbon"
	"ecochip/internal/mfg"
	"ecochip/internal/tech"
)

// This file is the compile seam of the evaluation: the per-(chiplet,
// node) slice of an evaluation is factored into a DieCell so that batch
// engines can precompute a dense table of cells once and assemble whole
// design points from table lookups. Evaluate itself is built from the
// same cells (evaluateHI and evaluateMonolith below call CellFor and
// MonolithCell), so a compiled sweep and a one-off evaluation share
// every float operation and produce bit-identical results by
// construction. The seam only exposes pure sub-computations; all policy
// (summation order, packaging, operation) stays in one place.

// DieCell bundles every evaluation invariant of one chiplet at one
// technology node: the area the node's scaling model assigns, the
// manufacturing result, the design carbon (total and amortized over the
// chiplet's volume), and the amortized mask-set NRE share (zero unless
// the system enables the NRE extension and the chiplet is not reused).
type DieCell struct {
	Node              *tech.Node
	AreaMM2           float64
	Yield             float64
	MfgKg             float64
	WastageKg         float64
	DesignKgTotal     float64
	DesignKgAmortized float64
	NREKg             float64
}

// CellFor computes the cell of one chiplet retargeted to nodeNm under
// this system's manufacturing/design/NRE configuration. The chiplet does
// not need to be a member of s.Chiplets (disaggregation probes merged
// chiplets that exist only as candidates).
func (s *System) CellFor(db *tech.DB, c Chiplet, nodeNm int) (DieCell, error) {
	node := db.MustGet(nodeNm)
	areaMM2 := node.Area(c.Type, c.Transistors)
	m, err := mfg.Die(node, c.Type, areaMM2, s.Mfg)
	if err != nil {
		return DieCell{}, c.DieError(err)
	}
	var desTotal float64
	if !c.Reused {
		desTotal, err = descarbon.ChipletKg(descarbon.GatesFromTransistors(c.Transistors), node, s.Design)
		if err != nil {
			return DieCell{}, err
		}
	}
	parts := c.ManufacturedParts
	if parts == 0 {
		parts = DefaultVolume
	}
	return s.assembled(node, areaMM2, &m, desTotal, parts, c.Reused)
}

// DieError wraps an error of the chiplet's die manufacturing step the
// way CellFor reports it.
func (c *Chiplet) DieError(err error) error {
	return fmt.Errorf("core: chiplet %q: %w", c.Name, err)
}

// AssembleCell is the per-part arithmetic of a die cell, shared by
// CellFor, MonolithCell and compiled parameter plans: it fills *cell for
// a die of areaMM2 in node from the die's manufacturing result m and its
// unamortized design carbon desTotal. The design carbon and, when the
// system enables the NRE extension, the mask-set carbon amortize over
// parts; a reused die pays neither.
func (s *System) AssembleCell(cell *DieCell, node *tech.Node, areaMM2 float64, m *mfg.Result, desTotal float64, parts int, reused bool) error {
	*cell = DieCell{
		Node:      node,
		AreaMM2:   areaMM2,
		Yield:     m.Yield,
		MfgKg:     m.TotalKg(),
		WastageKg: m.WastageKg,
	}
	if reused {
		return nil
	}
	desAmort, err := descarbon.AmortizedKg(desTotal, parts)
	if err != nil {
		return err
	}
	cell.DesignKgTotal = desTotal
	cell.DesignKgAmortized = desAmort
	if s.IncludeNRE {
		nre, err := mfg.AmortizedNREKg(node, parts, s.nreParams())
		if err != nil {
			return err
		}
		cell.NREKg = nre
	}
	return nil
}

// assembled returns AssembleCell's cell, or its error.
func (s *System) assembled(node *tech.Node, areaMM2 float64, m *mfg.Result, desTotal float64, parts int, reused bool) (DieCell, error) {
	var cell DieCell
	if err := s.AssembleCell(&cell, node, areaMM2, m, desTotal, parts, reused); err != nil {
		return DieCell{}, err
	}
	return cell, nil
}

// MonolithDie returns the merged die of the whole system at node n: its
// area, the block areas summed (each block at its own density), and the
// gate count of its non-reused blocks, which its design carbon covers.
func (s *System) MonolithDie(n *tech.Node) (areaMM2, gates float64) {
	for _, c := range s.Chiplets {
		areaMM2 += n.Area(c.Type, c.Transistors)
		if !c.Reused {
			gates += descarbon.GatesFromTransistors(c.Transistors)
		}
	}
	return areaMM2, gates
}

// MonolithCell computes the merged-die cell of the whole system at
// nodeNm (see MonolithDie): yield applies to the merged area, and design
// carbon covers the non-reused gates and amortizes over the system
// volume.
func (s *System) MonolithCell(db *tech.DB, nodeNm int) (DieCell, error) {
	node := db.MustGet(nodeNm)
	areaMM2, gates := s.MonolithDie(node)
	m, err := mfg.Die(node, tech.Logic, areaMM2, s.Mfg)
	if err != nil {
		return DieCell{}, err
	}
	desTotal, err := descarbon.ChipletKg(gates, node, s.Design)
	if err != nil {
		return DieCell{}, err
	}
	return s.assembled(node, areaMM2, &m, desTotal, s.volume(), false)
}

// CommGates returns the gate count of the inter-die communication
// fabric (routers / PHYs) of a package holding chipletCount endpoints.
func (s *System) CommGates(chipletCount int) (float64, error) {
	routerTr, err := routerTransistors(s.Packaging)
	if err != nil {
		return 0, err
	}
	return descarbon.GatesFromTransistors(routerTr * float64(chipletCount)), nil
}

// CommDesignShareKg returns the per-part design-carbon share of the
// inter-die communication fabric (routers / PHYs) when the fabric's host
// chiplet sits in nodeNm and the package holds chipletCount endpoints.
// The fabric is synthesized once per system design and amortizes over
// the system volume per Eq. (12).
func (s *System) CommDesignShareKg(db *tech.DB, nodeNm, chipletCount int) (float64, error) {
	gates, err := s.CommGates(chipletCount)
	if err != nil {
		return 0, err
	}
	commKg, err := descarbon.ChipletKg(gates, db.MustGet(nodeNm), s.Design)
	if err != nil {
		return 0, err
	}
	return commKg / float64(s.volume()), nil
}

// Volume returns N_S, the system manufacturing volume (DefaultVolume
// when unset) — the amortization base compiled sweep plans need.
func (s *System) Volume() int { return s.volume() }
