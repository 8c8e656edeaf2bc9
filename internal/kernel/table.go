package kernel

import (
	"fmt"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/tech"
)

// Table is the dense per-(chiplet, node) invariant table of a compiled
// node sweep: every sub-result that depends only on which node one
// chiplet sits in — area, manufacturing carbon, design carbon, NRE
// share, die dollar cost — plus the single-row per-node invariants (NRE
// dollar cost, communication design share) and the fixed assembly
// pricer. BuildTable computes each entry through the same core seam
// (CellFor / MonolithCell) that System.Evaluate uses, so a point
// assembled from the table carries the exact float bits of a one-off
// evaluation. A Table is immutable after BuildTable and safe for
// concurrent use.
type Table struct {
	// Base and DB are the compiled system and database.
	Base *core.System
	DB   *tech.DB
	// Nodes is the candidate node list (the column order of every row).
	Nodes []int
	// Monolith selects the single-die evaluation path (single-chiplet or
	// monolithic bases): no packaging, no communication fabric.
	Monolith bool
	// HasOp reports whether the base carries an operating spec.
	HasOp bool

	// Cells and DieUSD are indexed [chiplet][node]; monolith tables hold
	// one row of merged-die cells. NREUSD and CommShare depend only on
	// the node (and, for CommShare, the fixed chiplet count), so they are
	// single rows; CommShare is nil for monolith tables.
	Cells     [][]core.DieCell
	DieUSD    [][]float64
	NREUSD    []float64
	CommShare []float64

	// Names are the chiplet names for packaging descriptors (nil for
	// monolith tables).
	Names []string
	// Asm prices assembly for the fixed (architecture, die count) pair.
	Asm cost.Assembler
}

// BuildTable validates the base system and precomputes the dense
// per-(chiplet, node) table for evaluating it under every candidate
// node. Every node-independent computation and every per-(chiplet, node)
// sub-model call runs exactly once; errors any point of a sweep would
// hit (invalid base description, unsupported candidate node, sub-model
// domain violations, missing cost table entries) surface here.
func BuildTable(base *core.System, db *tech.DB, nodes []int, cp cost.Params) (*Table, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("kernel: no candidate nodes")
	}
	if err := base.Validate(db); err != nil {
		return nil, err
	}
	for _, nm := range nodes {
		if !db.Has(nm) {
			return nil, fmt.Errorf("kernel: candidate node %dnm is not in the technology database", nm)
		}
	}
	nc := len(base.Chiplets)
	t := &Table{
		Base:     base,
		DB:       db,
		Nodes:    append([]int(nil), nodes...),
		Monolith: base.Monolithic || nc == 1,
		HasOp:    base.Operation != nil,
		NREUSD:   make([]float64, len(nodes)),
	}

	vol := base.Volume()
	rows := nc
	archName := base.Packaging.Arch.String()
	if t.Monolith {
		rows = 1
		archName = "monolithic"
	}
	t.Cells = make([][]core.DieCell, rows)
	t.DieUSD = make([][]float64, rows)
	for i := 0; i < rows; i++ {
		t.Cells[i] = make([]core.DieCell, len(nodes))
		t.DieUSD[i] = make([]float64, len(nodes))
		for j, nm := range nodes {
			var cell core.DieCell
			var err error
			if t.Monolith {
				cell, err = base.MonolithCell(db, nm)
			} else {
				cell, err = base.CellFor(db, base.Chiplets[i], nm)
			}
			if err != nil {
				return nil, err
			}
			t.Cells[i][j] = cell
			usd, err := cost.DieUSD(cell.Node, cell.AreaMM2, cp)
			if err != nil {
				return nil, err
			}
			t.DieUSD[i][j] = usd
		}
	}
	for j, nm := range nodes {
		usd, err := cost.NREUSDPerPart(db.MustGet(nm), vol, cp)
		if err != nil {
			return nil, err
		}
		t.NREUSD[j] = usd
	}
	if !t.Monolith {
		t.CommShare = make([]float64, len(nodes))
		for j, nm := range nodes {
			share, err := base.CommDesignShareKg(db, nm, nc)
			if err != nil {
				return nil, err
			}
			t.CommShare[j] = share
		}
		t.Names = make([]string, nc)
		for i, c := range base.Chiplets {
			t.Names[i] = c.Name
		}
	}
	// rows is the die count of every point: nc chiplets, or one merged
	// die for monolith tables — exactly what assembly charges per.
	asm, err := cost.NewAssembler(archName, rows, cp)
	if err != nil {
		return nil, err
	}
	t.Asm = asm
	return t, nil
}
