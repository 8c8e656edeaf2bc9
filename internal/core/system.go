// Package core is the ECO-CHIP orchestrator: it composes the technology
// database, yield/wafer geometry, manufacturing, design, packaging and
// operational models into the paper's total-carbon estimate
// (Section III-B):
//
//	C_tot = C_emb + lifetime * C_op          (Eq. 1)
//	C_emb = C_mfg + C_des + C_HI             (Eq. 2)
//
// A System describes a monolithic SoC or a heterogeneous (chiplet-based)
// package; Evaluate produces a Report with the full per-chiplet and
// per-source carbon breakdown plus comparisons against the ACT baseline
// and the dollar-cost model.
package core

import (
	"fmt"

	"ecochip/internal/descarbon"
	"ecochip/internal/mfg"
	"ecochip/internal/noc"
	"ecochip/internal/opcarbon"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/tech"
)

// DefaultVolume is the manufacturing volume the paper's amortization
// experiments assume (N_Mi = N_S = 100,000).
const DefaultVolume = 100_000

// Chiplet is one block of a system. The canonical size description is the
// transistor count, so the block can be re-targeted to any node during
// design-space exploration; use BlockFromArea to derive the count from a
// die-area measurement at a reference node.
type Chiplet struct {
	// Name identifies the chiplet in reports.
	Name string
	// Type selects the area-scaling class (logic / memory / analog).
	Type tech.DesignType
	// Transistors is the block's transistor budget.
	Transistors float64
	// NodeNm is the process node this chiplet is implemented in.
	NodeNm int
	// ManufacturedParts is N_Mi, the volume over which this chiplet's
	// design carbon is amortized. Zero selects DefaultVolume.
	ManufacturedParts int
	// Reused marks a pre-designed, silicon-proven chiplet whose design
	// carbon has already been paid by earlier products (the "reuse"
	// lever): its C_des contribution is zero.
	Reused bool
}

// BlockFromArea builds a Chiplet from a measured die area at a reference
// node (the form teardown data arrives in).
func BlockFromArea(name string, t tech.DesignType, areaMM2 float64, refNode *tech.Node, targetNm int) Chiplet {
	return Chiplet{
		Name:        name,
		Type:        t,
		Transistors: refNode.Transistors(t, areaMM2),
		NodeNm:      targetNm,
	}
}

// System describes one design point: a set of chiplets, the packaging
// architecture joining them, and the fab/design/operation context.
type System struct {
	// Name identifies the system in reports.
	Name string
	// Chiplets are the blocks. A Monolithic system merges them into a
	// single die.
	Chiplets []Chiplet
	// Monolithic, when true, manufactures all blocks on one die in each
	// block's own node (all must match) with no packaging overheads.
	Monolithic bool
	// Packaging configures C_HI; ignored for monolithic or
	// single-chiplet systems.
	Packaging pkgcarbon.Params
	// Mfg configures the fab context.
	Mfg mfg.Params
	// Design configures the design-carbon model.
	Design descarbon.Params
	// SystemVolume is N_S. Zero selects DefaultVolume.
	SystemVolume int
	// Operation is the operating specification; nil skips operational
	// carbon (embodied-only studies such as Fig. 2).
	Operation *opcarbon.Spec
	// IncludeNRE enables the mask-set NRE carbon extension the paper
	// leaves as future work (Section V-C): each chiplet design pays a
	// one-time mask-set carbon amortized over its manufacturing volume.
	IncludeNRE bool
	// NRE configures the mask-set model; the zero value selects
	// mfg.DefaultNREParams when IncludeNRE is set.
	NRE mfg.NREParams
}

// ChipletReport is the per-chiplet carbon breakdown.
type ChipletReport struct {
	Name              string
	Type              tech.DesignType
	NodeNm            int
	AreaMM2           float64
	Yield             float64
	MfgKg             float64
	WastageKg         float64
	DesignKgTotal     float64
	DesignKgAmortized float64
}

// Report is the full evaluation result of a system.
type Report struct {
	System string

	// Chiplets holds per-die breakdowns (one entry for a monolith).
	Chiplets []ChipletReport

	// MfgKg is C_mfg: summed manufacturing carbon of all dies.
	MfgKg float64
	// DesignKg is C_des: amortized design carbon per part (Eq. 12).
	DesignKg float64
	// HIKg is C_HI: packaging + inter-die communication carbon.
	HIKg float64
	// NREKg is the amortized mask-set carbon (zero unless the system
	// enables the NRE extension).
	NREKg float64
	// OperationalKg is lifetime * C_op (zero without an operating spec).
	OperationalKg float64

	// Packaging is the detailed C_HI result (nil for monoliths).
	Packaging *pkgcarbon.Result
	// RouterPowerW is the inter-die communication power overhead that
	// was added to the operational model.
	RouterPowerW float64
}

// EmbodiedKg returns C_emb per Eq. (2), plus the optional NRE term.
func (r *Report) EmbodiedKg() float64 { return r.MfgKg + r.DesignKg + r.HIKg + r.NREKg }

// TotalKg returns C_tot per Eq. (1).
func (r *Report) TotalKg() float64 { return r.EmbodiedKg() + r.OperationalKg }

// Validate checks the system description against the model's domains.
func (s *System) Validate(db *tech.DB) error { return s.ValidateGroups(db, CheckAll) }

// Checks selects groups of Validate's checks.
type Checks uint8

const (
	// CheckChiplets covers the chiplet descriptors (names, design types,
	// transistor budgets, node membership in the database, volumes), the
	// monolithic node mix and the system volume.
	CheckChiplets Checks = 1 << iota
	// CheckMfg covers Mfg.
	CheckMfg
	// CheckDesign covers Design.
	CheckDesign
	// CheckPackaging covers Packaging, which only multi-chiplet packages
	// read.
	CheckPackaging
	// CheckOperation covers Operation, when set.
	CheckOperation
	// CheckAll is every group: Validate.
	CheckAll = CheckChiplets | CheckMfg | CheckDesign | CheckPackaging | CheckOperation
)

// ValidateGroups runs the groups of Validate that c selects, in
// Validate's order, so that when every other group is known valid it
// returns exactly Validate's error. Compiled parameter plans use it to
// re-check only the groups a perturbation touched.
func (s *System) ValidateGroups(db *tech.DB, c Checks) error {
	if c&CheckChiplets != 0 {
		if err := s.validateChiplets(db); err != nil {
			return err
		}
	}
	if c&CheckMfg != 0 {
		if err := s.Mfg.Validate(); err != nil {
			return err
		}
	}
	if c&CheckDesign != 0 {
		if err := s.Design.Validate(); err != nil {
			return err
		}
	}
	if c&CheckPackaging != 0 && !s.Monolithic && len(s.Chiplets) > 1 {
		if err := s.Packaging.Validate(); err != nil {
			return err
		}
	}
	if c&CheckOperation != 0 && s.Operation != nil {
		if err := s.Operation.Validate(); err != nil {
			return err
		}
	}
	return nil
}

func (s *System) validateChiplets(db *tech.DB) error {
	if len(s.Chiplets) == 0 {
		return fmt.Errorf("core: system %q has no chiplets", s.Name)
	}
	for i, c := range s.Chiplets {
		if c.Name == "" {
			return fmt.Errorf("core: system %q chiplet %d has no name", s.Name, i)
		}
		if c.Type < tech.Logic || c.Type > tech.Analog {
			return fmt.Errorf("core: chiplet %q has unknown design type %s", c.Name, c.Type)
		}
		if c.Transistors <= 0 {
			return fmt.Errorf("core: chiplet %q has non-positive transistor count", c.Name)
		}
		if !db.Has(c.NodeNm) {
			return fmt.Errorf("core: chiplet %q uses unsupported node %dnm", c.Name, c.NodeNm)
		}
		if c.ManufacturedParts < 0 {
			return fmt.Errorf("core: chiplet %q has negative volume", c.Name)
		}
	}
	if s.Monolithic {
		for _, c := range s.Chiplets[1:] {
			if c.NodeNm != s.Chiplets[0].NodeNm {
				return fmt.Errorf("core: monolithic system %q mixes nodes %d and %d",
					s.Name, s.Chiplets[0].NodeNm, c.NodeNm)
			}
		}
	}
	if s.SystemVolume < 0 {
		return fmt.Errorf("core: system %q has negative volume", s.Name)
	}
	return nil
}

// Evaluate runs the full ECO-CHIP carbon analysis of the system.
func (s *System) Evaluate(db *tech.DB) (*Report, error) {
	if err := s.Validate(db); err != nil {
		return nil, err
	}
	if s.Monolithic || len(s.Chiplets) == 1 {
		return s.evaluateMonolith(db)
	}
	return s.evaluateHI(db)
}

// evaluateMonolith merges all blocks onto one die: block areas are summed
// (each block at its own density), yield applies to the merged area, and
// there is no packaging term.
func (s *System) evaluateMonolith(db *tech.DB) (*Report, error) {
	cell, err := s.MonolithCell(db, s.Chiplets[0].NodeNm)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		System: s.Name,
		Chiplets: []ChipletReport{{
			Name:              s.Name + "-monolith",
			Type:              tech.Logic,
			NodeNm:            cell.Node.Nm,
			AreaMM2:           cell.AreaMM2,
			Yield:             cell.Yield,
			MfgKg:             cell.MfgKg,
			WastageKg:         cell.WastageKg,
			DesignKgTotal:     cell.DesignKgTotal,
			DesignKgAmortized: cell.DesignKgAmortized,
		}},
		MfgKg:    cell.MfgKg,
		DesignKg: cell.DesignKgAmortized,
		NREKg:    cell.NREKg,
	}
	return s.finish(rep)
}

func (s *System) nreParams() mfg.NREParams {
	if s.NRE == (mfg.NREParams{}) {
		return mfg.DefaultNREParams()
	}
	return s.NRE
}

// evaluateHI evaluates a multi-chiplet package: per-chiplet manufacturing
// and design carbon plus the packaging/communication overheads. The
// per-chiplet work is one DieCell each (the unit compiled sweep plans
// tabulate); this function owns only the accumulation order and the
// whole-package terms.
func (s *System) evaluateHI(db *tech.DB) (*Report, error) {
	rep := &Report{System: s.Name, Chiplets: make([]ChipletReport, 0, len(s.Chiplets))}

	pkgChiplets := make([]pkgcarbon.Chiplet, len(s.Chiplets))
	for i, c := range s.Chiplets {
		cell, err := s.CellFor(db, c, c.NodeNm)
		if err != nil {
			return nil, err
		}
		rep.Chiplets = append(rep.Chiplets, ChipletReport{
			Name:              c.Name,
			Type:              c.Type,
			NodeNm:            cell.Node.Nm,
			AreaMM2:           cell.AreaMM2,
			Yield:             cell.Yield,
			MfgKg:             cell.MfgKg,
			WastageKg:         cell.WastageKg,
			DesignKgTotal:     cell.DesignKgTotal,
			DesignKgAmortized: cell.DesignKgAmortized,
		})
		rep.MfgKg += cell.MfgKg
		rep.DesignKg += cell.DesignKgAmortized
		// Reused (pre-designed, silicon-proven) chiplets already have a
		// mask set; like design carbon, their NRE share is zero in the
		// cell.
		rep.NREKg += cell.NREKg
		pkgChiplets[i] = pkgcarbon.Chiplet{Name: c.Name, AreaMM2: cell.AreaMM2, Node: cell.Node}
	}

	pkg, err := pkgcarbon.Estimate(pkgChiplets, s.Packaging)
	if err != nil {
		return nil, err
	}
	rep.Packaging = pkg
	rep.HIKg = pkg.TotalKg()
	rep.RouterPowerW = pkg.RouterTotalPowerW

	// Design carbon of the inter-die communication fabric (routers /
	// PHYs), amortized over the system volume per Eq. (12). The fabric
	// is synthesized once per system design.
	share, err := s.CommDesignShareKg(db, s.Chiplets[0].NodeNm, len(s.Chiplets))
	if err != nil {
		return nil, err
	}
	rep.DesignKg += share

	return s.finish(rep)
}

// finish adds the operational term.
func (s *System) finish(rep *Report) (*Report, error) {
	if s.Operation != nil {
		op, err := s.Operation.LifetimeKg(rep.RouterPowerW)
		if err != nil {
			return nil, err
		}
		rep.OperationalKg = op
	}
	return rep, nil
}

func (s *System) volume() int {
	if s.SystemVolume == 0 {
		return DefaultVolume
	}
	return s.SystemVolume
}

// routerTransistors returns the transistor count of one communication
// endpoint (router or PHY) for the packaging architecture.
func routerTransistors(p pkgcarbon.Params) (float64, error) {
	switch p.Arch {
	case pkgcarbon.RDLFanout, pkgcarbon.SiliconBridge:
		return noc.PHYTransistors(p.Router)
	default:
		return noc.Transistors(p.Router)
	}
}
