// Package pkgcarbon implements the HI-oriented carbon overheads of
// Section III-D of the ECO-CHIP paper: the packaging-architecture models
// (Eqs. (9)-(11)), the inter-die communication overheads (routers and
// PHYs), and the whitespace-aware package/interposer area estimation
// built on the slicing floorplanner.
//
// Five packaging architectures are modeled:
//
//	RDLFanout         - chiplets on an epoxy-molding-compound substrate
//	                    with L_RDL patterned redistribution layers.
//	SiliconBridge     - EMIB/LSI-style local high-density bridges embedded
//	                    in an organic substrate; one or more bridges per
//	                    adjacent chiplet pair, ceil(overlap/range) each.
//	PassiveInterposer - a BEOL-only silicon die spanning the whole
//	                    package; NoC routers live inside the chiplets.
//	ActiveInterposer  - a silicon die with BEOL across the full area plus
//	                    local FEOL regions hosting the NoC routers.
//	ThreeD            - stacked tiers bonded by a dense grid of TSVs,
//	                    microbumps or hybrid bonds at minimum pitch.
package pkgcarbon

import (
	"fmt"
	"math"

	"ecochip/internal/floorplan"
	"ecochip/internal/noc"
	"ecochip/internal/tech"
	"ecochip/internal/yieldmodel"
)

// Architecture selects the packaging/integration technology.
type Architecture int

const (
	// RDLFanout is fanout packaging with RDL metal layers (Fig. 4a).
	RDLFanout Architecture = iota
	// SiliconBridge is EMIB/LSI-style bridge integration (Fig. 4b).
	SiliconBridge
	// PassiveInterposer is TSV-based 2.5D with a metal-only interposer
	// (Fig. 4c).
	PassiveInterposer
	// ActiveInterposer is 2.5D with FEOL logic in the interposer
	// (Fig. 4c).
	ActiveInterposer
	// ThreeD is chiplet stacking with TSVs/microbumps/hybrid bonds
	// (Fig. 4d).
	ThreeD
)

// Architectures lists all supported architectures in display order.
var Architectures = []Architecture{RDLFanout, SiliconBridge, PassiveInterposer, ActiveInterposer, ThreeD}

// String returns the canonical name used in reports.
func (a Architecture) String() string {
	switch a {
	case RDLFanout:
		return "RDL"
	case SiliconBridge:
		return "EMIB"
	case PassiveInterposer:
		return "passive-interposer"
	case ActiveInterposer:
		return "active-interposer"
	case ThreeD:
		return "3D"
	}
	return fmt.Sprintf("Architecture(%d)", int(a))
}

// ParseArchitecture accepts the JSON spellings of the released tool.
func ParseArchitecture(s string) (Architecture, error) {
	switch s {
	case "RDL", "rdl", "fanout", "RDL-fanout":
		return RDLFanout, nil
	case "EMIB", "emib", "bridge", "silicon-bridge":
		return SiliconBridge, nil
	case "passive", "passive-interposer", "2.5D-passive":
		return PassiveInterposer, nil
	case "active", "active-interposer", "2.5D-active":
		return ActiveInterposer, nil
	case "3D", "3d", "stacked":
		return ThreeD, nil
	}
	return 0, fmt.Errorf("pkgcarbon: unknown packaging architecture %q", s)
}

// BondType selects the vertical interconnect of 3D stacks.
type BondType int

const (
	// TSV is a through-silicon via (face-to-back stacking).
	TSV BondType = iota
	// Microbump is a face-to-face microbump.
	Microbump
	// HybridBond is direct Cu-Cu hybrid bonding.
	HybridBond
)

// String names the bond type.
func (b BondType) String() string {
	switch b {
	case TSV:
		return "TSV"
	case Microbump:
		return "microbump"
	case HybridBond:
		return "hybrid-bond"
	}
	return fmt.Sprintf("BondType(%d)", int(b))
}

// Default per-bond patterning energies in kWh. TSVs require deep etch and
// fill, microbumps plating and reflow, hybrid bonds only surface
// preparation amortized over a huge count.
const (
	EnergyPerTSVKWh    = 3e-6
	EnergyPerBumpKWh   = 2e-6
	EnergyPerHybridKWh = 5e-8
)

// Params bundles every packaging knob with Table I defaults.
type Params struct {
	Arch Architecture

	// PackagingNode is the node of the RDL / bridge / interposer
	// patterning (Table I: 22 - 65 nm; the paper's experiments use 65 nm).
	PackagingNode *tech.Node

	// CarbonIntensity is C_pkg,src in kg CO2/kWh.
	CarbonIntensity float64

	// SpacingMM is the chiplet spacing constraint for the floorplanner.
	SpacingMM float64

	// FlexibleFloorplan lets chiplets take non-square aspect ratios
	// during floorplanning (shape-curve sizing), which can only shrink
	// the package area. Off by default: the paper's experiments assume
	// fixed square dies.
	FlexibleFloorplan bool

	// RDLLayers is L_RDL (Table I: 3 - 9).
	RDLLayers int

	// BridgeLayers is L_bridge (Table I: 3 - 4).
	BridgeLayers int
	// BridgeRangeMM is the reach of one silicon bridge along a shared
	// edge (EMIB spec: 2 mm).
	BridgeRangeMM float64
	// BridgeAreaMM2 is the silicon area of one bridge (EMIB spec:
	// 2x2 mm^2).
	BridgeAreaMM2 float64
	// BridgeEmbedEnergyKWh is the cavity-milling/placement energy of
	// embedding one bridge in the substrate.
	BridgeEmbedEnergyKWh float64

	// InterposerBEOLLayers is the metal-layer count of 2.5D interposers.
	InterposerBEOLLayers int

	// AttachEnergyKWhPerChiplet is the assembly energy of placing and
	// bonding one chiplet onto a 2D substrate/interposer (pick-and-
	// place, reflow, underfill). It is the per-die term that makes
	// C_HI grow with chiplet count in Fig. 10. 3D stacks carry their
	// assembly energy in the bond-grid term instead.
	AttachEnergyKWhPerChiplet float64

	// Bond selects the 3D vertical interconnect.
	Bond BondType
	// BondPitchUM is the TSV/microbump/hybrid-bond pitch (Table I:
	// TSV and microbump 10 - 45 um, hybrid 1 - 10 um).
	BondPitchUM float64
	// EnergyPerBondKWh overrides the per-bond energy; 0 selects the
	// default for the bond type.
	EnergyPerBondKWh float64

	// Router is the NoC router microarchitecture for interposer/3D
	// communication; PHY interfaces for RDL/EMIB derive from the same
	// config.
	Router noc.Config
	// RouterPower is the operating point for router power estimation.
	RouterPower noc.PowerParams
}

// DefaultParams returns the paper's experimental configuration for the
// given architecture: 65 nm packaging node, coal-powered packaging fab,
// EMIB-spec bridges, 35 um TSV/bump pitch (5 um hybrid), 512-bit routers.
func DefaultParams(arch Architecture) Params {
	p := Params{
		Arch:                      arch,
		PackagingNode:             tech.Default().MustGet(65),
		CarbonIntensity:           0.700,
		SpacingMM:                 floorplan.DefaultSpacingMM,
		RDLLayers:                 6,
		BridgeLayers:              4,
		BridgeRangeMM:             2,
		BridgeAreaMM2:             4,
		BridgeEmbedEnergyKWh:      0.2,
		InterposerBEOLLayers:      4,
		AttachEnergyKWhPerChiplet: 0.3,
		Bond:                      Microbump,
		BondPitchUM:               35,
		Router:                    noc.DefaultConfig(),
		RouterPower:               noc.DefaultPowerParams(),
	}
	if arch == ThreeD {
		p.Bond = Microbump
	}
	return p
}

// Validate enforces the Table I parameter ranges.
func (p Params) Validate() error {
	if p.PackagingNode == nil {
		return fmt.Errorf("pkgcarbon: packaging node is required")
	}
	if p.PackagingNode.Nm < 22 || p.PackagingNode.Nm > 65 {
		return fmt.Errorf("pkgcarbon: packaging node %dnm outside Table I range [22, 65]", p.PackagingNode.Nm)
	}
	if p.CarbonIntensity < 0.030 || p.CarbonIntensity > 0.700 {
		return fmt.Errorf("pkgcarbon: carbon intensity %g outside [0.030, 0.700]", p.CarbonIntensity)
	}
	if p.RDLLayers < 3 || p.RDLLayers > 9 {
		return fmt.Errorf("pkgcarbon: RDL layers %d outside Table I range [3, 9]", p.RDLLayers)
	}
	if p.BridgeLayers < 3 || p.BridgeLayers > 4 {
		return fmt.Errorf("pkgcarbon: bridge layers %d outside Table I range [3, 4]", p.BridgeLayers)
	}
	if p.BridgeRangeMM <= 0 || p.BridgeAreaMM2 <= 0 {
		return fmt.Errorf("pkgcarbon: bridge range and area must be positive")
	}
	if p.BridgeEmbedEnergyKWh < 0 {
		return fmt.Errorf("pkgcarbon: bridge embed energy must be non-negative")
	}
	if p.InterposerBEOLLayers < 1 || p.InterposerBEOLLayers > 12 {
		return fmt.Errorf("pkgcarbon: interposer BEOL layers %d outside [1, 12]", p.InterposerBEOLLayers)
	}
	if p.AttachEnergyKWhPerChiplet < 0 {
		return fmt.Errorf("pkgcarbon: attach energy must be non-negative")
	}
	switch p.Bond {
	case TSV, Microbump:
		if p.BondPitchUM < 10 || p.BondPitchUM > 45 {
			return fmt.Errorf("pkgcarbon: %s pitch %g um outside Table I range [10, 45]", p.Bond, p.BondPitchUM)
		}
	case HybridBond:
		if p.BondPitchUM < 1 || p.BondPitchUM > 10 {
			return fmt.Errorf("pkgcarbon: hybrid-bond pitch %g um outside Table I range [1, 10]", p.BondPitchUM)
		}
	default:
		return fmt.Errorf("pkgcarbon: unknown bond type %v", p.Bond)
	}
	return p.Router.Validate()
}

func (p Params) energyPerBond() float64 {
	if p.EnergyPerBondKWh > 0 {
		return p.EnergyPerBondKWh
	}
	switch p.Bond {
	case TSV:
		return EnergyPerTSVKWh
	case Microbump:
		return EnergyPerBumpKWh
	default:
		return EnergyPerHybridKWh
	}
}

// Chiplet is one die to be packaged. Node is the chiplet's own process,
// used to size in-chiplet routers (passive interposer) and PHYs
// (RDL/EMIB).
type Chiplet struct {
	Name    string
	AreaMM2 float64
	Node    *tech.Node
}

// Result is the C_HI breakdown of one packaged system.
type Result struct {
	Arch Architecture

	// PackageAreaMM2 is the substrate/interposer area (3D: the stack
	// footprint).
	PackageAreaMM2 float64
	// WhitespaceMM2 is package area minus chiplet area (3D: 0).
	WhitespaceMM2 float64
	// Floorplan is the placement (nil for 3D stacks).
	Floorplan *floorplan.Result

	// NumBridges is the silicon-bridge count (EMIB only).
	NumBridges int
	// NumBonds is the TSV/bump/bond count (3D only).
	NumBonds float64
	// AssemblyYield is the package-level yield divisor.
	AssemblyYield float64

	// PackageKg is C_package in kg CO2.
	PackageKg float64
	// RoutingKg is C_mfg,comm: the carbon of routers or PHYs.
	RoutingKg float64

	// RouterAreaPerChipletMM2 is the NoC area implemented inside each
	// chiplet (passive interposer, and PHYs for RDL/EMIB). For active
	// interposers this is zero: routers live in the interposer.
	RouterAreaPerChipletMM2 float64
	// RouterTotalPowerW is the added inter-die communication power,
	// fed into the operational-carbon model.
	RouterTotalPowerW float64
}

// TotalKg returns C_HI = C_package + C_mfg,comm in kg CO2.
func (r *Result) TotalKg() float64 { return r.PackageKg + r.RoutingKg }

// Estimate computes the HI carbon overheads for the chiplet set under the
// given parameters. For non-3D architectures the chiplets are floorplanned
// side by side; for ThreeD they are treated as stacked tiers in the given
// order.
func Estimate(chiplets []Chiplet, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return estimateWith(chiplets, &p, nil)
}

// Estimator evaluates many chiplet sets under one fixed parameter set
// with the parameters validated once at construction and every reusable
// buffer — the retained floorplan tree, the Result, and a per-node memo
// of the pure communication sub-results (PHY/router area, carbon,
// power) — retained across calls. It is the packaging backend of
// compiled design-space sweep plans, whose hot loop would otherwise
// spend most of its time re-validating an unchanged Params and
// re-allocating identical intermediate storage.
//
// The floorplanner behind Estimate is a floorplan.Tree, which keeps the
// sorted block order, an exact memo of bounding boxes by sorted shape,
// and its last result (every box bit-identical to a from-scratch plan).
// EstimateDelta is the explicit single-changed-chiplet seam a Gray-code
// sweep step uses: the tree repairs its order and serves a recurring
// shape from the memo. A changed chiplet set (a Disaggregate merge
// candidate) makes the tree start over. Silicon bridges (which read
// adjacencies) and flexible floorplans (shape curves) plan from scratch
// on every call.
//
// An Estimator is NOT safe for concurrent use; give each worker its own.
// The Result returned by Estimate (including its Floorplan) is owned by
// the Estimator and overwritten by the next call; for non-bridge
// architectures the Floorplan carries only the bounding box and totals
// (nil Placements and Adjacencies), which is all any non-bridge model
// consumes — use the package-level Estimate when placements are needed
// for rendering.
type Estimator struct {
	p  Params
	sc scratch
}

// NewEstimator validates the parameters once and returns a reusable
// estimator for them.
func NewEstimator(p Params) (*Estimator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Estimator{p: p, sc: scratch{comm: make(map[*tech.Node]commCell)}}, nil
}

// Estimate is pkgcarbon.Estimate under the estimator's pre-validated
// parameters; the result is bit-identical to the package-level call.
func (e *Estimator) Estimate(chiplets []Chiplet) (*Result, error) {
	return estimateWith(chiplets, &e.p, &e.sc)
}

// EstimateDelta is Estimate when only chiplets[changed] differs (in
// area and/or node) from the chiplet set of the previous call on this
// estimator — the Gray-step shape of a compiled sweep walk. The
// floorplan goes through the retained tree's single-block update
// (served from its exact shape memo when the sorted area sequence
// recurs) and the communication cells of unchanged chiplets are served
// from the per-chiplet cache; everything is bit-identical to a full
// Estimate by construction. When the precondition cannot be verified
// cheaply (first call, different chiplet count or names), or the
// floorplan is not the retained tree's (3D stacks, silicon bridges,
// flexible floorplans), it falls back to the full Estimate.
func (e *Estimator) EstimateDelta(chiplets []Chiplet, changed int) (*Result, error) {
	sc := &e.sc
	if e.p.Arch == ThreeD || e.p.Arch == SiliconBridge || e.p.FlexibleFloorplan ||
		changed < 0 || changed >= len(chiplets) ||
		len(sc.blocks) != len(chiplets) ||
		sc.blocks[changed].Name != chiplets[changed].Name {
		return e.Estimate(chiplets)
	}
	c := chiplets[changed]
	// Other chiplets are unchanged since the previous (validated) call;
	// only the changed one needs the input checks.
	if c.AreaMM2 <= 0 {
		return nil, fmt.Errorf("pkgcarbon: chiplet %q has non-positive area", c.Name)
	}
	if c.Node == nil {
		return nil, fmt.Errorf("pkgcarbon: chiplet %q has no technology node", c.Name)
	}
	sc.blocks[changed].AreaMM2 = c.AreaMM2
	fp, err := sc.fp.Update(changed, c.AreaMM2)
	if err != nil {
		return nil, err
	}
	// Reuse the scratch Result without re-zeroing: finishEstimate
	// rewrites every field this (fixed) architecture's path writes, and
	// the fields it never writes were zeroed by the first full estimate
	// and can never have been set since.
	res := &sc.res
	if err := finishEstimate(res, chiplets, &e.p, fp, sc); err != nil {
		return nil, err
	}
	return res, nil
}

// FloorplanStats snapshots the floorplan tree's counters (memo hits,
// unchanged plans, layouts, block-set rebuilds).
func (e *Estimator) FloorplanStats() floorplan.TreeStats {
	return e.sc.fp.Stats()
}

// Routing is the communication slice of a packaging Result: the only
// C_HI terms that read the chiplets' own technology-node parameters
// (the router/PHY silicon is charged at its host node's CFPA).
type Routing struct {
	// RoutingKg is C_mfg,comm.
	RoutingKg float64
	// RouterAreaPerChipletMM2 is the per-chiplet NoC/PHY area.
	RouterAreaPerChipletMM2 float64
	// RouterTotalPowerW is the added inter-die communication power.
	RouterTotalPowerW float64
}

// EstimateRouting computes only the communication terms of Estimate for
// the chiplet set — bit-identical to the corresponding fields of the full
// estimate, with no floorplanning and no package-carbon work. Compiled
// parameter plans use it to refresh the node-dependent slice of a
// tabulated packaging result when only tech-node parameters (defect
// density, EPA, ...) were perturbed: the floorplan and package carbon
// depend on areas and the packaging node alone and stay valid.
func EstimateRouting(chiplets []Chiplet, p Params) (Routing, error) {
	if len(chiplets) == 0 {
		return Routing{}, fmt.Errorf("pkgcarbon: no chiplets")
	}
	if err := p.Validate(); err != nil {
		return Routing{}, err
	}
	var res Result
	res.Arch = p.Arch
	if err := addCommunication(&res, chiplets, &p, nil); err != nil {
		return Routing{}, err
	}
	return Routing{
		RoutingKg:               res.RoutingKg,
		RouterAreaPerChipletMM2: res.RouterAreaPerChipletMM2,
		RouterTotalPowerW:       res.RouterTotalPowerW,
	}, nil
}

// commCell is a memoized per-node communication contribution.
type commCell struct {
	areaMM2 float64
	kg      float64
	powerW  float64
}

// pkgCell is a memoized architecture package term: for RDL and the two
// interposer architectures the whole (yield, package carbon, bond
// count) triple is a pure function of the package bounding-box area
// under an estimator's fixed parameters, so a scratch caches it per
// exact area bits — the repeated-run serving shape (compile a plan
// once, evaluate it per request) revisits the same areas and skips the
// negative-binomial yield math entirely.
type pkgCell struct {
	assemblyYield float64
	packageKg     float64
	numBonds      float64
}

// pkgSlotBits sizes the per-scratch package-term cache: 2^pkgSlotBits
// direct-mapped slots. A colliding area overwrites its slot and is
// recomputed on the next visit — eviction changes only speed, never a
// bit, because the cached triple is a pure function of the area.
const pkgSlotBits = 10

// scratch carries the reusable state of an Estimator. A nil *scratch
// selects the allocate-fresh behavior of the package-level Estimate.
type scratch struct {
	blocks   []floorplan.Block
	fp       floorplan.Tree
	bridgeFP floorplan.Scratch // silicon-bridge plans, which need adjacencies
	res      Result
	comm     map[*tech.Node]commCell
	// The per-chiplet slot cache of the last communication cell used per
	// index, stored as struct-of-arrays columns so the per-point fold
	// reads dense float64 slices: commNode records which node each slot
	// was computed for (the changed chiplet may have switched nodes; a
	// pointer mismatch refills the slot from the per-node memo), and
	// commKgCol/commAreaCol/commPowerCol carry the cell values.
	commNode     []*tech.Node
	commKgCol    []float64
	commAreaCol  []float64
	commPowerCol []float64
	// pkgKeys/pkgCells are the per-area package-term cache (see pkgCell):
	// direct-mapped flat arrays keyed by the area's exact float bits,
	// replacing a hash map on the sweep walk's hottest lookup. Slot 0 of
	// pkgKeys doubles as the empty marker — a validated package area is
	// strictly positive, so its bit pattern is never zero. Lazy.
	pkgKeys  []uint64
	pkgCells []pkgCell
}

func estimateWith(chiplets []Chiplet, p *Params, sc *scratch) (*Result, error) {
	if len(chiplets) == 0 {
		return nil, fmt.Errorf("pkgcarbon: no chiplets")
	}
	for _, c := range chiplets {
		if c.AreaMM2 <= 0 {
			return nil, fmt.Errorf("pkgcarbon: chiplet %q has non-positive area", c.Name)
		}
		if c.Node == nil {
			return nil, fmt.Errorf("pkgcarbon: chiplet %q has no technology node", c.Name)
		}
	}
	if p.Arch == ThreeD {
		return estimate3D(chiplets, p, sc)
	}

	var blocks []floorplan.Block
	if sc != nil {
		if cap(sc.blocks) < len(chiplets) {
			sc.blocks = make([]floorplan.Block, len(chiplets))
		}
		blocks = sc.blocks[:len(chiplets)]
		sc.blocks = blocks
	} else {
		blocks = make([]floorplan.Block, len(chiplets))
	}
	for i, c := range chiplets {
		blocks[i] = floorplan.Block{Name: c.Name, AreaMM2: c.AreaMM2}
	}
	var fp *floorplan.Result
	var err error
	switch {
	case p.FlexibleFloorplan:
		fp, err = floorplan.PlanFlexible(blocks, p.SpacingMM, nil)
	case sc != nil && p.Arch != SiliconBridge:
		// Only the bridge model reads adjacencies or placements; every
		// other architecture consumes just the bounding box, so the
		// scratch path plans dims-only — no pairwise scan, no
		// placements — keeping the per-estimate cost flat in the chiplet
		// count. The tree returns its last box when no area changed.
		fp, err = sc.fp.PlanDims(blocks, p.SpacingMM)
	case sc != nil:
		fp, err = sc.bridgeFP.Plan(blocks, p.SpacingMM)
	default:
		fp, err = floorplan.Plan(blocks, p.SpacingMM)
	}
	if err != nil {
		return nil, err
	}
	res := newResult(sc)
	if err := finishEstimate(res, chiplets, p, fp, sc); err != nil {
		return nil, err
	}
	return res, nil
}

// finishEstimate runs everything after the floorplan: the architecture
// package-carbon model, the attach term and the communication overhead.
// It is shared by the full path, the single-changed-chiplet delta path
// and EstimateOnFloorplan, so the float expressions (and their order)
// cannot diverge between them.
func finishEstimate(res *Result, chiplets []Chiplet, p *Params, fp *floorplan.Result, sc *scratch) error {
	res.Arch = p.Arch
	res.PackageAreaMM2 = fp.AreaMM2()
	res.WhitespaceMM2 = fp.WhitespaceMM2()
	res.Floorplan = fp
	// The bridge model reads the adjacency list, so only the three
	// area-pure architectures go through the scratch's per-area memo
	// (the memoized triple carries the exact bits the model computes —
	// it is a pure function of the area under fixed params).
	if sc != nil && p.Arch != SiliconBridge {
		key := math.Float64bits(res.PackageAreaMM2)
		if sc.pkgKeys == nil {
			sc.pkgKeys = make([]uint64, 1<<pkgSlotBits)
			sc.pkgCells = make([]pkgCell, 1<<pkgSlotBits)
		}
		// Fibonacci hashing spreads the area bits across the slot space;
		// the tag check below makes collisions recomputes, not errors.
		slot := key * 0x9e3779b97f4a7c15 >> (64 - pkgSlotBits)
		if sc.pkgKeys[slot] == key {
			cell := &sc.pkgCells[slot]
			res.AssemblyYield = cell.assemblyYield
			res.PackageKg = cell.packageKg
			res.NumBonds = cell.numBonds
		} else {
			if err := runArchModel(res, chiplets, p, fp); err != nil {
				return err
			}
			sc.pkgKeys[slot] = key
			sc.pkgCells[slot] = pkgCell{
				assemblyYield: res.AssemblyYield,
				packageKg:     res.PackageKg,
				numBonds:      res.NumBonds,
			}
		}
	} else if err := runArchModel(res, chiplets, p, fp); err != nil {
		return err
	}
	// Per-chiplet attach energy, charged through the assembly yield so
	// failed assemblies are borne by the good ones.
	res.PackageKg += float64(len(chiplets)) * p.AttachEnergyKWhPerChiplet *
		p.CarbonIntensity / res.AssemblyYield
	return addCommunication(res, chiplets, p, sc)
}

// runArchModel dispatches the architecture-specific package-carbon
// model (the memoizable slice of finishEstimate).
func runArchModel(res *Result, chiplets []Chiplet, p *Params, fp *floorplan.Result) error {
	switch p.Arch {
	case RDLFanout:
		return estimateRDL(res, p)
	case SiliconBridge:
		return estimateBridge(res, fp, p)
	case PassiveInterposer:
		return estimateInterposer(res, chiplets, p, false)
	case ActiveInterposer:
		return estimateInterposer(res, chiplets, p, true)
	}
	return fmt.Errorf("pkgcarbon: unknown architecture %v", p.Arch)
}

// EstimateOnFloorplan is Estimate for a chiplet set whose floorplan is
// already known: fp must be the floorplan of these chiplets' areas at
// p.SpacingMM under the same FlexibleFloorplan setting (for bridge
// architectures it must carry the adjacency scan). Compiled parameter
// plans use it to re-run the packaging model under perturbed parameters
// that leave the floorplan geometry untouched — the result then carries
// the exact float bits of a full Estimate. For ThreeD (which has no
// floorplan) fp is ignored and the full stack model runs.
func EstimateOnFloorplan(chiplets []Chiplet, p Params, fp *floorplan.Result) (*Result, error) {
	// The checks run in Estimate's order, so the two paths surface
	// identical errors.
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(chiplets) == 0 {
		return nil, fmt.Errorf("pkgcarbon: no chiplets")
	}
	for _, c := range chiplets {
		if c.AreaMM2 <= 0 {
			return nil, fmt.Errorf("pkgcarbon: chiplet %q has non-positive area", c.Name)
		}
		if c.Node == nil {
			return nil, fmt.Errorf("pkgcarbon: chiplet %q has no technology node", c.Name)
		}
	}
	if p.Arch == ThreeD {
		return estimate3D(chiplets, &p, nil)
	}
	if fp == nil || len(fp.Placements) != len(chiplets) {
		return nil, fmt.Errorf("pkgcarbon: EstimateOnFloorplan needs a floorplan of all %d chiplets", len(chiplets))
	}
	res := &Result{}
	if err := finishEstimate(res, chiplets, &p, fp, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// newResult returns the scratch-owned Result (zeroed) or a fresh one.
func newResult(sc *scratch) *Result {
	if sc == nil {
		return &Result{}
	}
	sc.res = Result{}
	return &sc.res
}

// estimateRDL implements Eq. (9): per-layer patterning energy over the
// package area, divided by the layered RDL yield.
func estimateRDL(res *Result, p *Params) error {
	areaCM2 := res.PackageAreaMM2 / 100
	// RDL layers are coarse (6-10 um L/S); their per-layer yield uses
	// the negative-binomial model at a derated defect density.
	perLayer := yieldmodel.Die(res.PackageAreaMM2, p.PackagingNode.DefectDensity*rdlDefectDerate)
	y := yieldmodel.Layered(perLayer, p.RDLLayers)
	res.AssemblyYield = y
	energy := float64(p.RDLLayers) * p.PackagingNode.EPLARDL * areaCM2
	res.PackageKg = energy * p.CarbonIntensity / y
	return nil
}

// rdlDefectDerate scales the silicon defect density down for the coarse
// RDL linewidths (6-10 um L/S vs sub-um silicon metal).
const rdlDefectDerate = 0.25

// bridgeDefectMultiplier scales defect density up for the ultra-fine
// (2 um L/S) bridge interconnect, which is the reason EMIB yields trail
// RDL (Section II-C).
const bridgeDefectMultiplier = 8

// estimateBridge implements Eq. (10): one bridge per 2 mm of shared edge
// between adjacent chiplets, each carrying patterning plus embedding
// energy over the bridge yield.
func estimateBridge(res *Result, fp *floorplan.Result, p *Params) error {
	n := 0
	for _, adj := range fp.Adjacencies {
		n += int(math.Ceil(adj.OverlapMM / p.BridgeRangeMM))
	}
	if n == 0 {
		return fmt.Errorf("pkgcarbon: EMIB floorplan produced no adjacent chiplet pairs")
	}
	res.NumBridges = n
	y := yieldmodel.Die(p.BridgeAreaMM2, p.PackagingNode.DefectDensity*bridgeDefectMultiplier)
	y = yieldmodel.Layered(y, p.BridgeLayers)
	res.AssemblyYield = y
	perBridgeEnergy := float64(p.BridgeLayers)*p.PackagingNode.EPLABridge*(p.BridgeAreaMM2/100) + p.BridgeEmbedEnergyKWh
	res.PackageKg = float64(n) * perBridgeEnergy * p.CarbonIntensity / y
	return nil
}

// beolEPAFraction is the share of a node's full-flow EPA attributable to
// BEOL-only processing, used for the passive interposer which has no
// devices.
const beolEPAFraction = 0.4

// interposerTSVPitchUM is the pitch of the through-silicon vias that
// carry interposer signals down to the package substrate (Fig. 4(c):
// 2.5D interposers are TSV-based). TSVs sit at the coarse end of the
// Table I range since they only serve substrate escape, not die-to-die
// bandwidth.
const interposerTSVPitchUM = 45.0

// estimateInterposer models 2.5D interposers as an additional large
// silicon die spanning the package area. Passive interposers carry only
// BEOL processing plus material; active interposers carry the full flow
// energy (FEOL+BEOL) plus gas emissions, since devices are fabricated
// even though they are used only in local router regions. Both carry a
// grid of escape TSVs to the package substrate.
func estimateInterposer(res *Result, chiplets []Chiplet, p *Params, active bool) error {
	n := p.PackagingNode
	areaCM2 := res.PackageAreaMM2 / 100
	y := yieldmodel.Die(res.PackageAreaMM2, n.DefectDensity)
	res.AssemblyYield = y

	var rawKgPerCM2 float64
	if active {
		rawKgPerCM2 = n.EquipEfficiency*p.CarbonIntensity*n.EPA + n.GasCFP + n.MaterialCFP
	} else {
		rawKgPerCM2 = n.EquipEfficiency*p.CarbonIntensity*(beolEPAFraction*n.EPA) + n.MaterialCFP
	}
	// Metal patterning for the interposer's routing layers.
	layerKgPerCM2 := float64(p.InterposerBEOLLayers) * n.EPLARDL * p.CarbonIntensity
	// Escape TSVs through the interposer to the substrate.
	pitchMM := interposerTSVPitchUM / 1000
	tsvs := res.PackageAreaMM2 / (pitchMM * pitchMM)
	res.NumBonds = tsvs
	tsvKg := tsvs * EnergyPerTSVKWh * p.CarbonIntensity

	res.PackageKg = ((rawKgPerCM2+layerKgPerCM2)*areaCM2 + tsvKg) / y
	return nil
}

// estimate3D implements Eq. (11): a dense grid of vertical bonds at
// minimum pitch across the stack footprint. Following Section V-B(1), the
// bond grid is a single vertical stack network across all tiers (the
// footprint shrinks as logic is split across more tiers, so the bond
// count falls even though the assembly yield degrades with tier count).
func estimate3D(chiplets []Chiplet, p *Params, sc *scratch) (*Result, error) {
	footprint := 0.0
	for _, c := range chiplets {
		footprint = math.Max(footprint, c.AreaMM2)
	}
	res := newResult(sc)
	res.Arch = ThreeD
	res.PackageAreaMM2 = footprint

	pitchMM := p.BondPitchUM / 1000
	bonds := footprint / (pitchMM * pitchMM)
	res.NumBonds = bonds

	tiers := len(chiplets)
	bondY := yieldmodel.BondYieldFromPitch(p.BondPitchUM)
	y := math.Pow(bondY, float64(tiers-1))
	res.AssemblyYield = y
	res.PackageKg = bonds * p.energyPerBond() * p.CarbonIntensity / y

	if err := addCommunication(res, chiplets, p, sc); err != nil {
		return nil, err
	}
	return res, nil
}

// addCommunication adds C_mfg,comm per Section III-D(2):
//
//   - interposer-based and 3D systems need a full NoC router per chiplet
//     (in the chiplet's node for passive interposers and 3D, in the
//     packaging node for active interposers, where it also consumes
//     interposer FEOL),
//   - RDL and EMIB packages only need small PHY IPs inside each chiplet.
//
// Router/PHY silicon is charged at the carbon of its host node using the
// same CFPA formulation as Eq. (6) (without wafer wastage: the blocks are
// tiny IP regions, not separate dies).
//
// All three per-node contributions are pure in (Router config, node,
// carbon intensity), so a scratch memoizes them per *tech.Node — a full
// factorial sweep revisits the same handful of nodes for every point —
// without changing a single bit of the summation. On top of the map
// memo, a scratch keeps the last cell per chiplet slot (commSlot): a
// Gray step changes one chiplet's node, so the other slots fold their
// cached cells without re-hashing.
func addCommunication(res *Result, chiplets []Chiplet, p *Params, sc *scratch) error {
	switch res.Arch {
	case RDLFanout, SiliconBridge:
		total, areaSum, _, err := commFold(sc, chiplets, p, false)
		if err != nil {
			return err
		}
		res.RoutingKg = total
		res.RouterAreaPerChipletMM2 = areaSum / float64(len(chiplets))
		// PHYs are near-DC interfaces; their power is folded into the
		// system power elsewhere. Keep router power zero here.
		return nil

	case PassiveInterposer, ThreeD:
		total, areaSum, powerSum, err := commFold(sc, chiplets, p, true)
		if err != nil {
			return err
		}
		res.RoutingKg = total
		res.RouterAreaPerChipletMM2 = areaSum / float64(len(chiplets))
		res.RouterTotalPowerW = powerSum
		return nil

	case ActiveInterposer:
		cc, err := commFor(sc, p.PackagingNode, p, true)
		if err != nil {
			return err
		}
		n := float64(len(chiplets))
		res.RoutingKg = n * cc.kg
		res.RouterTotalPowerW = n * cc.powerW
		return nil
	}
	return fmt.Errorf("pkgcarbon: unknown architecture %v", res.Arch)
}

// commFold sums the per-chiplet communication contributions as three
// sequential column folds. It first refreshes the stale slots of the
// scratch's per-chiplet column cache (a Gray step changes at most one),
// then reduces each column in slot order. Each accumulator sees exactly
// the additions, in exactly the order, of the old per-chiplet loop —
// the columns are merely refreshed up front instead of inline — so the
// dense fold cannot change a bit.
func commFold(sc *scratch, chiplets []Chiplet, p *Params, fullRouter bool) (kgSum, areaSum, powerSum float64, err error) {
	if cached := commSlots(sc, len(chiplets)); !cached {
		for _, c := range chiplets {
			cc, err := commFor(sc, c.Node, p, fullRouter)
			if err != nil {
				return 0, 0, 0, err
			}
			kgSum += cc.kg
			areaSum += cc.areaMM2
			powerSum += cc.powerW
		}
		return kgSum, areaSum, powerSum, nil
	}
	for i, c := range chiplets {
		if sc.commNode[i] == c.Node {
			continue
		}
		cc, err := commFor(sc, c.Node, p, fullRouter)
		if err != nil {
			return 0, 0, 0, err
		}
		sc.commNode[i] = c.Node
		sc.commKgCol[i] = cc.kg
		sc.commAreaCol[i] = cc.areaMM2
		sc.commPowerCol[i] = cc.powerW
	}
	for _, v := range sc.commKgCol {
		kgSum += v
	}
	for _, v := range sc.commAreaCol {
		areaSum += v
	}
	for _, v := range sc.commPowerCol {
		powerSum += v
	}
	return kgSum, areaSum, powerSum, nil
}

// commSlots sizes the scratch's per-chiplet column cache, invalidating
// it when the chiplet count changed, and reports whether a scratch
// backs the slots at all.
func commSlots(sc *scratch, n int) bool {
	if sc == nil {
		return false
	}
	if len(sc.commNode) != n {
		if cap(sc.commNode) < n {
			sc.commNode = make([]*tech.Node, n)
			sc.commKgCol = make([]float64, n)
			sc.commAreaCol = make([]float64, n)
			sc.commPowerCol = make([]float64, n)
		}
		sc.commNode = sc.commNode[:n]
		sc.commKgCol = sc.commKgCol[:n]
		sc.commAreaCol = sc.commAreaCol[:n]
		sc.commPowerCol = sc.commPowerCol[:n]
		for i := range sc.commNode {
			sc.commNode[i] = nil
		}
	}
	return true
}

// commFor computes (or recalls) one node's communication contribution.
// fullRouter selects a complete NoC router (interposer/3D architectures);
// otherwise the node carries only a PHY IP. The memo key is the node
// pointer — tech.DB hands out stable *Node values — and an Estimator's
// architecture is fixed, so the router/PHY distinction never changes
// within one scratch.
func commFor(sc *scratch, n *tech.Node, p *Params, fullRouter bool) (commCell, error) {
	if sc != nil {
		if cc, ok := sc.comm[n]; ok {
			return cc, nil
		}
	}
	var cc commCell
	if fullRouter {
		a, err := noc.AreaMM2(p.Router, n)
		if err != nil {
			return commCell{}, err
		}
		w, err := noc.PowerW(p.Router, n, p.RouterPower)
		if err != nil {
			return commCell{}, err
		}
		cc = commCell{areaMM2: a, kg: chipletLogicCarbon(n, a, p.CarbonIntensity), powerW: w}
	} else {
		a, err := noc.PHYAreaMM2(p.Router, n)
		if err != nil {
			return commCell{}, err
		}
		cc = commCell{areaMM2: a, kg: chipletLogicCarbon(n, a, p.CarbonIntensity)}
	}
	if sc != nil {
		sc.comm[n] = cc
	}
	return cc, nil
}

// chipletLogicCarbon is the Eq. (6) CFPA (without wastage) applied to a
// small logic region of the given area in the given node.
func chipletLogicCarbon(n *tech.Node, areaMM2, carbonIntensity float64) float64 {
	y := yieldmodel.Die(areaMM2, n.DefectDensity)
	raw := n.EquipEfficiency*carbonIntensity*n.EPA + n.GasCFP + n.MaterialCFP
	return raw / y * areaMM2 / 100
}
