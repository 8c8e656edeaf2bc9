// Package tech provides the technology-node parameter database that every
// carbon and cost model in ECO-CHIP consumes.
//
// The database covers the parameters of Table I of the HPCA 2024 paper:
// defect density D0(p), transistor density D_T(d, p) for the three design
// types (logic, memory, analog), manufacturing energy per unit area EPA(p),
// greenhouse-gas and material CFP per unit area, the process-equipment
// energy-efficiency derate eta_eq, the EDA-productivity derate eta_EDA,
// nominal supply voltage, and per-layer patterning energies (EPLA) used by
// the packaging models.
//
// Units convention (used consistently across the repository):
//   - areas are mm^2 at package boundaries; cm^2 appears only inside
//     carbon-per-area math,
//   - energies are kWh,
//   - carbon is kg of CO2-equivalent,
//   - transistor densities are MTr/mm^2 (millions of transistors per mm^2).
package tech

import (
	"fmt"
	"slices"
)

// DesignType identifies the scaling class of a block or chiplet. The three
// classes scale very differently with process node: logic tracks the full
// density improvement, SRAM lags it, and analog barely scales at all
// (Section III-C(1) of the paper).
type DesignType int

const (
	// Logic is standard-cell digital logic.
	Logic DesignType = iota
	// Memory is SRAM-dominated area.
	Memory
	// Analog covers analog, IO and mixed-signal area.
	Analog
)

// ParseDesignType converts the JSON/CLI spellings used by the released
// ECO-CHIP tool ("logic", "memory"/"mem"/"sram", "analog"/"io") into a
// DesignType.
func ParseDesignType(s string) (DesignType, error) {
	switch s {
	case "logic", "digital":
		return Logic, nil
	case "memory", "mem", "sram":
		return Memory, nil
	case "analog", "io", "analog_io":
		return Analog, nil
	}
	return 0, fmt.Errorf("tech: unknown design type %q", s)
}

// String returns the canonical lower-case name of the design type.
func (d DesignType) String() string {
	switch d {
	case Logic:
		return "logic"
	case Memory:
		return "memory"
	case Analog:
		return "analog"
	}
	return fmt.Sprintf("DesignType(%d)", int(d))
}

// DesignTypes lists all supported design types in a stable order.
var DesignTypes = []DesignType{Logic, Memory, Analog}

// Node holds every per-process parameter the carbon and cost models need.
// The numbers are interpolations within the ranges of Table I of the paper
// (see the table in nodes.go); they are deliberately exported as plain
// fields so that a user with access to proprietary fab data can construct
// their own Node values.
type Node struct {
	// Nm is the marketing node name in nanometres (7, 10, 14, ...).
	Nm int

	// DefectDensity is D0(p) in defects/cm^2. Mature nodes have lower
	// defect densities (Table I: 0.07 - 0.3 /cm^2).
	DefectDensity float64

	// Density is the transistor density in MTr/mm^2 of each design
	// type, indexed by DesignType (Table I: 5 - 150 MTr/mm^2 across
	// types and nodes).
	Density [3]float64

	// EPA is the manufacturing energy per unit area in kWh/cm^2
	// (Table I: 0.8 - 3.5 kWh/cm^2).
	EPA float64

	// GasCFP is the direct greenhouse-gas CFP of fabrication in
	// kg CO2/cm^2 (Table I: 0.1 - 0.5).
	GasCFP float64

	// MaterialCFP is the CFP of sourcing wafer materials in kg CO2/cm^2
	// (Table I: 0.5).
	MaterialCFP float64

	// EquipEfficiency is eta_eq(p) in (0, 1]: a derate applied to the
	// fab-energy term of CFPA. Mature nodes run on better-amortized,
	// more efficient equipment and therefore carry a lower derate.
	EquipEfficiency float64

	// EDAProductivity is eta_EDA(p) in (0, 1]: design time is divided by
	// this factor, so the *larger* values assigned to older nodes model
	// the paper's observation that the latest EDA tools finish older
	// nodes faster (Section III-E).
	EDAProductivity float64

	// Vdd is the nominal supply voltage in volts (Table I: 0.7 - 1.8 V).
	Vdd float64

	// EPLARDL is the energy per RDL metal layer per unit area in
	// kWh/cm^2 when this node is used as the packaging/RDL node
	// (Table I: 0.05 - 0.2).
	EPLARDL float64

	// EPLABridge is the energy per silicon-bridge metal layer per unit
	// area in kWh/cm^2; bridges use ultra-fine L/S lower-metal patterning
	// and are therefore more energy-intensive than RDL
	// (Table I: 0.1 - 0.35).
	EPLABridge float64

	// WaferCostUSD is the dollar cost of a 300 mm-equivalent processed
	// wafer in this node, used only by the dollar-cost model (Section VI).
	WaferCostUSD float64
}

// Area returns the silicon area in mm^2 of a block of the given design
// type with the given transistor count, implemented in this node:
//
//	A_die(d, p) = N_T / D_T(d, p)
//
// (Section III-C(1); the paper's inline formula is dimensionally inverted,
// the released tool divides as we do here.) transistors is an absolute
// count, not millions.
func (n *Node) Area(d DesignType, transistors float64) float64 {
	return transistors / (n.density(d) * 1e6)
}

// Transistors is the inverse of Area: the transistor count that fills the
// given area (mm^2) for the design type at this node.
func (n *Node) Transistors(d DesignType, areaMM2 float64) float64 {
	return areaMM2 * n.density(d) * 1e6
}

// density returns the positive transistor density of d, and panics for
// a design type outside DesignTypes or an unset (non-positive) density.
func (n *Node) density(d DesignType) float64 {
	if d < 0 || int(d) >= len(n.Density) || n.Density[d] <= 0 {
		panic(fmt.Sprintf("tech: node %dnm has no density for design type %s", n.Nm, d))
	}
	return n.Density[d]
}

// Validate checks that the node's parameters sit inside the ranges of
// Table I of the paper. It is used by the config front-end to reject
// out-of-model inputs early.
func (n *Node) Validate() error {
	check := func(name string, v, lo, hi float64) error {
		if v < lo || v > hi {
			return fmt.Errorf("tech: node %dnm: %s = %g outside Table I range [%g, %g]", n.Nm, name, v, lo, hi)
		}
		return nil
	}
	if n.Nm <= 0 {
		return fmt.Errorf("tech: node size must be positive, got %d", n.Nm)
	}
	if err := check("defect density", n.DefectDensity, 0.07, 0.3); err != nil {
		return err
	}
	for _, d := range DesignTypes {
		density := n.Density[d]
		// Analog density sits below the headline logic range; allow
		// down to 1 MTr/mm^2 for it.
		lo := 5.0
		if d == Analog {
			lo = 1.0
		}
		// Name the field only on failure: Validate runs on every
		// evaluation's packaging node, and the concatenation allocates.
		if density < lo || density > 150 {
			return check(d.String()+" density", density, lo, 150)
		}
	}
	if err := check("EPA", n.EPA, 0.8, 3.5); err != nil {
		return err
	}
	if err := check("gas CFP", n.GasCFP, 0.1, 0.5); err != nil {
		return err
	}
	if err := check("material CFP", n.MaterialCFP, 0.1, 0.5); err != nil {
		return err
	}
	if err := check("equipment efficiency", n.EquipEfficiency, 0, 1); err != nil {
		return err
	}
	if err := check("EDA productivity", n.EDAProductivity, 0, 1); err != nil {
		return err
	}
	if err := check("Vdd", n.Vdd, 0.7, 1.8); err != nil {
		return err
	}
	if err := check("EPLA RDL", n.EPLARDL, 0.05, 0.2); err != nil {
		return err
	}
	if err := check("EPLA bridge", n.EPLABridge, 0.1, 0.35); err != nil {
		return err
	}
	if n.WaferCostUSD <= 0 {
		return fmt.Errorf("tech: node %dnm: wafer cost must be positive", n.Nm)
	}
	return nil
}

// DB is an immutable set of technology nodes keyed by node size.
// The zero value is unusable; construct with NewDB or use Default().
type DB struct {
	nodes []Node // ascending Nm
}

// NewDB builds a database from the given nodes, validating each one.
func NewDB(nodes []Node) (*DB, error) {
	db := &DB{nodes: make([]Node, 0, len(nodes))}
	for i := range nodes {
		n := &nodes[i]
		if err := n.Validate(); err != nil {
			return nil, err
		}
		at, dup := db.index(n.Nm)
		if dup {
			return nil, fmt.Errorf("tech: duplicate node %dnm", n.Nm)
		}
		db.nodes = slices.Insert(db.nodes, at, *n)
	}
	return db, nil
}

// index returns the position of node nm in db.nodes, or where it would
// be inserted, and whether it is present. A database holds a handful of
// nodes, so a scan beats a search.
func (db *DB) index(nm int) (int, bool) {
	for i := range db.nodes {
		if nm <= db.nodes[i].Nm {
			return i, nm == db.nodes[i].Nm
		}
	}
	return len(db.nodes), false
}

// Get returns the node with the given size in nm.
func (db *DB) Get(nm int) (*Node, error) {
	i, ok := db.index(nm)
	if !ok {
		return nil, fmt.Errorf("tech: unsupported node %dnm (supported: %v)", nm, db.Sizes())
	}
	return &db.nodes[i], nil
}

// MustGet is Get that panics on unknown nodes. It is intended for
// experiment code whose node lists are compile-time constants.
func (db *DB) MustGet(nm int) *Node {
	n, err := db.Get(nm)
	if err != nil {
		panic(err)
	}
	return n
}

// Sizes returns the supported node sizes in ascending order.
func (db *DB) Sizes() []int {
	sizes := make([]int, len(db.nodes))
	for i := range db.nodes {
		sizes[i] = db.nodes[i].Nm
	}
	return sizes
}

// Has reports whether the database contains the node.
func (db *DB) Has(nm int) bool {
	_, ok := db.index(nm)
	return ok
}

// Clone returns a deep copy of the database with the mutate function
// applied to every node. Mutated values are clamped back into the
// Table I ranges by the caller's mutate function or rejected here by
// re-validation — Clone never lets an out-of-model database escape.
// It is the supported way to run what-if analyses (e.g. sensitivity
// sweeps) without touching the shared Default() database.
func (db *DB) Clone(mutate func(*Node)) (*DB, error) {
	nodes := slices.Clone(db.nodes)
	if mutate != nil {
		for i := range nodes {
			mutate(&nodes[i])
		}
	}
	return NewDB(nodes)
}

// Sandbox is a private, reusable deep copy of a database for repeated
// what-if perturbation. Clone allocates a fresh database (and re-validates
// every node) per call, which is fine for a handful of tornado factors but
// dominates the per-sample cost of a compiled Monte Carlo run; a Sandbox
// is cloned once and then Reset per sample.
//
// A Sandbox is NOT safe for concurrent use; give each worker its own.
type Sandbox struct {
	src *DB
	db  *DB
}

// NewSandbox returns a sandbox over a deep copy of the database.
func (db *DB) NewSandbox() *Sandbox {
	clone, err := db.Clone(nil)
	if err != nil {
		// A database that validated at construction re-validates cleanly
		// under the identity mutation.
		panic(err)
	}
	return &Sandbox{src: db, db: clone}
}

// Reset restores the nodes of the listed sizes to the source database's
// parameters, applies mutate to each (exactly as Clone would), and
// returns the sandbox database. Other nodes keep what they hold: the
// source's parameters, unless an earlier Reset listed them; sizes the
// database lacks are ignored. A caller that reads only a few nodes —
// a compiled plan reads its chiplets' — lists just those. Unlike Clone
// it allocates nothing and skips re-validation — it is the per-sample
// hot path of compiled Monte Carlo evaluation — so the caller's mutate
// owns keeping parameters in range (see Clamp). The returned DB aliases
// the sandbox's private nodes and is only valid until the next Reset.
func (sb *Sandbox) Reset(sizes []int, mutate func(*Node)) *DB {
	for _, nm := range sizes {
		i, ok := sb.db.index(nm)
		if !ok {
			continue
		}
		sb.db.nodes[i] = sb.src.nodes[i]
		if mutate != nil {
			mutate(&sb.db.nodes[i])
		}
	}
	return sb.db
}

// Clamp bounds v into [lo, hi]; a convenience for Clone mutate functions
// that scale Table I parameters.
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
