package kernel

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"ecochip/internal/core"
	"ecochip/internal/descarbon"
	"ecochip/internal/engine"
	"ecochip/internal/floorplan"
	"ecochip/internal/mfg"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/tech"
)

// This file implements compiled parameter plans: the "tabulate the base
// point once, re-evaluate perturbations by recomputing only what they
// touched" backend of the tornado sensitivity and Monte Carlo
// uncertainty analyses.
//
// Both analyses evaluate one fixed system under small parameter
// perturbations — a cloned tech database with scaled defect density, a
// scaled design-effort knob, a different lifetime. The uncompiled path
// pays a full evaluation per perturbation: clone, re-validate,
// re-floorplan, re-run every sub-model. But each perturbation leaves
// most sub-model inputs untouched:
//
//   - chiplet areas read only the node density table, which no supported
//     perturbation touches, so areas — and therefore the floorplan and
//     all package carbon — are invariant under node/mfg/design/volume
//     perturbations;
//   - mfg.Die reads the node's fab parameters and System.Mfg;
//   - descarbon.ChipletKg reads only the node's EDA productivity and
//     System.Design;
//   - the packaging communication cells read the chiplets' node fab
//     parameters for their carbon, and only node sizes, densities and
//     supply voltages for their router/PHY area and power; the rest of
//     C_HI reads areas and System.Packaging;
//   - amortizations are cheap divisions, recomputed whenever a cell is.
//
// CompileParams splits the base's chiplets into runs of identical dies
// (see sameDie) and tabulates each run's model steps once: its area, the
// wafer geometry and die carbon, the design hours and carbon, the
// amortization volume and the finished cell. It also tabulates the
// packaging estimate, each node run's router or PHY endpoint
// (pkgcarbon.RoutingTable) and the communication fabric's design hours.
// A Dirty set names the parameter groups a perturbation touched, and
// Eval walks the runs calling the model steps directly — mfg.Carbon (and
// mfg.Place only when the area or wafer inputs moved),
// descarbon.HoursKg (and TotalHours only when its inputs moved) — for
// exactly the sub-models those groups feed, serving everything else from
// the tabulation. Each cell is assembled by core.System.AssembleCell, the
// arithmetic CellFor and MonolithCell share, and added once per run
// member in chiplet order, so every float bit of the result is the
// uncompiled path's. The randomized equivalence tests in
// internal/sensitivity and internal/uncertainty guard the dirty-set
// mapping itself: if a new sub-model dependency ever violates an
// invariance assumed here, those tests break before any analysis result
// can drift.

// Dirty flags name the parameter groups one perturbed evaluation
// touched relative to the plan's base point. An empty set re-derives the
// base point entirely from the tabulation.
type Dirty uint8

const (
	// DirtyNodes marks perturbed per-node FAB parameters (defect
	// density, EPA, gas/material CFP, equipment efficiency),
	// invalidating die manufacturing results and the packaging
	// communication cells. It does NOT cover a node's EDAProductivity,
	// which only the design-carbon model reads (a perturbation touching
	// it must also set DirtyDesign), nor a node's Density table, which
	// moves chiplet areas and needs DirtyAreas. The perturbed database
	// holds the same node sizes as the base's (db.Clone and
	// Scratch.PerturbNodes keep them). Nor does it cover a node's Vdd,
	// which only router power reads: the plan tabulates each node's
	// router power, so a perturbation touching Vdd must also set
	// DirtyPackaging.
	DirtyNodes Dirty = 1 << iota
	// DirtyMfg marks a changed System.Mfg (fab carbon intensity, wafer,
	// alpha), invalidating die manufacturing results.
	DirtyMfg
	// DirtyDesign marks a changed System.Design (iterations, design
	// power, ...), invalidating per-chiplet design carbon and the
	// communication-fabric design share.
	DirtyDesign
	// DirtyPackaging marks a changed System.Packaging, invalidating the
	// packaging model's parameters but NOT the chiplet areas: when the
	// floorplan-shaping inputs (SpacingMM, FlexibleFloorplan) are
	// untouched, the evaluation reuses the base point's floorplan and
	// re-runs only the carbon model on top of it; a perturbation that
	// moves those inputs is detected by comparison with the base and
	// re-floorplans automatically.
	DirtyPackaging
	// DirtyAreas marks changed chiplet areas — a perturbed transistor
	// budget or node density table. It invalidates every per-chiplet
	// sub-model (die manufacturing, design carbon) and the whole C_HI
	// estimate including the floorplan.
	DirtyAreas
	// DirtyOperation marks a changed System.Operation. It invalidates
	// the scratch's operational-term memo, which otherwise trusts spec
	// pointer identity — required when a caller mutates one Spec in
	// place between evaluations (perturbers that allocate a fresh Spec
	// per evaluation, like the tornado factors, miss the memo anyway).
	DirtyOperation
	// DirtyVolume marks changed amortization volumes (SystemVolume,
	// ManufacturedParts). Eval then re-derives the runs from the
	// perturbed chiplets and recomputes their amortizations, which an
	// evaluation disjoint from cellDirty serves with the tabulated
	// cells: a volume perturbation must set it.
	DirtyVolume
)

// cellDirty names the parameter groups that invalidate some field of a
// tabulated die cell. A dirty set disjoint from it lets Eval add each
// run's tabulated cell instead of re-running its steps.
const cellDirty = DirtyNodes | DirtyMfg | DirtyDesign | DirtyAreas | DirtyVolume

// ParamStats counts the work a parameter plan performed; CLIs surface it
// under -progress. Each scratch counts its own evaluations; the counts
// reach the plan's Stats when the scratch is released (ParamPlan.Fold,
// the release hook of the plan's batch runs and pools).
type ParamStats struct {
	// Evals is the number of perturbed points evaluated.
	Evals uint64
	// DieRecomputes / DieTableHits split an evaluation's die cells into
	// recomputed (the die carbon step re-ran) and served-from-table. A
	// run of chiplets identical in every cell input (see sameDie) shares
	// one cell, which counts once: on EPYC-8 a node-dirty sample counts
	// 2 recomputes (one CCD run, one IOD), not 9.
	DieRecomputes, DieTableHits uint64
	// DesignRecomputes / DesignTableHits split the design-carbon steps
	// the same way: one per run of non-reused chiplets (a monolith's
	// merged die included) and one for the communication fabric.
	DesignRecomputes, DesignTableHits uint64
	// PackageEstimates counts full packaging re-estimates (floorplan and
	// all); FloorplanReuses counts packaging-dirty re-estimates served
	// on the base point's retained floorplan; RoutingRefreshes counts
	// communication-only refreshes over the tabulated package carbon.
	PackageEstimates, FloorplanReuses, RoutingRefreshes uint64
}

// String renders the stats as the one-line summary CLIs print under
// -progress (the single source of the format, so surfaces cannot drift).
func (s ParamStats) String() string {
	return fmt.Sprintf("param plan: %d evals; die %d recomputed / %d from table, design %d recomputed / %d from table, %d package re-estimates, %d floorplan reuses, %d routing refreshes",
		s.Evals, s.DieRecomputes, s.DieTableHits, s.DesignRecomputes, s.DesignTableHits, s.PackageEstimates, s.FloorplanReuses, s.RoutingRefreshes)
}

// add accumulates o into s.
func (s *ParamStats) add(o ParamStats) {
	s.Evals += o.Evals
	s.DieRecomputes += o.DieRecomputes
	s.DieTableHits += o.DieTableHits
	s.DesignRecomputes += o.DesignRecomputes
	s.DesignTableHits += o.DesignTableHits
	s.PackageEstimates += o.PackageEstimates
	s.FloorplanReuses += o.FloorplanReuses
	s.RoutingRefreshes += o.RoutingRefreshes
}

// ParamPlan is a compiled parameter-perturbation plan: the base system
// validated once and every expensive pure sub-result of its evaluation —
// each run's die manufacturing result and design carbon, the packaging
// estimate, the routing endpoints, the communication-fabric design
// carbon — tabulated for reuse across perturbed evaluations. A plan is
// immutable after CompileParams and safe for concurrent use; per-worker
// mutable state lives in the Scratch.
type ParamPlan struct {
	base     *core.System
	db       *tech.DB
	monolith bool

	// runs are the base's runs of identical chiplets in chiplet order
	// (a monolith: one run, its merged die), and runOf maps each chiplet
	// to its run. An evaluation that re-derives runs from perturbed
	// chiplets serves a new run's untouched steps from the base run of
	// its first member.
	runs  []dieRun
	runOf []int
	// comm is the communication fabric's design-hours row, commKg its
	// design carbon and commShare that carbon amortized over the system
	// volume.
	comm      hoursRow
	commKg    float64
	commShare float64
	pkg       pkgSnapshot
	// pkgCh are the base packaging descriptors, which each scratch's
	// buffer starts from, and routing their tabulated routing
	// endpoints: a node-dirty evaluation re-runs only their carbon step.
	pkgCh   []pkgcarbon.Chiplet
	routing *pkgcarbon.RoutingTable
	// nodes are the sizes of the database nodes the plan reads: its
	// chiplets' nodes, each once. Scratch.PerturbNodes resets only
	// these, and a node-dirty evaluation checks only that the perturbed
	// database still holds them.
	nodes []int
	// fp is the base point's floorplan (nil for monoliths and 3D
	// stacks): packaging-dirty evaluations whose geometry inputs match
	// the base re-run the carbon model on top of it instead of
	// re-floorplanning. The Result is plan-owned and read-only.
	fp *floorplan.Result

	// totals holds the counters of every released scratch (Fold).
	mu     sync.Mutex
	totals ParamStats
}

// dieRun is one run of consecutive chiplets identical in every cell
// input (see sameDie) and the base tabulation of its die cell's model
// steps.
type dieRun struct {
	first, n int // the members: chiplets first .. first+n-1
	// cell is the base cell; its Node and AreaMM2 are the run's node in
	// the base database and its area.
	cell core.DieCell
	// m is the base die result: mfg.Carbon on the geometry
	// mfg.Place(area, base.Mfg) returned, which serves while the area
	// and the wafer inputs match.
	m mfg.Result
	// hours and desKg are the base design hours and unamortized design
	// carbon (zero for a reused run).
	hours  hoursRow
	desKg  float64
	parts  int // the amortization volume
	reused bool
}

// pkgSnapshot is the tabulated base packaging result: every field of the
// estimate a perturbed evaluation may serve without re-floorplanning.
type pkgSnapshot struct {
	packageKg     float64
	hiKg          float64 // PackageKg + RoutingKg, summed once
	areaMM2       float64
	assemblyYield float64
	routerPowerW  float64
}

// hoursRow is one tabulated descarbon.TotalHours call: the inputs that
// vary by row (the plan's base Design supplies the rest) and the hours.
type hoursRow struct {
	gates, edaProductivity, hours float64
}

// newHoursRow runs descarbon.TotalHours and records its row.
func newHoursRow(gates float64, n *tech.Node, p descarbon.Params) hoursRow {
	return hoursRow{gates, n.EDAProductivity, descarbon.TotalHours(gates, n, p)}
}

// CompileParams validates the base (system, database) pair once and
// tabulates every expensive pure sub-result of its evaluation. Errors a
// base evaluation would hit surface here.
func CompileParams(base *core.System, db *tech.DB) (*ParamPlan, error) {
	if err := base.Validate(db); err != nil {
		return nil, err
	}
	nc := len(base.Chiplets)
	p := &ParamPlan{base: base, db: db, monolith: base.Monolithic || nc == 1, runOf: make([]int, nc)}
	for _, c := range base.Chiplets {
		if !slices.Contains(p.nodes, c.NodeNm) {
			p.nodes = append(p.nodes, c.NodeNm)
		}
	}
	if p.monolith {
		node := db.MustGet(base.Chiplets[0].NodeNm)
		area, gates := base.MonolithDie(node)
		r, err := compileRun(base, node, area, gates, base.Volume(), false, nil)
		if err != nil {
			return nil, err
		}
		r.n = 1
		p.runs = []dieRun{r}
		return p, nil
	}
	p.pkgCh = make([]pkgcarbon.Chiplet, nc)
	for i := range base.Chiplets {
		c := &base.Chiplets[i]
		if i > 0 && sameDie(c, &base.Chiplets[i-1]) {
			p.runs[len(p.runs)-1].n++
		} else {
			node := db.MustGet(c.NodeNm)
			r, err := compileRun(base, node, node.Area(c.Type, c.Transistors), chipletGates(c), chipletParts(c), c.Reused, c)
			if err != nil {
				return nil, err
			}
			r.first, r.n = i, 1
			p.runs = append(p.runs, r)
		}
		p.runOf[i] = len(p.runs) - 1
		cell := &p.runs[len(p.runs)-1].cell
		p.pkgCh[i] = pkgcarbon.Chiplet{Name: c.Name, AreaMM2: cell.AreaMM2, Node: cell.Node}
	}
	pkg, err := pkgcarbon.Estimate(p.pkgCh, base.Packaging)
	if err != nil {
		return nil, err
	}
	p.fp = pkg.Floorplan // package-level Estimate allocates fresh: safe to retain
	p.pkg = pkgSnapshot{
		packageKg:     pkg.PackageKg,
		hiKg:          pkg.TotalKg(),
		areaMM2:       pkg.PackageAreaMM2,
		assemblyYield: pkg.AssemblyYield,
		routerPowerW:  pkg.RouterTotalPowerW,
	}
	if p.routing, err = pkgcarbon.NewRoutingTable(p.pkgCh, base.Packaging); err != nil {
		return nil, err
	}
	// The communication fabric's design carbon: CommDesignShareKg's
	// steps, with the hours tabulated.
	gates, err := base.CommGates(nc)
	if err != nil {
		return nil, err
	}
	p.comm = newHoursRow(gates, p.runs[0].cell.Node, base.Design)
	p.commKg = descarbon.HoursKg(p.comm.hours, base.Design)
	p.commShare = p.commKg / float64(base.Volume())
	return p, nil
}

// compileRun tabulates one run's model steps on the validated base:
// mfg.Die and descarbon.ChipletKg as their unvalidated steps, then the
// cell. c names the chiplet for errors (nil for a monolith's merged
// die, whose errors MonolithCell leaves unwrapped).
func compileRun(base *core.System, node *tech.Node, area, gates float64, parts int, reused bool, c *core.Chiplet) (dieRun, error) {
	g, err := mfg.Place(area, base.Mfg)
	if err != nil {
		return dieRun{}, dieError(c, err)
	}
	r := dieRun{m: mfg.Carbon(node, area, g, base.Mfg), parts: parts, reused: reused}
	if !reused {
		r.hours = newHoursRow(gates, node, base.Design)
		r.desKg = descarbon.HoursKg(r.hours.hours, base.Design)
	}
	if err := base.AssembleCell(&r.cell, node, area, &r.m, r.desKg, parts, reused); err != nil {
		return dieRun{}, err
	}
	return r, nil
}

// dieError wraps a die-step error as CellFor does for chiplet c, or
// leaves it unwrapped for a monolith's merged die (c nil).
func dieError(c *core.Chiplet, err error) error {
	if c == nil {
		return err
	}
	return c.DieError(err)
}

// chipletGates is the gate count a chiplet's design carbon covers (none
// for a reused chiplet), as CellFor derives it.
func chipletGates(c *core.Chiplet) float64 {
	if c.Reused {
		return 0
	}
	return descarbon.GatesFromTransistors(c.Transistors)
}

// chipletParts is a chiplet's amortization volume, as CellFor resolves
// it.
func chipletParts(c *core.Chiplet) int {
	if c.ManufacturedParts == 0 {
		return core.DefaultVolume
	}
	return c.ManufacturedParts
}

// Stats snapshots the plan's work counters (cumulative across runs).
// It counts the evaluations of released scratches only: Walk and the
// Monte Carlo runner release theirs before returning, and a caller that
// drives Eval on its own scratch calls Fold (or returns it to a
// ScratchPool released by Fold) first.
func (p *ParamPlan) Stats() ParamStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.totals
}

// Fold releases a scratch's counters: it adds them into the plan's
// totals and zeroes them, so a scratch folded again later adds only its
// new work. It is the release hook of the plan's batch runs
// (engine.RunScratchRelease, or a ScratchPool built with it), the same
// idiom as the sweep scratches' FoldMemo and FoldFloorplan.
func (p *ParamPlan) Fold(sc *Scratch) {
	p.mu.Lock()
	p.totals.add(sc.stats)
	p.mu.Unlock()
	sc.stats = ParamStats{}
}

// NewScratch builds a per-worker arena for evaluating this plan.
func (p *ParamPlan) NewScratch() (*Scratch, error) {
	return &Scratch{
		plan:  p,
		pkgCh: slices.Clone(p.pkgCh),
		nodes: make([]*tech.Node, len(p.runs)),
	}, nil
}

// sameDie reports whether two chiplets give CellFor the same inputs:
// every field but Name, which only labels errors.
func sameDie(a, b *core.Chiplet) bool {
	return a.Type == b.Type && a.Transistors == b.Transistors && a.NodeNm == b.NodeNm &&
		a.ManufacturedParts == b.ManufacturedParts && a.Reused == b.Reused
}

// Walk evaluates n perturbed points against the plan through the batch
// engine, returning their Totals indexed by point. apply builds point
// k's perturbed (system, database, dirty) triple — for untouched groups
// it returns the base values, and dirty declares what it touched, with
// Eval's contract — using the worker's scratch for any per-evaluation
// buffers (PerturbNodes). Each worker drives a private scratch across
// every point it evaluates, so custom perturbation studies inherit the
// plan's scratch reuse and tabulated run walk without driving
// engine.RunScratchRelease themselves; the tornado analysis runs on this
// same runner. Each worker's counters are folded into Stats when it
// finishes.
func (p *ParamPlan) Walk(ctx context.Context, n int, apply func(k int, sc *Scratch) (*core.System, *tech.DB, Dirty, error), opts ...engine.Option) ([]Totals, error) {
	return engine.RunScratchRelease(ctx, n,
		p.NewScratch, p.Fold,
		func(_ context.Context, k int, sc *Scratch) (Totals, error) {
			s, db, dirty, err := apply(k, sc)
			if err != nil {
				return Totals{}, err
			}
			return p.Eval(sc, s, db, dirty)
		}, opts...)
}

// Eval evaluates one perturbed (system, database) pair against the plan:
// s and db are the perturbed descriptors (for untouched groups, pass the
// base values), and dirty names the parameter groups the perturbation
// touched. The result carries the exact float bits of
// s.Evaluate(db) — sub-models whose inputs the dirty set leaves
// untouched are served from the base tabulation, everything else is
// recomputed through the model steps the direct evaluation runs.
// The contract is only as good as the dirty declaration: an under-declared
// set (see the flag docs for which node fields belong to which group)
// silently serves stale sub-results, so new perturbation kinds need a
// parity test against the direct evaluation, like the ones guarding the
// tornado factors and Monte Carlo sampling.
//
// Validation follows the dirty set too: Eval re-checks only the groups
// it names, in System.Validate's order, so an invalid perturbation
// returns exactly s.Validate(db)'s error (see validate). The steps it
// re-runs then skip their own parameter checks: mfg.Die and
// descarbon.ChipletKg run as their unvalidated steps, and the routing
// refresh keeps the base's validated packaging.
func (p *ParamPlan) Eval(sc *Scratch, s *core.System, db *tech.DB, dirty Dirty) (Totals, error) {
	if err := p.validate(s, db, dirty); err != nil {
		return Totals{}, err
	}
	sc.stats.Evals++
	bm, bd := &p.base.Mfg, &p.base.Design
	st := steps{
		s:        s,
		clean:    dirty&cellDirty == 0,
		die:      dirty&(DirtyNodes|DirtyMfg|DirtyAreas) != 0,
		des:      dirty&(DirtyDesign|DirtyAreas) != 0,
		geometry: s.Mfg.Wafer == bm.Wafer && s.Mfg.IncludeWastage == bm.IncludeWastage,
		hours: s.Design.Iterations == bd.Iterations && s.Design.VerifShare == bd.VerifShare &&
			s.Design.AnalyzeFactor == bd.AnalyzeFactor,
	}
	var t Totals
	t.AssemblyYield = 1
	var node0 *tech.Node // the first chiplet's node, which hosts the fabric
	var err error
	if dirty&(DirtyAreas|DirtyVolume) != 0 {
		node0, err = sc.rederive(&st, db, &t)
	} else {
		node0, err = sc.walkRuns(&st, db, &t)
	}
	if err != nil {
		return Totals{}, err
	}
	if !p.monolith {
		switch {
		case dirty&(DirtyAreas|DirtyPackaging) != 0:
			// The packaging estimate must re-run. With areas intact and
			// the geometry inputs (spacing, flexible shapes) matching
			// the base, the base floorplan is still exactly what a
			// fresh plan would produce, so only the carbon model re-runs
			// on top of it; area or geometry perturbations re-floorplan
			// fully, like the uncompiled path does.
			reuseFP := dirty&DirtyAreas == 0 && p.fp != nil &&
				s.Packaging.SpacingMM == p.base.Packaging.SpacingMM &&
				s.Packaging.FlexibleFloorplan == p.base.Packaging.FlexibleFloorplan
			var pkg *pkgcarbon.Result
			if reuseFP {
				sc.stats.FloorplanReuses++
				pkg, err = pkgcarbon.EstimateOnFloorplan(sc.pkgCh, s.Packaging, p.fp)
			} else {
				sc.stats.PackageEstimates++
				pkg, err = pkgcarbon.Estimate(sc.pkgCh, s.Packaging)
			}
			if err != nil {
				return Totals{}, err
			}
			t.HIKg = pkg.TotalKg()
			t.PackageAreaMM2 = pkg.PackageAreaMM2
			t.AssemblyYield = pkg.AssemblyYield
			t.RouterPowerW = pkg.RouterTotalPowerW
		case dirty&DirtyNodes != 0:
			// Only node parameters changed: areas — and with them the
			// floorplan, package carbon and assembly yield — are intact;
			// refresh just the node-dependent communication cells.
			sc.stats.RoutingRefreshes++
			r := p.routing.Routing(sc.pkgCh)
			t.HIKg = p.pkg.packageKg + r.RoutingKg
			t.PackageAreaMM2 = p.pkg.areaMM2
			t.AssemblyYield = p.pkg.assemblyYield
			t.RouterPowerW = r.RouterTotalPowerW
		default:
			t.HIKg = p.pkg.hiKg
			t.PackageAreaMM2 = p.pkg.areaMM2
			t.AssemblyYield = p.pkg.assemblyYield
			t.RouterPowerW = p.pkg.routerPowerW
		}
		share, err := sc.commShare(&st, node0, dirty)
		if err != nil {
			return Totals{}, err
		}
		t.DesignKg += share
	}
	if s.Operation != nil {
		if dirty&DirtyOperation != 0 {
			// The caller may have mutated the spec in place; pointer
			// identity no longer proves the memo is current.
			sc.op.valid = false
		}
		op, err := sc.op.lifetimeKg(s.Operation, t.RouterPowerW)
		if err != nil {
			return Totals{}, err
		}
		t.OperationalKg = op
	}
	return t, nil
}

// steps is one evaluation's view of the tabulated model steps: which
// ones re-run, and which tabulated inputs still hold.
type steps struct {
	s *core.System
	// clean: no cell input moved, so every run's tabulated cell holds.
	clean bool
	// die / des: the die carbon / design carbon step re-runs.
	die, des bool
	// geometry: the wafer inputs match the base, so a run's tabulated
	// wafer geometry holds while its area does.
	geometry bool
	// hours: the design-effort inputs match the base, so a tabulated
	// hours row holds while its gates and EDA productivity do.
	hours bool
}

// walkRuns adds the cells of the plan's own runs into t, in chiplet
// order, for an evaluation whose chiplets are the base's. It returns
// the first run's node.
func (sc *Scratch) walkRuns(st *steps, db *tech.DB, t *Totals) (*tech.Node, error) {
	p := sc.plan
	if st.clean {
		for k := range p.runs {
			b := &p.runs[k]
			sc.stats.DieTableHits++
			if !b.reused {
				sc.stats.DesignTableHits++
			}
			sc.add(t, &b.cell, st.s.Chiplets, b.first, b.n)
		}
		return p.runs[0].cell.Node, nil
	}
	nodes := sc.runNodes(db)
	var cell core.DieCell
	for k := range p.runs {
		b := &p.runs[k]
		var c *core.Chiplet
		if !p.monolith {
			c = &st.s.Chiplets[b.first]
		}
		if err := sc.cell(&cell, st, b, nodes[k], b.cell.AreaMM2, b.hours.gates, b.parts, b.reused, c); err != nil {
			return nil, err
		}
		sc.add(t, &cell, st.s.Chiplets, b.first, b.n)
	}
	return nodes[0], nil
}

// rederive adds the cells of an area- or volume-dirty evaluation into
// t: the runs of identical chiplets re-derived from s.Chiplets (a
// perturbation that scales one CCD splits EPYC's run), each cell's
// untouched steps served from the base run of its first member. It
// returns the first chiplet's node.
func (sc *Scratch) rederive(st *steps, db *tech.DB, t *Totals) (*tech.Node, error) {
	p, chiplets := sc.plan, st.s.Chiplets
	if p.monolith {
		node := db.MustGet(chiplets[0].NodeNm)
		area, gates := st.s.MonolithDie(node)
		var cell core.DieCell
		if err := sc.cell(&cell, st, &p.runs[0], node, area, gates, st.s.Volume(), false, nil); err != nil {
			return nil, err
		}
		sc.add(t, &cell, chiplets, 0, 1)
		return node, nil
	}
	var node0 *tech.Node
	var cell core.DieCell
	for i := 0; i < len(chiplets); {
		c := &chiplets[i]
		n := 1
		for i+n < len(chiplets) && sameDie(&chiplets[i+n], &chiplets[i+n-1]) {
			n++
		}
		node := db.MustGet(c.NodeNm)
		if i == 0 {
			node0 = node
		}
		if err := sc.cell(&cell, st, &p.runs[p.runOf[i]], node, node.Area(c.Type, c.Transistors), chipletGates(c), chipletParts(c), c.Reused, c); err != nil {
			return nil, err
		}
		sc.add(t, &cell, chiplets, i, n)
		i += n
	}
	return node0, nil
}

// cell evaluates one run's die cell into *dst from its inputs in this
// evaluation (node, area, design gates, amortization volume, reused
// flag), running the steps st names and serving the rest from the base
// run b. c names the run's first chiplet for errors (nil for a
// monolith).
func (sc *Scratch) cell(dst *core.DieCell, st *steps, b *dieRun, node *tech.Node, area, gates float64, parts int, reused bool, c *core.Chiplet) error {
	m := &b.m
	var fresh mfg.Result
	if st.die {
		sc.stats.DieRecomputes++
		g := mfg.Geometry{DiesPerWafer: b.m.DiesPerWafer, WastedAreaMM2: b.m.WastedAreaMM2}
		if !st.geometry || area != b.cell.AreaMM2 {
			var err error
			if g, err = mfg.Place(area, st.s.Mfg); err != nil {
				return dieError(c, err)
			}
		}
		fresh = mfg.Carbon(node, area, g, st.s.Mfg)
		m = &fresh
	} else {
		sc.stats.DieTableHits++
	}
	desKg := b.desKg
	if !reused {
		if st.des {
			sc.stats.DesignRecomputes++
			desKg = descarbon.HoursKg(st.hoursFor(&b.hours, gates, node), st.s.Design)
		} else {
			sc.stats.DesignTableHits++
		}
	}
	return st.s.AssembleCell(dst, node, area, m, desKg, parts, reused)
}

// hoursFor returns descarbon.TotalHours(gates, node, s.Design): the
// tabulated row's hours while its inputs hold.
func (st *steps) hoursFor(row *hoursRow, gates float64, node *tech.Node) float64 {
	if st.hours && gates == row.gates && node.EDAProductivity == row.edaProductivity {
		return row.hours
	}
	return descarbon.TotalHours(gates, node, st.s.Design)
}

// add adds a run's cell into t once per member, in chiplet order, and
// refreshes the members' packaging descriptors that changed.
func (sc *Scratch) add(t *Totals, cell *core.DieCell, chiplets []core.Chiplet, first, n int) {
	for i := first; i < first+n; i++ {
		t.MfgKg += cell.MfgKg
		t.DesignKg += cell.DesignKgAmortized
		t.NREKg += cell.NREKg
	}
	if sc.pkgCh == nil { // a monolith has no package
		t.PackageAreaMM2 = cell.AreaMM2
		return
	}
	for i := first; i < first+n; i++ {
		if pc := &sc.pkgCh[i]; pc.Node != cell.Node || pc.AreaMM2 != cell.AreaMM2 || pc.Name != chiplets[i].Name {
			*pc = pkgcarbon.Chiplet{Name: chiplets[i].Name, AreaMM2: cell.AreaMM2, Node: cell.Node}
		}
	}
}

// commShare returns the communication fabric's amortized design carbon,
// as CommDesignShareKg computes it with the fabric hosted on node0.
func (sc *Scratch) commShare(st *steps, node0 *tech.Node, dirty Dirty) (float64, error) {
	p := sc.plan
	if st.clean {
		sc.stats.DesignTableHits++
		return p.commShare, nil
	}
	kg := p.commKg
	if st.des {
		sc.stats.DesignRecomputes++
		gates := p.comm.gates
		if dirty&DirtyPackaging != 0 {
			var err error
			if gates, err = st.s.CommGates(len(st.s.Chiplets)); err != nil {
				return 0, err
			}
		}
		kg = descarbon.HoursKg(st.hoursFor(&p.comm, gates, node0), st.s.Design)
	} else {
		sc.stats.DesignTableHits++
	}
	return kg / float64(st.s.Volume()), nil
}

// runNodes returns db's node of each of the plan's runs. The lookups
// are cached while db is the scratch's last database: a sandbox from
// PerturbNodes keeps its node pointers for the scratch's lifetime.
func (sc *Scratch) runNodes(db *tech.DB) []*tech.Node {
	if db != sc.nodeDB {
		for k := range sc.plan.runs {
			sc.nodes[k] = db.MustGet(sc.plan.runs[k].cell.Node.Nm)
		}
		sc.nodeDB = db
	}
	return sc.nodes
}

// validate returns s.Validate(db)'s error while checking only the groups
// dirty names, in Validate's order: every other group equals the base,
// which CompileParams validated. Node parameters are not among
// Validate's checks; a node-dirty database only has to hold the plan's
// nodes, and when it does not, the chiplet checks name the first
// chiplet whose node is missing, as Validate would.
func (p *ParamPlan) validate(s *core.System, db *tech.DB, dirty Dirty) error {
	var c core.Checks
	if dirty&(DirtyAreas|DirtyVolume) != 0 {
		c |= core.CheckChiplets
	} else if dirty&DirtyNodes != 0 {
		for _, nm := range p.nodes {
			if !db.Has(nm) {
				c |= core.CheckChiplets
				break
			}
		}
	}
	if dirty&DirtyMfg != 0 {
		c |= core.CheckMfg
	}
	if dirty&DirtyDesign != 0 {
		c |= core.CheckDesign
	}
	if dirty&DirtyPackaging != 0 {
		c |= core.CheckPackaging
	}
	if dirty&DirtyOperation != 0 {
		c |= core.CheckOperation
	}
	return s.ValidateGroups(db, c)
}
