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
//     parameters; the rest of C_HI reads areas and System.Packaging;
//   - amortizations are cheap divisions, recomputed unconditionally.
//
// A Dirty set names the parameter groups a perturbation touched, and
// Eval recomputes exactly the sub-models those groups feed, serving
// everything else from the base tabulation through the core.Hooks seam of
// CellFor, MonolithCell and CommDesignShareKg — the calls Evaluate itself
// makes — so the assembly order (and every float bit) of the result is
// the uncompiled path's by construction. The randomized equivalence
// tests in internal/sensitivity and internal/uncertainty guard the
// dirty-set mapping itself: if a new sub-model dependency ever violates
// an invariance assumed here, those tests break before any analysis
// result can drift.

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
	// Scratch.PerturbNodes keep them).
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
	// ManufacturedParts). The per-chiplet sub-model walk recomputes
	// amortizations unconditionally — they are single divisions — but
	// the flag gates the tabulated-cell column fold (see cellDirty),
	// which serves amortized fields: a volume perturbation must set it.
	DirtyVolume
)

// cellDirty names the parameter groups that invalidate some field of a
// tabulated die cell. A dirty set disjoint from it lets Eval fold the
// base cells' metric columns directly instead of re-walking CellFor
// per chiplet.
const cellDirty = DirtyNodes | DirtyMfg | DirtyDesign | DirtyAreas | DirtyVolume

// ParamStats counts the work a parameter plan performed; CLIs surface it
// under -progress. Each scratch counts its own evaluations; the counts
// reach the plan's Stats when the scratch is released (ParamPlan.Fold,
// the release hook of the plan's batch runs and pools).
type ParamStats struct {
	// Evals is the number of perturbed points evaluated.
	Evals uint64
	// DieRecomputes / DieTableHits split mfg.Die calls into recomputed
	// (dirty) and served-from-table. A chiplet identical to its
	// predecessor in every CellFor input (see sameDie) shares the
	// predecessor's cell within one evaluation and makes no call, so it
	// counts as neither: on EPYC-8 a node-dirty sample counts 2
	// recomputes (one CCD run, one IOD), not 9.
	DieRecomputes, DieTableHits uint64
	// DesignRecomputes / DesignTableHits split descarbon.ChipletKg calls
	// (shared cells, as above, make none).
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
// per-chiplet manufacturing results and design carbon, the packaging
// estimate, the communication-fabric design carbon — tabulated for reuse
// across perturbed evaluations. A plan is immutable after CompileParams
// and safe for concurrent use; per-worker mutable state lives in the
// Scratch.
type ParamPlan struct {
	base     *core.System
	db       *tech.DB
	nc       int
	monolith bool

	// The base tabulation, served through the Hooks seam when a
	// perturbation's dirty set leaves the sub-model's inputs untouched.
	die    []mfg.Result // per chiplet (monolith: one merged row)
	des    []float64    // descarbon.ChipletKg per chiplet
	commKg float64      // ChipletKg of the communication fabric
	pkg    pkgSnapshot
	// hours are the rows' descarbon.TotalHours calls (commHours the
	// communication fabric's): a design-dirty evaluation serves a row's
	// hours while its inputs match, and recomputes only the carbon
	// step. die rows serve their wafer geometry the same way.
	hours     []hoursRow
	commHours hoursRow
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

	// cellMfg..cellNode are the struct-of-arrays columns of the base
	// point's die cells, and commShare the base communication design
	// share, captured by CompileParams. An evaluation whose dirty set is
	// disjoint from cellDirty folds these columns in chiplet order — the
	// same additions, in the same order, over the exact bits a clean
	// CellFor walk would reproduce — instead of re-walking the
	// per-chiplet sub-model seam.
	cellMfg, cellDes, cellNre, cellArea []float64
	cellNode                            []*tech.Node
	commShare                           float64
	// cleanDie / cleanDes are the table hits a clean CellFor walk of the
	// base would count (shared cells make no call), which the column
	// fold counts in its place.
	cleanDie, cleanDes uint64

	// totals holds the counters of every released scratch (Fold).
	mu     sync.Mutex
	totals ParamStats
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

// capture returns hooks that compute sub-models directly while recording
// each result into the plan's base tabulation at *row.
func (p *ParamPlan) capture(row *int) *core.Hooks {
	return &core.Hooks{
		Die: func(n *tech.Node, d tech.DesignType, areaMM2 float64, mp mfg.Params) (mfg.Result, error) {
			m, err := mfg.Die(n, d, areaMM2, mp)
			if err == nil {
				p.die[*row] = m
			}
			return m, err
		},
		ChipletKg: func(gates float64, n *tech.Node, dp descarbon.Params) (float64, error) {
			kg, err := descarbon.ChipletKg(gates, n, dp)
			if err != nil {
				return 0, err
			}
			h := hoursRow{gates, n.EDAProductivity, descarbon.TotalHours(gates, n, dp)}
			if *row == commRow {
				p.commKg, p.commHours = kg, h
			} else {
				p.des[*row], p.hours[*row] = kg, h
			}
			return kg, nil
		},
	}
}

// CompileParams validates the base (system, database) pair once and
// tabulates every expensive pure sub-result of its evaluation. Errors a
// base evaluation would hit surface here.
func CompileParams(base *core.System, db *tech.DB) (*ParamPlan, error) {
	if err := base.Validate(db); err != nil {
		return nil, err
	}
	nc := len(base.Chiplets)
	p := &ParamPlan{base: base, db: db, nc: nc, monolith: base.Monolithic || nc == 1}
	rows := nc
	if p.monolith {
		rows = 1
	}
	p.die = make([]mfg.Result, rows)
	p.des = make([]float64, rows)
	p.hours = make([]hoursRow, rows)
	for _, c := range base.Chiplets {
		if !slices.Contains(p.nodes, c.NodeNm) {
			p.nodes = append(p.nodes, c.NodeNm)
		}
	}
	cellCols := make([]float64, 4*rows)
	p.cellMfg = cellCols[0*rows : 1*rows]
	p.cellDes = cellCols[1*rows : 2*rows]
	p.cellNre = cellCols[2*rows : 3*rows]
	p.cellArea = cellCols[3*rows : 4*rows]
	p.cellNode = make([]*tech.Node, rows)

	row := 0
	rec := p.capture(&row)
	if p.monolith {
		cell, err := base.MonolithCell(db, base.Chiplets[0].NodeNm, rec)
		if err != nil {
			return nil, err
		}
		p.captureCell(0, &cell)
		return p, nil
	}
	chiplets := make([]pkgcarbon.Chiplet, nc)
	for i := range base.Chiplets {
		row = i
		cell, err := base.CellFor(db, base.Chiplets[i], base.Chiplets[i].NodeNm, rec)
		if err != nil {
			return nil, err
		}
		p.captureCell(i, &cell)
		chiplets[i] = pkgcarbon.Chiplet{Name: base.Chiplets[i].Name, AreaMM2: cell.AreaMM2, Node: cell.Node}
		if i == 0 || !sameDie(&base.Chiplets[i], &base.Chiplets[i-1]) {
			p.cleanDie++
			if !base.Chiplets[i].Reused {
				p.cleanDes++
			}
		}
	}
	p.cleanDes++ // the communication fabric's share
	pkg, err := pkgcarbon.Estimate(chiplets, base.Packaging)
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
	row = commRow
	share, err := base.CommDesignShareKg(db, base.Chiplets[0].NodeNm, nc, rec)
	if err != nil {
		return nil, err
	}
	p.commShare = share
	return p, nil
}

// captureCell records one base die cell's hot fields into the plan's
// metric columns.
func (p *ParamPlan) captureCell(i int, cell *core.DieCell) {
	p.cellMfg[i] = cell.MfgKg
	p.cellDes[i] = cell.DesignKgAmortized
	p.cellNre[i] = cell.NREKg
	p.cellArea[i] = cell.AreaMM2
	p.cellNode[i] = cell.Node
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
	st := &sc.hooks.stats
	p.mu.Lock()
	p.totals.add(*st)
	p.mu.Unlock()
	*st = ParamStats{}
}

// NewScratch builds a per-worker arena for evaluating this plan.
func (p *ParamPlan) NewScratch() (*Scratch, error) {
	sc := &Scratch{}
	sc.hooks.init(p)
	if !p.monolith {
		sc.pkgCh = make([]pkgcarbon.Chiplet, p.nc)
	}
	return sc, nil
}

// sameDie reports whether two chiplets give CellFor the same inputs:
// every field but Name, which only labels errors.
func sameDie(a, b *core.Chiplet) bool {
	return a.Type == b.Type && a.Transistors == b.Transistors && a.NodeNm == b.NodeNm &&
		a.ManufacturedParts == b.ManufacturedParts && a.Reused == b.Reused
}

// commRow is the hooks row of the communication-fabric design carbon.
const commRow = -1

// paramHooks serves the plan's base tabulation through the core.Hooks
// seam, recomputing a sub-model only when the current evaluation's dirty
// set invalidates it. row tracks which chiplet (or commRow) the enclosing
// CellFor / CommDesignShareKg call is evaluating. stats counts the
// scratch's work until Fold hands it to the plan: plain fields, not
// atomics shared by every worker.
type paramHooks struct {
	plan               *ParamPlan
	row                int
	dieDirty, desDirty bool
	h                  core.Hooks
	stats              ParamStats
}

func (ph *paramHooks) init(plan *ParamPlan) {
	ph.plan = plan
	ph.h = core.Hooks{Die: ph.die, ChipletKg: ph.chipletKg}
}

// die serves mfg.Die. Eval has validated p (see ParamPlan.validate), so
// a recompute runs only Die's two steps: the row's tabulated wafer
// geometry serves while the area and the wafer inputs match the base,
// and the carbon step re-runs on the perturbed node and fab parameters.
func (ph *paramHooks) die(n *tech.Node, _ tech.DesignType, areaMM2 float64, p mfg.Params) (mfg.Result, error) {
	row := &ph.plan.die[ph.row]
	if !ph.dieDirty {
		ph.stats.DieTableHits++
		return *row, nil
	}
	ph.stats.DieRecomputes++
	g := mfg.Geometry{DiesPerWafer: row.DiesPerWafer, WastedAreaMM2: row.WastedAreaMM2}
	if bp := &ph.plan.base.Mfg; areaMM2 != row.AreaMM2 || p.Wafer != bp.Wafer || p.IncludeWastage != bp.IncludeWastage {
		var err error
		if g, err = mfg.Place(areaMM2, p); err != nil {
			return mfg.Result{}, err
		}
	}
	return mfg.Carbon(n, areaMM2, g, p), nil
}

// chipletKg serves descarbon.ChipletKg the same way: p is validated,
// the row's tabulated hours serve while their inputs match, and the
// carbon step re-runs.
func (ph *paramHooks) chipletKg(gates float64, n *tech.Node, p descarbon.Params) (float64, error) {
	plan := ph.plan
	if !ph.desDirty {
		ph.stats.DesignTableHits++
		if ph.row == commRow {
			return plan.commKg, nil
		}
		return plan.des[ph.row], nil
	}
	ph.stats.DesignRecomputes++
	row := &plan.commHours
	if ph.row != commRow {
		row = &plan.hours[ph.row]
	}
	hours := row.hours
	if bd := &plan.base.Design; gates != row.gates || n.EDAProductivity != row.edaProductivity ||
		p.Iterations != bd.Iterations || p.VerifShare != bd.VerifShare || p.AnalyzeFactor != bd.AnalyzeFactor {
		hours = descarbon.TotalHours(gates, n, p)
	}
	return descarbon.HoursKg(hours, p), nil
}

// Walk evaluates n perturbed points against the plan through the batch
// engine, returning their Totals indexed by point. apply builds point
// k's perturbed (system, database, dirty) triple — for untouched groups
// it returns the base values, and dirty declares what it touched, with
// Eval's contract — using the worker's scratch for any per-evaluation
// buffers (PerturbNodes). Each worker drives a private scratch across
// every point it evaluates, so custom perturbation studies inherit the
// plan's scratch reuse and tabulated column folds without driving
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
// recomputed through the same code paths the direct evaluation runs.
// The contract is only as good as the dirty declaration: an under-declared
// set (see the flag docs for which node fields belong to which group)
// silently serves stale sub-results, so new perturbation kinds need a
// parity test against the direct evaluation, like the ones guarding the
// tornado factors and Monte Carlo sampling.
//
// Validation follows the dirty set too: Eval re-checks only the groups
// it names, in System.Validate's order, so an invalid perturbation
// returns exactly s.Validate(db)'s error (see validate). The sub-models
// it recomputes then skip their own parameter checks: mfg.Die and
// descarbon.ChipletKg run as their unvalidated steps, and
// pkgcarbon.EstimateRouting takes the base's validated packaging.
func (p *ParamPlan) Eval(sc *Scratch, s *core.System, db *tech.DB, dirty Dirty) (Totals, error) {
	if err := p.validate(s, db, dirty); err != nil {
		return Totals{}, err
	}
	ph := &sc.hooks
	ph.stats.Evals++
	ph.dieDirty = dirty&(DirtyNodes|DirtyMfg|DirtyAreas) != 0
	ph.desDirty = dirty&(DirtyDesign|DirtyAreas) != 0

	// An evaluation that touches no cell input folds the tabulated cell
	// columns directly: the clean CellFor walk would reproduce the base
	// cells bit for bit (every sub-model it runs is served from the
	// table, and the assembly arithmetic sees base inputs), so the fold
	// is the same additions in the same chiplet order over the same
	// bits. The table-hit counters advance exactly as the hook-served
	// walk would advance them (cleanDie / cleanDes).
	clean := dirty&cellDirty == 0

	var t Totals
	t.AssemblyYield = 1
	if p.monolith {
		if clean {
			ph.stats.DieTableHits++
			ph.stats.DesignTableHits++
			t.MfgKg = p.cellMfg[0]
			t.DesignKg = p.cellDes[0]
			t.NREKg = p.cellNre[0]
			t.PackageAreaMM2 = p.cellArea[0]
		} else {
			ph.row = 0
			cell, err := s.MonolithCell(db, s.Chiplets[0].NodeNm, &ph.h)
			if err != nil {
				return Totals{}, err
			}
			t.MfgKg = cell.MfgKg
			t.DesignKg = cell.DesignKgAmortized
			t.NREKg = cell.NREKg
			t.PackageAreaMM2 = cell.AreaMM2
		}
	} else {
		if clean {
			ph.stats.DieTableHits += p.cleanDie
			ph.stats.DesignTableHits += p.cleanDes
			cellDes := p.cellDes[:len(p.cellMfg)]
			cellNre := p.cellNre[:len(p.cellMfg)]
			for i, m := range p.cellMfg {
				t.MfgKg += m
				t.DesignKg += cellDes[i]
				t.NREKg += cellNre[i]
			}
			if dirty&DirtyPackaging != 0 {
				// The only clean branch below that reads the descriptor
				// buffer; areas and nodes are the tabulated base ones.
				for i := range s.Chiplets {
					sc.pkgCh[i] = pkgcarbon.Chiplet{Name: s.Chiplets[i].Name, AreaMM2: p.cellArea[i], Node: p.cellNode[i]}
				}
			}
		} else {
			// A run of identical chiplets (EPYC's CCDs) shares one cell:
			// CellFor is pure in the inputs sameDie compares plus s and
			// db, so the shared cell carries the bits each member's own
			// call would return, and the sums see them in chiplet order.
			var cell core.DieCell
			for i := range s.Chiplets {
				c := &s.Chiplets[i]
				if i == 0 || !sameDie(c, &s.Chiplets[i-1]) {
					ph.row = i
					var err error
					if cell, err = s.CellFor(db, *c, c.NodeNm, &ph.h); err != nil {
						return Totals{}, err
					}
				}
				t.MfgKg += cell.MfgKg
				t.DesignKg += cell.DesignKgAmortized
				t.NREKg += cell.NREKg
				sc.pkgCh[i] = pkgcarbon.Chiplet{Name: c.Name, AreaMM2: cell.AreaMM2, Node: cell.Node}
			}
		}
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
			var err error
			if reuseFP {
				ph.stats.FloorplanReuses++
				pkg, err = pkgcarbon.EstimateOnFloorplan(sc.pkgCh, s.Packaging, p.fp)
			} else {
				ph.stats.PackageEstimates++
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
			ph.stats.RoutingRefreshes++
			r, err := pkgcarbon.EstimateRouting(sc.pkgCh, s.Packaging)
			if err != nil {
				return Totals{}, err
			}
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
		if clean {
			t.DesignKg += p.commShare
		} else {
			ph.row = commRow
			share, err := s.CommDesignShareKg(db, s.Chiplets[0].NodeNm, len(s.Chiplets), &ph.h)
			if err != nil {
				return Totals{}, err
			}
			t.DesignKg += share
		}
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
