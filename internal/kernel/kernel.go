// Package kernel is the compiled-evaluation core shared by every
// design-space workflow: node sweeps (internal/explore), tornado
// sensitivity (internal/sensitivity) and Monte Carlo uncertainty
// (internal/uncertainty) all reduce to "evaluate many systems that differ
// from a compiled base in a known, small way", and this package owns the
// machinery that makes those evaluations allocation-free and
// bit-identical to the one-off core.System.Evaluate path:
//
//   - Table: the dense per-(chiplet, node) invariant table of a node
//     sweep — core.DieCell rows plus die dollar cost, NRE cost and the
//     communication design share — built through the same core seam
//     (CellFor / MonolithCell) that Evaluate itself uses, so bit-identity
//     holds by construction.
//   - Scratch: one worker's reusable arena — the packaging estimator
//     (pkgcarbon.Estimator with its memoized floorplan tree, whose
//     single-changed-chiplet delta path the Gray-code sweep walk drives
//     through EstimatePackageDelta), chiplet descriptor buffer,
//     operational-term memo and the tech.Sandbox for per-sample node
//     perturbation.
//   - ParamPlan: a compiled plan keyed by perturbed *tech.Node / system
//     parameters. It tabulates every sub-result of the base point once
//     and re-evaluates perturbations by recomputing only the sub-models
//     a Dirty set names, serving everything else from the table through
//     the core.Hooks seam.
//
// The contract everywhere is bit-identity: a compiled evaluation returns
// the exact float bits of the uncompiled reference path (guarded by
// randomized equivalence tests in the client packages), so callers can
// switch paths freely for speed without perturbing a single result.
package kernel

import (
	"fmt"

	"ecochip/internal/floorplan"
	"ecochip/internal/opcarbon"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/tech"
)

// Totals is one design point reduced in the canonical core.Report order;
// the field and expression order mirror Report exactly so the sums carry
// the same float bits.
type Totals struct {
	// MfgKg, DesignKg, HIKg, NREKg, OperationalKg are the Report terms.
	MfgKg, DesignKg, HIKg, NREKg, OperationalKg float64
	// PackageAreaMM2 is the substrate/die footprint.
	PackageAreaMM2 float64
	// AssemblyYield is the package-level yield divisor (1 for monoliths).
	AssemblyYield float64
	// RouterPowerW is the communication power fed to the operational model.
	RouterPowerW float64
}

// EmbodiedKg returns C_emb exactly as core.Report.EmbodiedKg computes it.
func (t Totals) EmbodiedKg() float64 { return t.MfgKg + t.DesignKg + t.HIKg + t.NREKg }

// TotalKg returns C_tot exactly as core.Report.TotalKg computes it.
func (t Totals) TotalKg() float64 { return t.EmbodiedKg() + t.OperationalKg }

// Scratch is one worker's reusable evaluation arena. It is NOT safe for
// concurrent use: batch engines build one per worker goroutine
// (engine.RunScratch / engine.RunBlocks) and reuse it across every point
// the worker evaluates.
type Scratch struct {
	pkgCh []pkgcarbon.Chiplet
	est   *pkgcarbon.Estimator // sweep scratches only; nil for param plans

	hooks paramHooks    // param-plan scratches only
	sb    *tech.Sandbox // lazy; built on first PerturbNodes
	db    *tech.DB      // sandbox source (the plan's database)

	// Last-value memo for the operational term: its input (spec, router
	// power) is constant across whole sweeps and across all samples /
	// node-side factors of a parameter plan.
	opSpec   *opcarbon.Spec
	opValid  bool
	opPowerW float64
	opKg     float64

	// fpFolded is the floorplan-stats snapshot already folded into a
	// ScratchPool's totals (see ScratchPool.Put).
	fpFolded floorplan.TreeStats

	// Per-point package memo (sweep scratches). A compiled point's
	// package estimate is pure in the point's digit vector, so once a
	// scratch has estimated a point it can serve the folded quadruple
	// (PkgPoint) by the point's mixed-radix index and skip the estimator
	// — the serving shape of a re-walked plan, and the same retained-
	// state idea as the estimator's warm floorplan tree, one level up.
	// Slot keys hold index+1 so the zero value means empty; when the
	// point space outgrows the slot table the index hashes to a
	// direct-mapped slot and a collision simply recomputes (the memo
	// serves the estimator's own prior output, so it cannot change a
	// bit either way). Lazy: sized by the first StorePackagePoint.
	pkgPtKeys []uint64
	pkgPtVals []PkgPoint
	pkgPtSpan uint64 // point-space size the slots were sized for
	pkgPtLive int    // occupied slots (gauge; resets with the table)
	pkgPtStat PkgMemoStats
}

// PkgMemoStats counts the traffic of the per-point package memo. The
// interesting counter is Collisions: lookups that missed because the
// direct-mapped slot was occupied by a different point index, i.e. the
// recomputes an eviction policy could win back. ROADMAP flags possible
// pathological collision patterns under serving workloads; this makes
// them observable before any policy is built.
type PkgMemoStats struct {
	// Hits is the number of points served straight from the memo.
	Hits uint64
	// Misses is the number of lookups that found no entry (cold slots,
	// unsized tables and span changes included).
	Misses uint64
	// Collisions is the subset of Misses whose slot held a different
	// point index — a recompute forced purely by the direct-mapped
	// layout.
	Collisions uint64
	// Fills is the number of stores that claimed an empty slot. Fills
	// bounded well below the slot count means the workload's working
	// set fits the table and Collisions noise is hash-induced, not
	// capacity-induced.
	Fills uint64
	// Evictions is the number of stores that overwrote a live entry of
	// a different point index — the direct-mapped table's forced
	// evictions. A serving workload whose Evictions grow linearly with
	// traffic is thrashing the memo (the pathological collision pattern
	// ROADMAP flagged) and would benefit from a larger or associative
	// table.
	Evictions uint64
}

// Add accumulates o into s.
func (s *PkgMemoStats) Add(o PkgMemoStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Collisions += o.Collisions
	s.Fills += o.Fills
	s.Evictions += o.Evictions
}

// Delta returns the counters accumulated since prev was snapshotted.
func (s PkgMemoStats) Delta(prev PkgMemoStats) PkgMemoStats {
	return PkgMemoStats{
		Hits:       s.Hits - prev.Hits,
		Misses:     s.Misses - prev.Misses,
		Collisions: s.Collisions - prev.Collisions,
		Fills:      s.Fills - prev.Fills,
		Evictions:  s.Evictions - prev.Evictions,
	}
}

// PkgMemoStats snapshots the scratch's per-point package-memo counters.
func (sc *Scratch) PkgMemoStats() PkgMemoStats { return sc.pkgPtStat }

// PkgPoint is the package-term quadruple one compiled sweep point folds
// into its totals: heterogeneous-integration carbon, package area,
// assembly yield and router power, exactly as returned by the package
// estimate of the point's digit vector.
type PkgPoint struct {
	HIKg, AreaMM2, AssemblyYield, RouterPowerW float64
}

// pkgPointSlotBits caps the per-point memo at 1<<pkgPointSlotBits slots
// (4096 × 40 B ≈ 160 KiB per worker scratch); larger point spaces share
// slots through the hash below.
const pkgPointSlotBits = 12

// pkgPointSlot maps a point index to its memo slot: the identity when
// the whole point space fits, a Fibonacci-hashed direct-mapped slot
// otherwise.
func pkgPointSlot(idx, span uint64) uint64 {
	if span <= 1<<pkgPointSlotBits {
		return idx
	}
	return idx * 0x9e3779b97f4a7c15 >> (64 - pkgPointSlotBits)
}

// LoadPackagePoint returns the memoized package quadruple of point
// index idx in a span-point space, if this scratch has estimated that
// exact point before.
func (sc *Scratch) LoadPackagePoint(idx, span uint64) (PkgPoint, bool) {
	if sc.pkgPtSpan != span || len(sc.pkgPtKeys) == 0 {
		sc.pkgPtStat.Misses++
		return PkgPoint{}, false
	}
	slot := pkgPointSlot(idx, span)
	if key := sc.pkgPtKeys[slot]; key != idx+1 {
		sc.pkgPtStat.Misses++
		if key != 0 {
			sc.pkgPtStat.Collisions++
		}
		return PkgPoint{}, false
	}
	sc.pkgPtStat.Hits++
	return sc.pkgPtVals[slot], true
}

// StorePackagePoint memoizes the package quadruple of point index idx
// in a span-point space, sizing (or resizing) the slot table on first
// use.
func (sc *Scratch) StorePackagePoint(idx, span uint64, v PkgPoint) {
	if sc.pkgPtSpan != span || len(sc.pkgPtKeys) == 0 {
		n := span
		if n > 1<<pkgPointSlotBits {
			n = 1 << pkgPointSlotBits
		}
		sc.pkgPtKeys = make([]uint64, n)
		sc.pkgPtVals = make([]PkgPoint, n)
		sc.pkgPtSpan = span
		sc.pkgPtLive = 0
	}
	slot := pkgPointSlot(idx, span)
	switch key := sc.pkgPtKeys[slot]; {
	case key == 0:
		sc.pkgPtStat.Fills++
		sc.pkgPtLive++
	case key != idx+1:
		sc.pkgPtStat.Evictions++
	}
	sc.pkgPtKeys[slot] = idx + 1
	sc.pkgPtVals[slot] = v
}

// PkgMemoOccupancy reports the point memo's live entry count against
// its slot capacity — a residency gauge (not a monotone counter, so it
// lives beside PkgMemoStats rather than in it). A memo near capacity
// with growing Evictions is the thrashing signature serving workloads
// watch for.
func (sc *Scratch) PkgMemoOccupancy() (occupied, capacity int) {
	return sc.pkgPtLive, len(sc.pkgPtKeys)
}

// NewSweepScratch builds the per-worker arena of a compiled node sweep:
// a chiplet descriptor buffer for nc dies and, when pkg is non-nil (the
// multi-chiplet path), a packaging estimator over the fixed parameters.
func NewSweepScratch(pkg *pkgcarbon.Params, nc int) (*Scratch, error) {
	sc := &Scratch{}
	if pkg != nil {
		est, err := pkgcarbon.NewEstimator(*pkg)
		if err != nil {
			return nil, err
		}
		sc.est = est
		sc.pkgCh = make([]pkgcarbon.Chiplet, nc)
	}
	return sc, nil
}

// Chiplets returns the scratch-owned packaging descriptor buffer; sweep
// walkers refresh only the entries their Gray step changed.
func (sc *Scratch) Chiplets() []pkgcarbon.Chiplet { return sc.pkgCh }

// ResizeChiplets re-slices the packaging descriptor buffer to n dies
// (within the construction capacity) and returns it — the shape of a
// shrinking search like Disaggregate, where each greedy step packages
// one fewer die on the same pooled scratch.
func (sc *Scratch) ResizeChiplets(n int) []pkgcarbon.Chiplet {
	if n > cap(sc.pkgCh) {
		panic("kernel: ResizeChiplets beyond the scratch's construction capacity")
	}
	sc.pkgCh = sc.pkgCh[:n]
	return sc.pkgCh
}

// EstimatePackage runs the scratch estimator over the current chiplet
// descriptors. The result is owned by the estimator and overwritten by
// the next call. Only multi-chiplet sweep scratches carry an estimator;
// calling this on a param-plan or monolith scratch is a usage error.
func (sc *Scratch) EstimatePackage() (*pkgcarbon.Result, error) {
	if sc.est == nil {
		return nil, fmt.Errorf("kernel: EstimatePackage on a scratch without a packaging estimator (param-plan or monolith scratch)")
	}
	return sc.est.Estimate(sc.pkgCh)
}

// EstimatePackageDelta is EstimatePackage when only chiplet descriptor
// `changed` differs from the previous estimate on this scratch — the
// Gray-step shape of a compiled sweep walk. The estimator routes the
// floorplan through its retained tree's single-block update and falls
// back to the full path whenever the precondition cannot be verified,
// so the result is bit-identical to EstimatePackage either way.
func (sc *Scratch) EstimatePackageDelta(changed int) (*pkgcarbon.Result, error) {
	if sc.est == nil {
		return nil, fmt.Errorf("kernel: EstimatePackageDelta on a scratch without a packaging estimator (param-plan or monolith scratch)")
	}
	return sc.est.EstimateDelta(sc.pkgCh, changed)
}

// FloorplanStats snapshots the scratch estimator's retained-tree reuse
// counters (zero for scratches without an estimator).
func (sc *Scratch) FloorplanStats() floorplan.TreeStats {
	if sc.est == nil {
		return floorplan.TreeStats{}
	}
	return sc.est.FloorplanStats()
}

// OperationKg returns spec.LifetimeKg(powerW) through the last-value
// memo: the operational term's inputs are piecewise-constant across the
// points a worker evaluates, so the memo collapses almost every call.
func (sc *Scratch) OperationKg(spec *opcarbon.Spec, powerW float64) (float64, error) {
	if sc.opValid && sc.opSpec == spec && sc.opPowerW == powerW {
		return sc.opKg, nil
	}
	kg, err := spec.LifetimeKg(powerW)
	if err != nil {
		return 0, err
	}
	sc.opSpec, sc.opPowerW, sc.opKg, sc.opValid = spec, powerW, kg, true
	return kg, nil
}

// PerturbNodes returns a perturbed database for one evaluation: the
// scratch's private sandbox copy of the plan's database with every node
// reset to its base parameters and mutate applied — the allocation-free
// equivalent of db.Clone(mutate) for per-sample Monte Carlo
// perturbation. The returned DB is only valid until the next
// PerturbNodes call on this scratch.
func (sc *Scratch) PerturbNodes(mutate func(*tech.Node)) *tech.DB {
	if sc.db == nil {
		panic("kernel: PerturbNodes on a sweep scratch; build one with ParamPlan.NewScratch")
	}
	if sc.sb == nil {
		sc.sb = sc.db.NewSandbox()
	}
	return sc.sb.Reset(mutate)
}
