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
//   - SweepScratch: one worker's reusable arena for a node sweep or a
//     Disaggregate search — the packaging estimator (pkgcarbon.Estimator
//     with its retained floorplan tree), the package memo keyed by orbit
//     rank that lets a walk skip the estimator, the chiplet descriptor
//     buffer and the operational-term memo.
//   - Scratch: one worker's reusable arena for a ParamPlan — chiplet
//     descriptors, the node lookups of the plan's runs, its work
//     counters, the tech.Sandbox for per-sample node perturbation and
//     the operational-term memo.
//   - ParamPlan: a compiled plan keyed by perturbed *tech.Node / system
//     parameters. It tabulates the model steps of each run of identical
//     chiplets in the base point once and re-evaluates perturbations by
//     walking those runs, re-running only the steps a Dirty set names
//     and serving everything else from the table.
//
// The contract everywhere is bit-identity: a compiled evaluation returns
// the exact float bits of the uncompiled reference path (guarded by
// randomized equivalence tests in the client packages), so callers can
// switch paths freely for speed without perturbing a single result.
//
// Worker counters follow one idiom: each scratch counts its own work in
// plain fields, and releasing the scratch adds the counts into its
// owner's totals and zeroes them (ParamPlan.Fold, SweepScratch.FoldMemo
// and FoldFloorplan), so an owner's Stats covers every released scratch
// and a second Stats call adds nothing.
package kernel

import (
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

// Scratch is one worker's reusable arena for evaluating a ParamPlan:
// the chiplet descriptor buffer, the node lookups of the plan's runs,
// the work counters, the tech.Sandbox for per-sample node perturbation
// and the operational-term memo. It is NOT safe for concurrent use:
// batch engines build one per worker goroutine (ParamPlan.NewScratch)
// and reuse it across every point the worker evaluates.
type Scratch struct {
	plan  *ParamPlan
	pkgCh []pkgcarbon.Chiplet // nil for a monolith plan
	// nodes holds nodeDB's node of each plan run (see runNodes).
	nodeDB *tech.DB
	nodes  []*tech.Node
	// stats counts the scratch's work until Fold hands it to the plan:
	// plain fields, not atomics shared by every worker.
	stats ParamStats
	sb    *tech.Sandbox // lazy; built on first PerturbNodes
	op    opMemo
}

// SweepScratch is one worker's reusable arena for a compiled node sweep
// or a Disaggregate search: the packaging estimator (with its retained
// floorplan tree), the chiplet descriptor buffer, the package memo that
// lets a walk skip the estimator, its counters and the operational-term
// memo. It is NOT safe for concurrent use.
//
// Counters live in the scratch until its owner releases it:
// FoldFloorplan and FoldMemo add them into the owner's totals and zero
// them, so a pooled scratch folded again later adds only its new work.
type SweepScratch struct {
	est   *pkgcarbon.Estimator // nil for a monolith sweep
	pkgCh []pkgcarbon.Chiplet
	op    opMemo

	// Package memo: a direct-mapped table of PkgTerms keyed by the dense
	// rank of a point's orbit (on a plan without interchangeable
	// chiplets, its output slot). Every member of an orbit shares the
	// stored package carbon, area and assembly yield bit for bit, so a
	// scratch that has estimated one member serves the rest without the
	// estimator. Slot keys hold key+1, so the zero value means empty;
	// when the key space outgrows the slots, keys hash to a slot and a
	// collision simply recomputes: a hit is the estimator's own earlier
	// output for an input that fixes it, so eviction changes speed,
	// never a bit. Lazy: sized by the first StorePackage.
	keys []uint64
	vals []PkgTerms
	span uint64 // key-space size the slots were sized for
	memo PkgMemoStats
}

// opMemo is the last-value memo for the operational term: its input
// (spec, router power) is constant across whole sweeps and across all
// samples / node-side factors of a parameter plan, so the memo
// collapses almost every call.
type opMemo struct {
	spec   *opcarbon.Spec
	valid  bool
	powerW float64
	kg     float64
}

// lifetimeKg returns spec.LifetimeKg(powerW) through the memo.
func (m *opMemo) lifetimeKg(spec *opcarbon.Spec, powerW float64) (float64, error) {
	if m.valid && m.spec == spec && m.powerW == powerW {
		return m.kg, nil
	}
	kg, err := spec.LifetimeKg(powerW)
	if err != nil {
		return 0, err
	}
	m.spec, m.powerW, m.kg, m.valid = spec, powerW, kg, true
	return kg, nil
}

// PkgMemoStats counts the package memo's traffic. The interesting
// counter is Collisions: lookups that missed because the direct-mapped
// slot held a different key, i.e. the recomputes an eviction policy
// could win back.
type PkgMemoStats struct {
	// Hits is the number of points served straight from the memo.
	Hits uint64
	// Misses is the number of lookups that found no entry (cold slots,
	// unsized tables and span changes included).
	Misses uint64
	// Collisions is the subset of Misses whose slot held a different
	// key — a recompute forced purely by the direct-mapped layout.
	Collisions uint64
	// Fills is the number of stores that claimed an empty slot. Fills
	// bounded well below the slot count means the working set fits the
	// table and Collisions noise is hash-induced, not capacity-induced.
	Fills uint64
	// Evictions is the number of stores that overwrote a live entry of
	// a different key — the direct-mapped table's forced evictions. A
	// workload whose Evictions grow linearly with traffic is thrashing
	// the memo and would benefit from a larger or associative table.
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

// PkgTerms is the package estimate one compiled sweep point folds into
// its totals: package carbon (attach term included) and routing carbon,
// whose sum is the heterogeneous-integration carbon exactly as
// pkgcarbon.Result.TotalKg adds them, package area, assembly yield and
// router power. The package carbon, area and assembly yield hold for
// every member of the point's orbit; the routing carbon and router
// power are those of the point that was estimated.
type PkgTerms struct {
	PackageKg, RoutingKg, AreaMM2, AssemblyYield, RouterPowerW float64
}

// HIKg returns the heterogeneous-integration carbon, as
// pkgcarbon.Result.TotalKg computes it.
func (t PkgTerms) HIKg() float64 { return t.PackageKg + t.RoutingKg }

// pkgSlotBits caps the package memo at 1<<pkgSlotBits slots (4096 ×
// 48 B ≈ 192 KiB per worker scratch); larger key spaces share slots
// through the hash below.
const pkgSlotBits = 12

// pkgSlot maps a key to its memo slot: the identity when the whole key
// space fits, a Fibonacci-hashed direct-mapped slot otherwise.
func pkgSlot(key, span uint64) uint64 {
	if span <= 1<<pkgSlotBits {
		return key
	}
	return key * 0x9e3779b97f4a7c15 >> (64 - pkgSlotBits)
}

// NewSweepScratch builds the per-worker arena of a compiled node sweep
// or a Disaggregate search: a chiplet descriptor buffer for nc dies and
// a packaging estimator over the fixed parameters. A monolith sweep,
// which has no package, passes a nil pkg and uses only the operational
// memo.
func NewSweepScratch(pkg *pkgcarbon.Params, nc int) (*SweepScratch, error) {
	sc := &SweepScratch{}
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

// LoadPackage returns the package terms stored under key in a span-key
// space, if this scratch has estimated a point with that key before.
func (sc *SweepScratch) LoadPackage(key, span uint64) (PkgTerms, bool) {
	if sc.span == span && len(sc.keys) > 0 {
		slot := pkgSlot(key, span)
		switch k := sc.keys[slot]; {
		case k == key+1:
			sc.memo.Hits++
			return sc.vals[slot], true
		case k != 0:
			sc.memo.Collisions++
		}
	}
	sc.memo.Misses++
	return PkgTerms{}, false
}

// StorePackage records v under key in a span-key space, sizing (or
// resizing) the table to min(span, 4096) slots on first use.
func (sc *SweepScratch) StorePackage(key, span uint64, v PkgTerms) {
	if sc.span != span || len(sc.keys) == 0 {
		n := min(span, 1<<pkgSlotBits)
		sc.keys = make([]uint64, n)
		sc.vals = make([]PkgTerms, n)
		sc.span = span
	}
	slot := pkgSlot(key, span)
	switch k := sc.keys[slot]; {
	case k == 0:
		sc.memo.Fills++
	case k != key+1:
		sc.memo.Evictions++
	}
	sc.keys[slot] = key + 1
	sc.vals[slot] = v
}

// FoldMemo releases the scratch's package-memo counters: it adds them
// into *into and zeroes them.
func (sc *SweepScratch) FoldMemo(into *PkgMemoStats) {
	into.Add(sc.memo)
	sc.memo = PkgMemoStats{}
}

// FoldFloorplan releases the estimator's floorplan-tree counters: it
// adds them into *into and zeroes them.
func (sc *SweepScratch) FoldFloorplan(into *floorplan.TreeStats) {
	sc.est.FoldFloorplanStats(into)
}

// Chiplets returns the scratch-owned packaging descriptor buffer; sweep
// walkers refresh only the entries their Gray step changed.
func (sc *SweepScratch) Chiplets() []pkgcarbon.Chiplet { return sc.pkgCh }

// ResizeChiplets re-slices the packaging descriptor buffer to n dies
// (within the construction capacity) and returns it — the shape of a
// shrinking search like Disaggregate, where each greedy step packages
// one fewer die on the same pooled scratch.
func (sc *SweepScratch) ResizeChiplets(n int) []pkgcarbon.Chiplet {
	sc.pkgCh = sc.pkgCh[:n]
	return sc.pkgCh
}

// EstimatePackage runs the scratch estimator over the current chiplet
// descriptors. The result is owned by the estimator and overwritten by
// the next call.
func (sc *SweepScratch) EstimatePackage() (*pkgcarbon.Result, error) {
	return sc.est.Estimate(sc.pkgCh)
}

// PackageRouting folds only the routing terms of the current chiplet
// descriptors, in chiplet order, through the estimator's communication
// caches — the fields EstimatePackage would return, bit for bit. A
// package-memo hit on a plan with interchangeable chiplets pairs it
// with the orbit's stored terms.
func (sc *SweepScratch) PackageRouting() (pkgcarbon.Routing, error) {
	return sc.est.Routing(sc.pkgCh)
}

// OperationKg returns spec.LifetimeKg(powerW) through the last-value
// memo: the operational term's inputs are piecewise-constant across the
// points a worker evaluates, so the memo collapses almost every call.
func (sc *SweepScratch) OperationKg(spec *opcarbon.Spec, powerW float64) (float64, error) {
	return sc.op.lifetimeKg(spec, powerW)
}

// PerturbNodes returns a perturbed database for one evaluation: the
// scratch's private sandbox copy of the plan's database with every node
// the plan reads reset to its base parameters and mutate applied — for
// the plan's evaluations, the allocation-free equivalent of
// db.Clone(mutate) for per-sample Monte Carlo perturbation. Nodes the
// plan does not read keep their base parameters. The returned DB is
// only valid until the next PerturbNodes call on this scratch.
func (sc *Scratch) PerturbNodes(mutate func(*tech.Node)) *tech.DB {
	if sc.sb == nil {
		sc.sb = sc.plan.db.NewSandbox()
	}
	return sc.sb.Reset(sc.plan.nodes, mutate)
}
