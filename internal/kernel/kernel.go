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
//     with its memoized floorplan tree, whose single-changed-chiplet
//     delta path the Gray-code sweep walk drives through
//     EstimatePackageDelta), the per-point package memo and per-orbit
//     package table that let a walk skip the estimator, the chiplet
//     descriptor buffer and the operational-term memo.
//   - Scratch: one worker's reusable arena for a ParamPlan — chiplet
//     descriptors, the hooks serving the plan's base tabulation, the
//     tech.Sandbox for per-sample node perturbation and the
//     operational-term memo.
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
// the chiplet descriptor buffer, the hooks that serve the plan's base
// tabulation, the tech.Sandbox for per-sample node perturbation and the
// operational-term memo. It is NOT safe for concurrent use: batch
// engines build one per worker goroutine (ParamPlan.NewScratch) and
// reuse it across every point the worker evaluates.
type Scratch struct {
	pkgCh []pkgcarbon.Chiplet
	hooks paramHooks
	sb    *tech.Sandbox // lazy; built on first PerturbNodes
	db    *tech.DB      // sandbox source (the plan's database)
	op    opMemo
}

// SweepScratch is one worker's reusable arena for a compiled node sweep
// or a Disaggregate search: the packaging estimator (with its memoized
// floorplan tree, whose single-changed-chiplet path the Gray-code walk
// drives through EstimatePackageDelta), the chiplet descriptor buffer,
// the per-point package memo and per-orbit package table that let a
// walk skip the estimator, their counters and the operational-term
// memo. It is NOT safe for concurrent use.
//
// Counters live in the scratch until its owner releases it:
// FoldFloorplan and FoldMemo add them into the owner's totals and zero
// them, so a pooled scratch folded again later adds only its new work.
type SweepScratch struct {
	est   *pkgcarbon.Estimator // nil for a monolith sweep
	pkgCh []pkgcarbon.Chiplet
	op    opMemo

	// Per-point package memo. A compiled point's package estimate is
	// pure in the point's digit vector, so once a scratch has estimated
	// a point it can serve the folded quadruple (PkgPoint) by the
	// point's mixed-radix index and skip the estimator — the serving
	// shape of a re-walked plan, and the same retained-state idea as the
	// estimator's warm floorplan tree, one level up. Lazy: sized by the
	// first StorePackagePoint.
	pkgPt slotTable[PkgPoint]
	// Per-orbit package table (plans with interchangeable chiplets).
	// Points that permute the nodes of interchangeable chiplets share
	// their package area, package carbon and assembly yield bit for bit,
	// so a fresh walk that has estimated one member of an orbit serves
	// every later member's PkgOrbit by the orbit's dense rank and
	// re-folds only the order-dependent routing terms (PackageRouting).
	// Lazy: sized by the first StorePackageOrbit.
	pkgOrbit slotTable[PkgOrbit]
	memo     PkgMemoStats
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

// slotTable is a direct-mapped memo over a dense key space of span keys
// (a point's mixed-radix index, an orbit's rank). Slot keys hold key+1,
// so the zero value means empty; when the key space outgrows the slot
// table the key hashes to a direct-mapped slot and a collision simply
// recomputes. Every memo built on it serves the estimator's own prior
// output for an input that determines it, so eviction changes speed,
// never a bit.
type slotTable[V any] struct {
	keys []uint64
	vals []V
	span uint64 // key-space size the slots were sized for
}

// lookup returns the value stored under key in a span-key space; hit
// reports a stored entry, collided a slot held by a different key.
func (t *slotTable[V]) lookup(key, span uint64) (v V, hit, collided bool) {
	if t.span != span || len(t.keys) == 0 {
		return v, false, false
	}
	slot := pkgPointSlot(key, span)
	if k := t.keys[slot]; k != key+1 {
		return v, false, k != 0
	}
	return t.vals[slot], true, false
}

// store records v under key in a span-key space, sizing (or resizing)
// the slots on first use, and reports whether it claimed an empty slot
// or evicted a different key's entry.
func (t *slotTable[V]) store(key, span uint64, v V) (filled, evicted bool) {
	if t.span != span || len(t.keys) == 0 {
		n := min(span, 1<<pkgPointSlotBits)
		t.keys = make([]uint64, n)
		t.vals = make([]V, n)
		t.span = span
	}
	slot := pkgPointSlot(key, span)
	switch k := t.keys[slot]; {
	case k == 0:
		filled = true
	case k != key+1:
		evicted = true
	}
	t.keys[slot] = key + 1
	t.vals[slot] = v
	return filled, evicted
}

// PkgMemoStats counts the traffic of the per-point package memo and,
// in OrbitHits/OrbitMisses, of the per-orbit package table. The
// interesting point-memo counter is Collisions: lookups that missed because the
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
	// OrbitHits is the number of Gray steps whose package terms the
	// per-orbit table served (only the routing fold ran); OrbitMisses
	// the Gray steps that consulted it and ran the estimator. A walk
	// consults the table only on a plan with interchangeable chiplets,
	// only after the point memo missed (or was not consulted), and
	// never for a walk's first point, so on a fresh walk
	// OrbitHits+OrbitMisses equals its Gray steps.
	OrbitHits, OrbitMisses uint64
}

// Add accumulates o into s.
func (s *PkgMemoStats) Add(o PkgMemoStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Collisions += o.Collisions
	s.Fills += o.Fills
	s.Evictions += o.Evictions
	s.OrbitHits += o.OrbitHits
	s.OrbitMisses += o.OrbitMisses
}

// PkgPoint is the package-term quadruple one compiled sweep point folds
// into its totals: heterogeneous-integration carbon, package area,
// assembly yield and router power, exactly as returned by the package
// estimate of the point's digit vector.
type PkgPoint struct {
	HIKg, AreaMM2, AssemblyYield, RouterPowerW float64
}

// PkgOrbit is the orbit-invariant slice of a package estimate: package
// carbon (attach term included), package area and assembly yield, the
// terms every member of an orbit of node assignments shares bit for
// bit.
type PkgOrbit struct {
	PackageKg, AreaMM2, AssemblyYield float64
}

// pkgPointSlotBits caps each memo table at 1<<pkgPointSlotBits slots
// (4096 × 40 B ≈ 160 KiB per worker scratch for the point memo, × 32 B
// for the orbit table); larger key spaces share slots through the hash
// below.
const pkgPointSlotBits = 12

// pkgPointSlot maps a key to its memo slot: the identity when the whole
// key space fits, a Fibonacci-hashed direct-mapped slot otherwise.
func pkgPointSlot(idx, span uint64) uint64 {
	if span <= 1<<pkgPointSlotBits {
		return idx
	}
	return idx * 0x9e3779b97f4a7c15 >> (64 - pkgPointSlotBits)
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

// LoadPackagePoint returns the memoized package quadruple of point
// index idx in a span-point space, if this scratch has estimated that
// exact point before.
func (sc *SweepScratch) LoadPackagePoint(idx, span uint64) (PkgPoint, bool) {
	v, hit, collided := sc.pkgPt.lookup(idx, span)
	if hit {
		sc.memo.Hits++
		return v, true
	}
	sc.memo.Misses++
	if collided {
		sc.memo.Collisions++
	}
	return v, false
}

// StorePackagePoint memoizes the package quadruple of point index idx
// in a span-point space, sizing (or resizing) the slot table on first
// use.
func (sc *SweepScratch) StorePackagePoint(idx, span uint64, v PkgPoint) {
	filled, evicted := sc.pkgPt.store(idx, span, v)
	if filled {
		sc.memo.Fills++
	}
	if evicted {
		sc.memo.Evictions++
	}
}

// LoadPackageOrbit returns the orbit-invariant package terms of orbit
// rank key in a span-orbit space, if this scratch has estimated a
// member of that orbit before.
func (sc *SweepScratch) LoadPackageOrbit(key, span uint64) (PkgOrbit, bool) {
	v, hit, _ := sc.pkgOrbit.lookup(key, span)
	if hit {
		sc.memo.OrbitHits++
	} else {
		sc.memo.OrbitMisses++
	}
	return v, hit
}

// StorePackageOrbit records the orbit-invariant package terms of orbit
// rank key in a span-orbit space, sizing the table (min(span, 4096)
// slots) on first use.
func (sc *SweepScratch) StorePackageOrbit(key, span uint64, v PkgOrbit) {
	sc.pkgOrbit.store(key, span, v)
}

// FoldMemo releases the scratch's point-memo and orbit-table counters:
// it adds them into *into and zeroes them.
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

// EstimatePackageDelta is EstimatePackage when only chiplet descriptor
// `changed` differs from the previous estimate on this scratch — the
// Gray-step shape of a compiled sweep walk. The estimator routes the
// floorplan through its retained tree's single-block update and falls
// back to the full path whenever the precondition cannot be verified,
// so the result is bit-identical to EstimatePackage either way.
func (sc *SweepScratch) EstimatePackageDelta(changed int) (*pkgcarbon.Result, error) {
	return sc.est.EstimateDelta(sc.pkgCh, changed)
}

// PackageRouting folds only the routing terms of the current chiplet
// descriptors, in chiplet order, through the estimator's communication
// caches — the fields EstimatePackage would return, bit for bit. A
// per-orbit table hit pairs it with the orbit's stored terms.
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
// reset to its base parameters and mutate applied — the allocation-free
// equivalent of db.Clone(mutate) for per-sample Monte Carlo
// perturbation. The returned DB is only valid until the next
// PerturbNodes call on this scratch.
func (sc *Scratch) PerturbNodes(mutate func(*tech.Node)) *tech.DB {
	if sc.sb == nil {
		sc.sb = sc.db.NewSandbox()
	}
	return sc.sb.Reset(mutate)
}
