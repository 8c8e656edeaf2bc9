// Package ecochip is the public facade of the ECO-CHIP carbon estimator
// for chiplet-based (heterogeneously integrated) VLSI systems, a Go
// implementation of "ECO-CHIP: Estimation of Carbon Footprint of
// Chiplet-based Architectures for Sustainable VLSI" (HPCA 2024).
//
// A System describes a monolithic SoC or a multi-chiplet package;
// Evaluate returns the total carbon footprint decomposed per Eq. (1)-(2)
// of the paper:
//
//	C_tot = C_emb + lifetime * C_op
//	C_emb = C_mfg + C_des + C_HI
//
// Quick start:
//
//	db := ecochip.DefaultDB()
//	sys := ecochip.GA102(db, 7, 14, 10, false) // digital 7nm, memory 14nm, analog 10nm
//	rep, err := sys.Evaluate(db)
//	fmt.Println(rep.EmbodiedKg(), rep.TotalKg())
//
// The subpackages under internal/ hold the individual models (technology
// database, yield, wafer geometry, floorplanning, packaging, NoC, design
// and operational carbon, ACT baseline, dollar cost); this package
// re-exports their model and analysis surface. The serving and sharding
// layers behind ecoserve and ecoreplica live in internal/serve and
// internal/shard.
package ecochip

import (
	"context"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/descarbon"
	"ecochip/internal/engine"
	"ecochip/internal/experiments"
	"ecochip/internal/explore"
	"ecochip/internal/floorplan"
	"ecochip/internal/mfg"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/report"
	"ecochip/internal/roadmap"
	"ecochip/internal/sensitivity"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
	"ecochip/internal/uncertainty"
)

// Core model types.
type (
	// System is a monolithic or chiplet-based design point.
	System = core.System
	// Chiplet is one block of a System.
	Chiplet = core.Chiplet
	// Report is the carbon breakdown produced by System.Evaluate.
	Report = core.Report
	// ChipletReport is the per-die slice of a Report.
	ChipletReport = core.ChipletReport
	// TechDB is the technology-node parameter database.
	TechDB = tech.DB
	// Node is one technology node's parameters.
	Node = tech.Node
	// DesignType classifies a block as logic, memory or analog.
	DesignType = tech.DesignType
	// PackagingParams configures the HI packaging model.
	PackagingParams = pkgcarbon.Params
	// Architecture selects the packaging technology.
	Architecture = pkgcarbon.Architecture
	// CostBreakdown is the dollar-cost result.
	CostBreakdown = cost.Breakdown
	// Table is the tabular result of an experiment run.
	Table = report.Table
)

// Design-type constants.
const (
	Logic  = tech.Logic
	Memory = tech.Memory
	Analog = tech.Analog
)

// Packaging architectures.
const (
	RDLFanout         = pkgcarbon.RDLFanout
	SiliconBridge     = pkgcarbon.SiliconBridge
	PassiveInterposer = pkgcarbon.PassiveInterposer
	ActiveInterposer  = pkgcarbon.ActiveInterposer
	ThreeD            = pkgcarbon.ThreeD
)

// DefaultDB returns the built-in technology database calibrated to the
// Table I parameter ranges of the paper.
func DefaultDB() *TechDB { return tech.Default() }

// DefaultPackaging returns the paper's packaging defaults for an
// architecture (65 nm packaging node, coal-powered fab, EMIB-spec
// bridges, 512-bit NoC).
func DefaultPackaging(arch Architecture) PackagingParams { return pkgcarbon.DefaultParams(arch) }

// DefaultCostParams returns the dollar-cost model defaults.
func DefaultCostParams() cost.Params { return cost.DefaultParams() }

// DefaultMfgParams returns the manufacturing-model defaults (Table I).
func DefaultMfgParams() mfg.Params { return mfg.DefaultParams() }

// DefaultDesignParams returns the design-carbon model defaults.
func DefaultDesignParams() descarbon.Params { return descarbon.DefaultParams() }

// BlockFromArea builds a Chiplet from a die-area measurement at a
// reference node (the form teardown data arrives in).
func BlockFromArea(name string, t DesignType, areaMM2 float64, ref *Node, targetNm int) Chiplet {
	return core.BlockFromArea(name, t, areaMM2, ref, targetNm)
}

// Built-in industry testcases (Section IV of the paper).
var (
	// GA102 builds the NVIDIA GA102 GPU as a 3-chiplet system (or the
	// monolithic baseline).
	GA102 = testcases.GA102
	// A15 builds the Apple A15 mobile SoC.
	A15 = testcases.A15
	// EMR builds the Intel Emerald Rapids 2-chiplet EMIB CPU.
	EMR = testcases.EMR
	// ARVR builds the 3D-stacked AR/VR accelerator of Fig. 13.
	ARVR = testcases.ARVR
	// GA102Split builds the GA102 with its digital block split into nc
	// chiplets (the Figs. 9/10/15b workload).
	GA102Split = testcases.GA102Split
)

// Experiments reproduces a figure of the paper's evaluation by id
// ("fig2a" ... "fig15b", "tbl1", plus "ext-*" extensions);
// ExperimentIDs lists the known ids.
func Experiments(id string, db *TechDB) (*Table, error) {
	return experiments.RunWith(id, db, experiments.Options{})
}

// ExperimentIDs lists every reproducible figure id.
func ExperimentIDs() []string { return experiments.IDs() }

// Design-space exploration and analysis (Section VI workflows).
type (
	// DesignPoint is one evaluated candidate in a design-space sweep.
	DesignPoint = explore.Point
	// DisaggregationPlan is the result of the greedy block-grouping
	// optimizer.
	DisaggregationPlan = explore.Plan
	// SensitivityResult is one factor of a tornado analysis.
	SensitivityResult = sensitivity.Result
	// Generation is one product generation in a reuse roadmap.
	Generation = roadmap.Generation
	// RoadmapReport is a multi-generation reuse evaluation.
	RoadmapReport = roadmap.Report
)

// SweepMetric extracts one minimized objective from a design point.
type SweepMetric = explore.Metric

// Standard sweep objectives.
var (
	// SweepByEmbodied minimizes embodied carbon.
	SweepByEmbodied = explore.ByEmbodied
	// SweepByTotal minimizes total (lifetime) carbon.
	SweepByTotal = explore.ByTotal
	// SweepByCost minimizes dollar cost.
	SweepByCost = explore.ByCost
	// SweepByArea minimizes package footprint.
	SweepByArea = explore.ByArea
)

// ParetoFront filters design points to the non-dominated set, sorted
// by the first objective. Points that the objectives' minima or the
// knee point dominate are dropped in linear passes, so only the few
// survivors of a large sweep are sorted or scanned pairwise. NaN
// objective values are outside the contract.
func ParetoFront(points []DesignPoint, objectives ...SweepMetric) []DesignPoint {
	return explore.ParetoFront(points, objectives...)
}

// DisaggregationStats counts the work of one compiled Disaggregate
// search: greedy steps and candidate evaluations, merged-die cell memo
// traffic, pooled-scratch reuse and the folded floorplan-tree counters
// (whose DiffFallbacks count the candidates' block-set rebuilds).
// Returned in DisaggregationPlan.Stats; its String is the summary
// ecodse prints under -progress.
type DisaggregationStats = explore.DisaggregateStats

// DisaggregateCtx runs the greedy block-to-chiplet grouping optimizer
// with cancellation and engine options. The search runs end-to-end on
// retained state: merged-die cells are memoized per group pair across
// greedy steps, worker scratches (with their packaging estimators and
// retained floorplan trees) are pooled across the whole search, and
// each candidate's floorplan is a from-scratch rebuild of the pooled
// tree. The trajectory is bit-identical to the evaluate-per-candidate
// search (explore.DisaggregateReference).
func DisaggregateCtx(ctx context.Context, base *System, db *TechDB, opts ...EngineOption) (*DisaggregationPlan, error) {
	return explore.DisaggregateCtx(ctx, base, db, opts...)
}

// EvaluateRoadmap scores a multi-generation product roadmap with
// cross-generation chiplet reuse.
func EvaluateRoadmap(db *TechDB, generations []Generation) (*RoadmapReport, error) {
	return roadmap.Evaluate(db, generations)
}

// EPYC builds the 8-CCD-class server testcase (AMD-style chiplet CPU).
var EPYC = testcases.EPYC

// EPYCMonolith builds its hypothetical monolithic counterpart.
var EPYCMonolith = testcases.EPYCMonolith

// CarbonDistribution summarizes a Monte Carlo uncertainty run.
type CarbonDistribution = uncertainty.Distribution

// EngineOption configures a run of the batch-evaluation engine, the
// parallel backend under every Section VI workflow (see
// internal/engine): worker count and progress callback.
type EngineOption = engine.Option

// Engine options.
var (
	// WithWorkers sets the worker count (0 = GOMAXPROCS, 1 = serial).
	WithWorkers = engine.WithWorkers
	// WithProgress registers a (done, total) progress callback.
	WithProgress = engine.WithProgress
)

// EvaluateBatch evaluates many systems against the database across a
// worker pool. results[i] corresponds to systems[i] and is
// byte-identical to systems[i].Evaluate(db) — the parallelism never
// changes a float.
func EvaluateBatch(ctx context.Context, db *TechDB, systems []*System, opts ...EngineOption) ([]*Report, error) {
	return engine.EvaluateBatch(ctx, db, systems, opts...)
}

// NodeSweepCtx evaluates every node combination of a system (carbon +
// cost), with cancellation and engine options. It compiles the sweep
// into a dense per-(chiplet, node) table first (see CompileNodeSweep); a
// multi-chiplet monolith, whose blocks share one die and so one node,
// is evaluated once instead. The points are bit-identical to the
// uncompiled per-point sweep.
func NodeSweepCtx(ctx context.Context, base *System, db *TechDB, nodes []int, cp cost.Params, opts ...EngineOption) ([]DesignPoint, error) {
	return explore.NodeSweepCtx(ctx, base, db, nodes, cp, opts...)
}

// Compiled sweep plans (the near-zero-allocation sweep hot path).
type (
	// SweepPlan is a compiled node sweep: the base system validated
	// once and every per-(chiplet, node) invariant — area, die
	// manufacturing result, design carbon, NRE share, die dollar cost —
	// precomputed into a dense table. Run it any number of times; it is
	// immutable and safe for concurrent use.
	SweepPlan = explore.CompiledPlan
	// SweepPlanStats counts the work a compiled plan performed,
	// including the floorplan-tree counters in its Floorplan field.
	SweepPlanStats = explore.SweepStats
	// SweepFrontSnapshot is one emission of a streamed Pareto front
	// (SweepPlan.ParetoFrontStream): the front of every point walked so
	// far, with progress in 512-point blocks.
	SweepFrontSnapshot = explore.FrontSnapshot
	// FloorplanTreeStats counts how a retained floorplan tree served its
	// plans: unchanged plans versus layouts and from-scratch rebuilds.
	FloorplanTreeStats = floorplan.TreeStats
)

// CompileNodeSweep builds the compiled sweep plan for evaluating base
// under every combination of the candidate nodes. Compile once, then
// plan.RunCtx per run, plan.Walk to stream points without materializing
// the result slice, or plan.ParetoFrontCtx for a front folded into the
// sweep walk (front-only callers never allocate the full point slice);
// plan.ParetoFrontStream also emits the front as the walk tightens it.
func CompileNodeSweep(base *System, db *TechDB, nodes []int, cp cost.Params) (*SweepPlan, error) {
	return explore.Compile(base, db, nodes, cp)
}

// TornadoCtx runs a one-at-a-time sensitivity analysis at +/- rel, with
// cancellation and engine options. It runs on a compiled parameter plan (see internal/kernel) and is bit-identical
// to a full evaluation per perturbed point.
func TornadoCtx(ctx context.Context, base *System, db *TechDB, rel float64, opts ...EngineOption) ([]SensitivityResult, error) {
	return sensitivity.TornadoCtx(ctx, base, db, rel, opts...)
}

// UncertaintyCtx propagates Table I input uncertainty through the
// model: n seeded Monte Carlo samples of the system's embodied carbon,
// with cancellation and engine options. The fixed-seed distribution is bit-identical at any worker count. It
// runs on a compiled parameter plan and is bit-identical to a per-sample
// database clone and full evaluation.
func UncertaintyCtx(ctx context.Context, base *System, db *TechDB, n int, seed int64, opts ...EngineOption) (CarbonDistribution, error) {
	return uncertainty.RunCtx(ctx, base, db, uncertainty.DefaultSpread(), n, seed, opts...)
}
