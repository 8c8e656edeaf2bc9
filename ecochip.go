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
// re-exports the surface a downstream user needs.
package ecochip

import (
	"context"
	"net/http"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/descarbon"
	"ecochip/internal/engine"
	"ecochip/internal/experiments"
	"ecochip/internal/explore"
	"ecochip/internal/floorplan"
	"ecochip/internal/kernel"
	"ecochip/internal/lru"
	"ecochip/internal/mfg"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/report"
	"ecochip/internal/roadmap"
	"ecochip/internal/sensitivity"
	"ecochip/internal/serve"
	"ecochip/internal/shard"
	"ecochip/internal/shard/health"
	"ecochip/internal/shard/netx"
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
func Experiments(id string, db *TechDB) (*Table, error) { return experiments.Run(id, db) }

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

// NodeSweep evaluates every node combination of a system (carbon + cost).
func NodeSweep(base *System, db *TechDB, nodes []int, cp cost.Params) ([]DesignPoint, error) {
	return explore.NodeSweep(base, db, nodes, cp)
}

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

// ParetoFront filters design points to the non-dominated set.
func ParetoFront(points []DesignPoint, objectives ...SweepMetric) []DesignPoint {
	return explore.ParetoFront(points, objectives...)
}

// DisaggregationStats counts the work of one compiled Disaggregate
// search: greedy steps and candidate evaluations, merged-die cell memo
// traffic, pooled-scratch reuse and the folded incremental-floorplan
// counters (whose diff fields report the name-keyed remove/insert diff
// serving the candidates). Returned in DisaggregationPlan.Stats; its
// String is the summary ecodse prints under -progress.
type DisaggregationStats = explore.DisaggregateStats

// Disaggregate runs the greedy block-to-chiplet grouping optimizer. The
// search runs end-to-end on retained state: merged-die cells are
// memoized per group pair across greedy steps, worker scratches (with
// their packaging estimators and retained floorplan trees) are pooled
// across the whole search, and each candidate's floorplan is a
// name-keyed remove/insert fork of the step's pinned base tree. The
// trajectory is bit-identical to DisaggregateReference.
func Disaggregate(base *System, db *TechDB) (*DisaggregationPlan, error) {
	return explore.Disaggregate(base, db)
}

// DisaggregateCtx is Disaggregate with cancellation and engine options.
func DisaggregateCtx(ctx context.Context, base *System, db *TechDB, opts ...EngineOption) (*DisaggregationPlan, error) {
	return explore.DisaggregateCtx(ctx, base, db, opts...)
}

// DisaggregateReference is the uncompiled evaluate-per-candidate greedy
// search: the oracle and baseline the compiled search is tested and
// benchmarked against.
func DisaggregateReference(ctx context.Context, base *System, db *TechDB) (*DisaggregationPlan, error) {
	return explore.DisaggregateReference(ctx, base, db)
}

// Tornado runs a one-at-a-time sensitivity analysis at +/- rel.
func Tornado(base *System, db *TechDB, rel float64) ([]SensitivityResult, error) {
	return sensitivity.Tornado(base, db, rel)
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

// Uncertainty propagates Table I input uncertainty through the model:
// n seeded Monte Carlo samples of the system's embodied carbon.
func Uncertainty(base *System, db *TechDB, n int, seed int64) (CarbonDistribution, error) {
	return uncertainty.Run(base, db, uncertainty.DefaultSpread(), n, seed)
}

// Batch-evaluation engine (the parallel backend under every Section VI
// workflow; see internal/engine).
type (
	// EngineOption configures a batch evaluation: worker count, shared
	// memo cache, progress callback.
	EngineOption = engine.Option
	// EvalCache is the concurrency-safe memo cache of per-die sub-model
	// results; share one across batches with WithCache.
	EvalCache = engine.Cache
	// EvalCacheStats reports cache hit counters.
	EvalCacheStats = engine.Stats
	// EvalHooks is the sub-model interception seam of a System
	// evaluation (see System.EvaluateWith).
	EvalHooks = core.Hooks
)

// Engine options.
var (
	// WithWorkers sets the worker count (0 = GOMAXPROCS, 1 = serial).
	WithWorkers = engine.WithWorkers
	// WithCache shares a memo cache across batch calls.
	WithCache = engine.WithCache
	// WithoutCache disables memoization (the uncached reference path).
	WithoutCache = engine.WithoutCache
	// WithProgress registers a (done, total) progress callback.
	WithProgress = engine.WithProgress
)

// NewEvalCache returns an empty sub-model memo cache.
func NewEvalCache() *EvalCache { return engine.NewCache() }

// EvaluateBatch evaluates many systems against the database across a
// worker pool with a shared memo cache. results[i] corresponds to
// systems[i] and is byte-identical to systems[i].Evaluate(db) — the
// parallelism and caching never change a float.
func EvaluateBatch(ctx context.Context, db *TechDB, systems []*System, opts ...EngineOption) ([]*Report, error) {
	return engine.EvaluateBatch(ctx, db, systems, opts...)
}

// NodeSweepCtx is NodeSweep with cancellation and engine options. It
// compiles the sweep into a dense per-(chiplet, node) table first (see
// CompileNodeSweep); systems without a compiled fast path fall back to
// NodeSweepReference. Both paths return bit-identical points.
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
	// including the incremental-floorplan reuse counters in its
	// Floorplan field.
	SweepPlanStats = explore.SweepStats
	// SweepFrontSnapshot is one emission of a streamed Pareto front
	// (SweepPlan.ParetoFrontStream, CarbonServer.StreamFront): the front
	// of every point walked so far, with progress in 512-point blocks.
	SweepFrontSnapshot = explore.FrontSnapshot
	// FloorplanTreeStats counts the work of a retained incremental
	// floorplan tree: fast-path relayouts vs full rebuilds, topology
	// fallbacks, and the mean relayout depth.
	FloorplanTreeStats = floorplan.TreeStats
)

// ErrNoSweepFastPath reports that a system cannot be compiled into a
// dense sweep plan (multi-chiplet monolithic bases); use
// NodeSweepReference instead.
var ErrNoSweepFastPath = explore.ErrNoFastPath

// CompileNodeSweep builds the compiled sweep plan for evaluating base
// under every combination of the candidate nodes. Compile once, then
// plan.RunCtx per run, plan.Walk to stream points without materializing
// the result slice, or plan.ParetoFrontCtx for a front folded into the
// sweep walk (front-only callers never allocate the full point slice);
// plan.ParetoFrontStream also emits the front as the walk tightens it.
func CompileNodeSweep(base *System, db *TechDB, nodes []int, cp cost.Params) (*SweepPlan, error) {
	return explore.Compile(base, db, nodes, cp)
}

// NodeSweepReference is the uncompiled per-point sweep (clone, validate,
// memo-cached sub-models for every point): the oracle and baseline the
// compiled plan is tested and benchmarked against.
func NodeSweepReference(ctx context.Context, base *System, db *TechDB, nodes []int, cp cost.Params, opts ...EngineOption) ([]DesignPoint, error) {
	return explore.NodeSweepReference(ctx, base, db, nodes, cp, opts...)
}

// Fault-tolerant distributed sweep sharding (see internal/shard): a
// coordinator hands out leased block ranges of a compiled plan to
// stateless replicas that compile the plan locally from its content key
// and stream per-block results back; lost, late, duplicated or crashed
// work is re-leased and deduplicated, and the output stays bit-identical
// to the single-process plan.
type (
	// ShardCoordinator drives one compiled plan across replica
	// transports under the lease protocol (NewShardCoordinator).
	ShardCoordinator = shard.Coordinator
	// ShardConfig tunes block size, lease span and timeout, retry
	// backoff and the fallback policy; the zero value has production
	// defaults.
	ShardConfig = shard.Config
	// ShardStats is a coordinator's protocol-counter snapshot (leases
	// granted/expired, blocks re-leased/deduped/local, replicas lost).
	ShardStats = shard.Stats
	// ShardCatalog resolves plan keys to compiled plans on a replica:
	// sweeps registered under their derived key, compiled lazily.
	ShardCatalog = shard.Catalog
	// ShardReplica executes leases against locally compiled plans; it is
	// also the in-process loopback ShardTransport.
	ShardReplica = shard.Replica
	// ShardTransport carries leases to one replica endpoint and streams
	// its per-block results back.
	ShardTransport = shard.Transport
	// ShardFaultSpec is a seeded fault schedule for ShardFault (drops,
	// duplicates, transient errors, crashes, delivery delays).
	ShardFaultSpec = shard.FaultSpec
	// ShardObjective names a sweep metric in wire-encodable form for
	// front-mode leases.
	ShardObjective = shard.Objective
	// ShardExhaustedError reports total replica loss under
	// ShardConfig.DisableFallback.
	ShardExhaustedError = shard.ExhaustedError
)

// Front-mode shard objectives (wire-encodable SweepMetric names).
const (
	// ShardByEmbodied minimizes embodied carbon (SweepByEmbodied).
	ShardByEmbodied = shard.ObjEmbodied
	// ShardByTotal minimizes total lifetime carbon (SweepByTotal).
	ShardByTotal = shard.ObjTotal
	// ShardByCost minimizes dollar cost (SweepByCost).
	ShardByCost = shard.ObjCost
	// ShardByArea minimizes package footprint (SweepByArea).
	ShardByArea = shard.ObjArea
)

// SweepPlanKey derives the content key of a sweep: a stable hash of the
// base system, candidate nodes, cost parameters and the technology
// database records they reach. Coordinator and replicas derive the same
// key from the same inputs, which is how replicas compile plans locally
// instead of receiving them over the wire.
func SweepPlanKey(base *System, db *TechDB, nodes []int, cp cost.Params) (string, error) {
	return explore.PlanKey(base, db, nodes, cp)
}

// NewShardCatalog returns an empty in-process plan catalog.
func NewShardCatalog() *ShardCatalog { return shard.NewCatalog() }

// NewShardReplica builds a replica over a plan catalog; the returned
// value is also the loopback transport for that replica.
func NewShardReplica(cat *ShardCatalog) *ShardReplica { return shard.NewReplica(cat) }

// NewShardCoordinator builds a coordinator for a compiled plan
// (identified by its SweepPlanKey) over the given replica transports.
// An empty transport list is legal: every run degrades to the local
// single-process walk.
func NewShardCoordinator(plan *SweepPlan, key string, transports []ShardTransport, cfg ShardConfig) *ShardCoordinator {
	return shard.NewCoordinator(plan, key, transports, cfg)
}

// ShardFault wraps a transport with a seeded fault schedule — the
// chaos-testing harness of the shard layer.
func ShardFault(inner ShardTransport, spec ShardFaultSpec) ShardTransport {
	return shard.Fault(inner, spec)
}

// The shard network transport: the lease protocol over persistent TCP
// connections in a binary frame format, with leases multiplexed (and
// pipelined) per connection and plans resolved from content keys on
// the replica side.
type (
	// ShardTransportCounters is the wire-level counter snapshot of a
	// networked transport; ShardStats.Wire folds these across a
	// coordinator's counted transports.
	ShardTransportCounters = shard.TransportCounters
	// ShardNetOptions tunes timeouts and frame limits on both ends of
	// the network transport; the zero value is usable.
	ShardNetOptions = netx.Options
	// ShardNetRegistry holds the shippable content of registered
	// sweeps, keyed by plan content key (NewShardNetRegistry).
	ShardNetRegistry = netx.Registry
	// ShardNetClient is a ShardTransport over one persistent TCP
	// connection to a replica server (DialShardTransport); passing the
	// same client to the coordinator several times pipelines that many
	// leases over the one socket.
	ShardNetClient = netx.Client
	// ShardNetServer is the replica daemon: it compiles plans from
	// shipped sweep content and executes leases for remote
	// coordinators (NewShardNetServer, ListenAndServeShard).
	ShardNetServer = netx.Server
)

// NewShardNetRegistry returns an empty sweep-content registry.
func NewShardNetRegistry() *ShardNetRegistry { return netx.NewRegistry() }

// DialShardTransport returns a lazily connecting network transport for
// one replica address.
func DialShardTransport(addr string, reg *ShardNetRegistry, opts ShardNetOptions) *ShardNetClient {
	return netx.DialTransport(addr, reg, opts)
}

// NewShardNetServer builds a replica server over a catalog and the
// tech database new registrations compile against.
func NewShardNetServer(cat *ShardCatalog, db *TechDB, opts ShardNetOptions) *ShardNetServer {
	return netx.NewServer(cat, db, opts)
}

// ListenAndServeShard binds addr and serves replica leases until ctx
// is cancelled, then drains gracefully. ready, when non-nil, receives
// the bound address once listening.
func ListenAndServeShard(ctx context.Context, addr string, cat *ShardCatalog, db *TechDB, opts ShardNetOptions, ready func(addr string)) error {
	return netx.ListenAndServe(ctx, addr, cat, db, opts, ready)
}

// ParseShardFaultSpec parses the textual fault-schedule syntax, e.g.
// "drop=0.1,dup=0.05,err=0.05,crash-after=7,delay=2ms,slow=40ms,flap=4,seed=42".
func ParseShardFaultSpec(s string) (ShardFaultSpec, error) { return shard.ParseFaultSpec(s) }

// The replica health fabric (see internal/shard/health): every
// transport is scored by a circuit breaker (consecutive failures plus a
// windowed error rate) and a lease-latency EWMA. Quarantined replicas
// receive single half-open probes on a doubling schedule instead of
// leases; straggling leases are speculatively re-leased to healthy
// replicas once their age passes an adaptive threshold (hedging —
// first-write-wins dedup keeps it bit-exact). ShardConfig.Health tunes
// the breaker, HedgeFactor/HedgeMin the hedging.
type (
	// ShardHealthConfig tunes a replica's circuit breaker and probe
	// schedule (ShardConfig.Health; the zero value derives defaults
	// from the retry policy).
	ShardHealthConfig = health.Config
	// ShardHealthState is a position in the replica health state
	// machine: Healthy, Degraded, Quarantined, HalfOpen.
	ShardHealthState = health.State
	// ShardHealthCounters snapshots one replica's breaker activity
	// (trips, probes, closes).
	ShardHealthCounters = health.Counters
)

// ErrShardAuthFailed is the typed rejection of a coordinator whose
// auth token a replica refused (ecoreplica -auth-token).
var ErrShardAuthFailed = shard.ErrAuthFailed

// TornadoCtx is Tornado with cancellation and engine options. It runs on
// a compiled parameter plan (see ParamPlan) and is bit-identical to
// TornadoReference.
func TornadoCtx(ctx context.Context, base *System, db *TechDB, rel float64, opts ...EngineOption) ([]SensitivityResult, error) {
	return sensitivity.TornadoCtx(ctx, base, db, rel, opts...)
}

// TornadoReference is the uncompiled tornado (a full memo-cached
// evaluation per perturbed point): the oracle and baseline the compiled
// path is tested and benchmarked against.
func TornadoReference(ctx context.Context, base *System, db *TechDB, rel float64, opts ...EngineOption) ([]SensitivityResult, error) {
	return sensitivity.TornadoReference(ctx, base, db, rel, opts...)
}

// UncertaintyCtx is Uncertainty with cancellation and engine options;
// the fixed-seed distribution is bit-identical at any worker count. It
// runs on a compiled parameter plan and is bit-identical to
// UncertaintyReference.
func UncertaintyCtx(ctx context.Context, base *System, db *TechDB, n int, seed int64, opts ...EngineOption) (CarbonDistribution, error) {
	return uncertainty.RunCtx(ctx, base, db, uncertainty.DefaultSpread(), n, seed, opts...)
}

// UncertaintyReference is the uncompiled Monte Carlo (per-sample
// database clone and full memo-cached evaluation): the oracle and
// baseline the compiled path is tested and benchmarked against.
func UncertaintyReference(ctx context.Context, base *System, db *TechDB, n int, seed int64, opts ...EngineOption) (CarbonDistribution, error) {
	return uncertainty.RunReference(ctx, base, db, uncertainty.DefaultSpread(), n, seed, opts...)
}

// Compiled parameter plans (the kernel under sensitivity/uncertainty;
// see internal/kernel for the full evaluation-kernel architecture).
type (
	// ParamPlan is a compiled parameter-perturbation plan: the base
	// system validated and tabulated once, perturbed evaluations
	// recomputing only the sub-models their dirty set invalidates.
	// Compile once with CompileParamPlan, evaluate any number of times;
	// a plan is immutable and safe for concurrent use.
	ParamPlan = kernel.ParamPlan
	// ParamPlanStats counts the work a parameter plan performed
	// (table hits vs recomputes, packaging re-estimates).
	ParamPlanStats = kernel.ParamStats
	// ParamScratch is one worker's reusable evaluation arena for a
	// parameter plan (build with ParamPlan.NewScratch; not safe for
	// concurrent use).
	ParamScratch = kernel.Scratch
	// ParamDirty flags the parameter groups a perturbed evaluation
	// touched (the fourth argument of ParamPlan.Eval).
	ParamDirty = kernel.Dirty
	// ParamTotals is one evaluated point's carbon/cost terms, as
	// returned by ParamPlan.Eval and ParamPlan.Walk (bit-identical to
	// the corresponding Report terms of a direct evaluation).
	ParamTotals = kernel.Totals
)

// ParamDirty flags (see kernel.Dirty for the recompute semantics).
const (
	// ParamDirtyNodes marks a perturbed technology database.
	ParamDirtyNodes = kernel.DirtyNodes
	// ParamDirtyMfg marks a changed System.Mfg.
	ParamDirtyMfg = kernel.DirtyMfg
	// ParamDirtyDesign marks a changed System.Design.
	ParamDirtyDesign = kernel.DirtyDesign
	// ParamDirtyPackaging marks a changed System.Packaging; when the
	// floorplan-shaping inputs (spacing, flexible shapes) are untouched
	// the evaluation reuses the base point's floorplan.
	ParamDirtyPackaging = kernel.DirtyPackaging
	// ParamDirtyAreas marks changed chiplet areas (transistor budgets or
	// node density tables): every per-chiplet sub-model and the whole
	// packaging estimate, floorplan included, recompute.
	ParamDirtyAreas = kernel.DirtyAreas
	// ParamDirtyOperation marks a changed (possibly in-place mutated)
	// System.Operation.
	ParamDirtyOperation = kernel.DirtyOperation
	// ParamDirtyVolume marks changed amortization volumes.
	ParamDirtyVolume = kernel.DirtyVolume
)

// CompileParamPlan builds the compiled parameter-perturbation plan of a
// base (system, database) pair — the shared fast path under TornadoCtx
// and UncertaintyCtx, exposed for servers that evaluate many what-if
// perturbations of one design. Batch studies should drive the plan
// through ParamPlan.Walk, which owns the per-worker scratch reuse and
// the tabulated column folds; ParamPlan.Eval is the single-point seam
// underneath it.
func CompileParamPlan(base *System, db *TechDB) (*ParamPlan, error) {
	return kernel.CompileParams(base, db)
}

// Serving layer (the ecoserve surface).
type (
	// CarbonServer answers concurrent what-if requests (node swaps,
	// area/volume perturbations, disaggregation searches, sweep fronts)
	// off content-keyed compiled-plan caches with single-flight
	// compilation. Warm answers are bit-identical to a cold
	// compile-and-run. Build with NewCarbonServer; expose over HTTP with
	// ServeHandler.
	CarbonServer = serve.Server
	// ServeConfig tunes a CarbonServer (plan-cache bound, engine
	// workers, admission limits); the zero value has production
	// defaults.
	ServeConfig = serve.Config
	// ServeStats snapshots a server's three plan caches (sweep,
	// parameter, disaggregation).
	ServeStats = serve.Stats
	// ServeSweepRequest asks for a node sweep (or its Pareto front) of
	// one system.
	ServeSweepRequest = serve.SweepRequest
	// ServeWhatIfRequest poses one what-if question: a node swap served
	// off the warm sweep plan, or an area/volume perturbation served off
	// the warm parameter plan.
	ServeWhatIfRequest = serve.WhatIfRequest
	// ServeDisaggregateRequest asks for the greedy disaggregation of a
	// system.
	ServeDisaggregateRequest = serve.DisaggregateRequest
	// PlanCacheStats counts one plan cache's hits, misses, coalesced
	// waits, builds and capacity evictions.
	PlanCacheStats = lru.Stats
	// DisaggregationSearch is a retained greedy disaggregation search:
	// compiled once per (system, db) with CompileDisaggregation, Run any
	// number of times — warm runs revisit the memoized candidate tables
	// and return bit-identical plans at a fraction of the cold cost.
	DisaggregationSearch = explore.DisaggregateSearch
)

// NewCarbonServer builds a what-if server over one technology database
// version. The database fixes every plan key, so a db upgrade is a new
// server whose keys all differ.
func NewCarbonServer(db *TechDB, cfg ServeConfig) *CarbonServer { return serve.NewServer(db, cfg) }

// ServeHandler exposes a CarbonServer over HTTP/JSON (POST /v1/sweep,
// /v1/whatif, /v1/disaggregate, /v1/sweep/stream NDJSON; GET /v1/stats).
func ServeHandler(s *CarbonServer) http.Handler { return serve.Handler(s) }

// NewShardCatalogCap returns an in-process plan catalog holding at most
// capacity compiled plans resident (capacity <= 0 means unbounded);
// evicted keys recompile on demand, bit-identically, from their
// registered constructors.
func NewShardCatalogCap(capacity int) *ShardCatalog { return shard.NewCatalogCap(capacity) }

// ParamPlanKey derives the content key of a parameter plan: a stable
// hash of the base system and the technology database. It is the cache
// identity CarbonServer uses for perturbation what-ifs.
func ParamPlanKey(base *System, db *TechDB) (string, error) { return explore.ParamKey(base, db) }

// DisaggregationKey derives the content key of a disaggregation search
// over (base, db) — the cache identity CarbonServer uses for
// disaggregation requests.
func DisaggregationKey(base *System, db *TechDB) (string, error) {
	return explore.DisaggregateKey(base, db)
}

// CompileDisaggregation builds the retained disaggregation search of a
// block-level system description. The search is safe for concurrent Run
// calls (runs serialize internally) and every run returns the same
// bits.
func CompileDisaggregation(base *System, db *TechDB) (*DisaggregationSearch, error) {
	return explore.CompileDisaggregate(base, db)
}
