// Package serve is the long-lived what-if serving layer: a Server
// compiles one SweepPlan / ParamPlan / DisaggregateSearch per (system
// shape, db version) pair — keyed by the explore content hashes — into
// size-bounded single-flight LRU caches, and answers what-if requests
// (node swap, area/volume perturbation, disaggregation search, sweep
// fronts) off warm plans. Requests fan across the engine's worker pool
// and share base tabulations and pooled scratches, so a fleet of
// near-identical what-ifs pays compile cost once and amortized
// evaluation cost per request; every warm answer carries the exact
// float bits of a cold compile-and-run (pinned by the parity suite).
package serve

import (
	"context"
	"fmt"
	"time"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/engine"
	"ecochip/internal/explore"
	"ecochip/internal/kernel"
	"ecochip/internal/lru"
	"ecochip/internal/tech"
)

// DefaultPlanCacheSize bounds each of the three plan caches when the
// config does not say otherwise. Compiled plans are small relative to
// the systems they price (a few MB at EPYC scale including pooled
// scratches), so the default favors hit rate.
const DefaultPlanCacheSize = 64

// Config tunes a Server. The zero value is production-usable.
type Config struct {
	// PlanCacheSize bounds each plan cache (sweep, param, disaggregate)
	// separately: 0 selects DefaultPlanCacheSize, negative means
	// unbounded.
	PlanCacheSize int
	// Workers caps the engine worker fan-out of one request (sweeps,
	// fronts, disaggregation steps). 0 = the engine default
	// (GOMAXPROCS). Results never depend on it.
	Workers int
	// MaxInflight bounds concurrently admitted requests per family
	// (sweep, what-if, disaggregate, stream): 0 selects
	// DefaultMaxInflight, negative disables admission control entirely.
	// An arrival past the bound queues for QueueTimeout, then is shed
	// with an *OverloadError (HTTP 429 + Retry-After).
	MaxInflight int
	// QueueTimeout is how long an over-bound arrival may wait for a slot
	// before shedding (0 = DefaultQueueTimeout).
	QueueTimeout time.Duration
}

func (c Config) withDefaults() Config {
	switch {
	case c.PlanCacheSize == 0:
		c.PlanCacheSize = DefaultPlanCacheSize
	case c.PlanCacheSize < 0:
		c.PlanCacheSize = 0 // lru: unbounded
	}
	return c
}

// paramEntry is one cached parameter plan with its scratch pool: the
// pool spans requests, so warm perturbations reuse the arena (and its
// operational-term memo) instead of rebuilding per call.
type paramEntry struct {
	plan *kernel.ParamPlan
	pool *kernel.ScratchPool
}

// Stats snapshots the server's three plan caches and the admission
// gates.
type Stats struct {
	// Sweeps / Params / Disaggregates are the per-family cache counters.
	Sweeps, Params, Disaggregates lru.Stats
	// Admission is the per-family overload-shedding snapshot.
	Admission AdmissionStats
}

// Server answers what-if requests off content-keyed warm plans. Safe
// for concurrent use; all methods may be called from many goroutines.
type Server struct {
	db     *tech.DB
	keyer  *explore.Keyer
	cfg    Config
	sweeps *lru.Cache[*explore.CompiledPlan]
	params *lru.Cache[*paramEntry]
	disagg *lru.Cache[*explore.DisaggregateSearch]
	admit  *admitter
}

// NewServer builds a server over one technology database version.
// Requests carry systems; the database (and hence every plan key) is
// fixed per server — a db upgrade is a new server whose keys all
// differ, which is the cache-invalidation story.
func NewServer(db *tech.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		db:     db,
		keyer:  explore.NewKeyer(db),
		cfg:    cfg,
		sweeps: lru.New[*explore.CompiledPlan](cfg.PlanCacheSize),
		params: lru.New[*paramEntry](cfg.PlanCacheSize),
		disagg: lru.New[*explore.DisaggregateSearch](cfg.PlanCacheSize),
		admit:  newAdmitter(cfg.MaxInflight, cfg.QueueTimeout),
	}
}

// Stats snapshots the plan-cache and admission counters.
func (s *Server) Stats() Stats {
	return Stats{
		Sweeps:        s.sweeps.Stats(),
		Params:        s.params.Stats(),
		Disaggregates: s.disagg.Stats(),
		Admission:     s.admit.stats(),
	}
}

func (s *Server) engineOpts() []engine.Option {
	if s.cfg.Workers > 0 {
		return []engine.Option{engine.WithWorkers(s.cfg.Workers)}
	}
	return nil
}

// sweepPlan resolves (or compiles, single-flight) the sweep plan of a
// request.
func (s *Server) sweepPlan(sys *core.System, nodes []int, cp cost.Params) (string, *explore.CompiledPlan, error) {
	key, err := s.keyer.SweepKey(sys, nodes, cp)
	if err != nil {
		return "", nil, err
	}
	plan, err := s.sweeps.GetOrBuild(key, func() (*explore.CompiledPlan, error) {
		return explore.Compile(sys, s.db, nodes, cp)
	})
	return key, plan, err
}

// ParseObjectives maps request objective names to explore metrics:
// "embodied", "total", "cost", "area".
func ParseObjectives(names []string) ([]explore.Metric, error) {
	objs := make([]explore.Metric, len(names))
	for i, n := range names {
		switch n {
		case "embodied":
			objs[i] = explore.ByEmbodied
		case "total":
			objs[i] = explore.ByTotal
		case "cost":
			objs[i] = explore.ByCost
		case "area":
			objs[i] = explore.ByArea
		default:
			return nil, fmt.Errorf(`serve: unknown objective %q (want "embodied", "total", "cost" or "area")`, n)
		}
	}
	return objs, nil
}

// SweepRequest asks for a node sweep of one system: every combination
// of Nodes across the system's chiplets, or — with Objectives set —
// only the Pareto front over them.
type SweepRequest struct {
	// System is the design under study (the full core description; its
	// content, not its name, keys the plan cache).
	System *core.System `json:"system"`
	// Nodes is the candidate node list (nm), the sweep's radix.
	Nodes []int `json:"nodes"`
	// Cost overrides the default cost parameters when set.
	Cost *cost.Params `json:"cost,omitempty"`
	// Objectives, when non-empty, reduces the response to the Pareto
	// front under these objectives ("embodied", "total", "cost",
	// "area").
	Objectives []string `json:"objectives,omitempty"`
}

func (r *SweepRequest) costParams() cost.Params {
	if r.Cost != nil {
		return *r.Cost
	}
	return cost.DefaultParams()
}

// SweepResponse carries the sweep's points (all of them, or the front).
type SweepResponse struct {
	// Key is the plan's content key — the cache identity the request
	// resolved to.
	Key string `json:"key"`
	// Total is the full combination count the plan covers.
	Total int `json:"total"`
	// Front reports whether Points is a Pareto front (true) or the full
	// mixed-radix point slice (false).
	Front bool `json:"front"`
	// Points are the sweep results, bit-identical to a cold
	// explore run of the same request.
	Points []explore.Point `json:"points"`
}

// Sweep runs a (possibly warm) compiled sweep.
func (s *Server) Sweep(ctx context.Context, req *SweepRequest) (*SweepResponse, error) {
	release, err := s.admit.sweep.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	if req.System == nil {
		return nil, fmt.Errorf("serve: sweep request carries no system")
	}
	key, plan, err := s.sweepPlan(req.System, req.Nodes, req.costParams())
	if err != nil {
		return nil, err
	}
	resp := &SweepResponse{Key: key, Total: plan.Combos()}
	if len(req.Objectives) > 0 {
		ms, err := ParseObjectives(req.Objectives)
		if err != nil {
			return nil, err
		}
		front, _, err := plan.ParetoFrontCtx(ctx, ms, s.engineOpts()...)
		if err != nil {
			return nil, err
		}
		resp.Front = true
		resp.Points = front
		return resp, nil
	}
	pts, err := plan.RunCtx(ctx, s.engineOpts()...)
	if err != nil {
		return nil, err
	}
	resp.Points = pts
	return resp, nil
}

// WhatIfRequest is one interactive question about a system. Exactly one
// of the two question families must be posed:
//
//   - Swap (with Nodes): "what if these chiplets moved to these nodes?"
//     Answered off the warm sweep plan via a single-point Gray-code
//     inversion; every node involved must be in Nodes.
//   - AreaScale / VolumeScale: "what if this die grew 10%?", "what if
//     we built 1M units?" Answered off the warm parameter plan with the
//     matching dirty set, so an amortization question recomputes no die
//     sub-model at all.
type WhatIfRequest struct {
	System *core.System `json:"system"`
	// Nodes is the sweep plan's candidate node list; required for Swap
	// (it fixes the plan the answer is served from).
	Nodes []int `json:"nodes,omitempty"`
	// Cost overrides the default cost parameters (swap path only).
	Cost *cost.Params `json:"cost,omitempty"`
	// Swap maps chiplet names to their what-if node (nm). Unnamed
	// chiplets keep their current node.
	Swap map[string]int `json:"swap,omitempty"`
	// AreaScale maps chiplet names to a transistor-budget scale factor.
	AreaScale map[string]float64 `json:"areaScale,omitempty"`
	// VolumeScale scales the system volume and every chiplet's
	// manufactured parts (0 = untouched).
	VolumeScale float64 `json:"volumeScale,omitempty"`
}

// WhatIfResponse is the answer to one what-if. Point is set for swap
// questions (full sweep-point shape, including dollar cost); Totals for
// perturbation questions (the carbon/area/yield decomposition of the
// parameter plan).
type WhatIfResponse struct {
	Key string `json:"key"`
	// Source names the plan family that served the answer: "sweep" or
	// "param".
	Source string         `json:"source"`
	Point  *explore.Point `json:"point,omitempty"`
	Totals *kernel.Totals `json:"totals,omitempty"`
}

// WhatIf answers one what-if question off the matching warm plan.
func (s *Server) WhatIf(ctx context.Context, req *WhatIfRequest) (*WhatIfResponse, error) {
	release, err := s.admit.whatif.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	if req.System == nil {
		return nil, fmt.Errorf("serve: what-if request carries no system")
	}
	swap := len(req.Swap) > 0
	perturb := len(req.AreaScale) > 0 || req.VolumeScale != 0
	switch {
	case swap && perturb:
		return nil, fmt.Errorf("serve: a what-if poses either a node swap or a perturbation, not both")
	case swap:
		return s.whatIfSwap(ctx, req)
	case perturb:
		return s.whatIfPerturb(ctx, req)
	default:
		return nil, fmt.Errorf("serve: empty what-if (set swap, areaScale or volumeScale)")
	}
}

func (s *Server) whatIfSwap(ctx context.Context, req *WhatIfRequest) (*WhatIfResponse, error) {
	if len(req.Nodes) == 0 {
		return nil, fmt.Errorf("serve: a swap what-if needs the candidate node list (nodes)")
	}
	for name := range req.Swap {
		if chipletIndex(req.System, name) < 0 {
			return nil, fmt.Errorf("serve: swap names unknown chiplet %q", name)
		}
	}
	key, plan, err := s.sweepPlan(req.System, req.Nodes, req.costParams())
	if err != nil {
		return nil, err
	}
	assignment := make([]int, len(req.System.Chiplets))
	for i, c := range req.System.Chiplets {
		assignment[i] = c.NodeNm
		if nm, ok := req.Swap[c.Name]; ok {
			assignment[i] = nm
		}
	}
	pt, err := plan.EvalPoint(ctx, assignment)
	if err != nil {
		return nil, err
	}
	return &WhatIfResponse{Key: key, Source: "sweep", Point: &pt}, nil
}

func (r *WhatIfRequest) costParams() cost.Params {
	if r.Cost != nil {
		return *r.Cost
	}
	return cost.DefaultParams()
}

func chipletIndex(s *core.System, name string) int {
	for i, c := range s.Chiplets {
		if c.Name == name {
			return i
		}
	}
	return -1
}

func (s *Server) whatIfPerturb(ctx context.Context, req *WhatIfRequest) (*WhatIfResponse, error) {
	key, err := s.keyer.ParamKey(req.System)
	if err != nil {
		return nil, err
	}
	entry, err := s.params.GetOrBuild(key, func() (*paramEntry, error) {
		plan, err := kernel.CompileParams(req.System, s.db)
		if err != nil {
			return nil, err
		}
		return &paramEntry{plan: plan, pool: kernel.NewScratchPool(plan.NewScratch)}, nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Build the perturbed system the way the tornado factors do: a
	// shallow clone with its own chiplet slice, dirty flags matching
	// exactly what was touched.
	sys := *req.System
	sys.Chiplets = append([]core.Chiplet(nil), req.System.Chiplets...)
	var dirty kernel.Dirty
	if len(req.AreaScale) > 0 {
		dirty |= kernel.DirtyAreas
		for name, f := range req.AreaScale {
			i := chipletIndex(&sys, name)
			if i < 0 {
				return nil, fmt.Errorf("serve: areaScale names unknown chiplet %q", name)
			}
			if f <= 0 {
				return nil, fmt.Errorf("serve: areaScale[%q] = %v, want > 0", name, f)
			}
			sys.Chiplets[i].Transistors *= f
		}
	}
	if req.VolumeScale != 0 {
		if req.VolumeScale < 0 {
			return nil, fmt.Errorf("serve: volumeScale = %v, want > 0", req.VolumeScale)
		}
		dirty |= kernel.DirtyVolume
		vol := sys.SystemVolume
		if vol == 0 {
			vol = core.DefaultVolume
		}
		sys.SystemVolume = max(1, int(float64(vol)*req.VolumeScale))
		for i := range sys.Chiplets {
			parts := sys.Chiplets[i].ManufacturedParts
			if parts == 0 {
				parts = core.DefaultVolume
			}
			sys.Chiplets[i].ManufacturedParts = max(1, int(float64(parts)*req.VolumeScale))
		}
	}

	sc, err := entry.pool.Get()
	if err != nil {
		return nil, err
	}
	defer entry.pool.Put(sc)
	totals, err := entry.plan.Eval(sc, &sys, s.db, dirty)
	if err != nil {
		return nil, err
	}
	return &WhatIfResponse{Key: key, Source: "param", Totals: &totals}, nil
}

// DisaggregateRequest asks for the greedy disaggregation of a system's
// block-level description.
type DisaggregateRequest struct {
	System *core.System `json:"system"`
}

// DisaggregateResponse is the search result (the explore.Plan shape,
// minus the full result system).
type DisaggregateResponse struct {
	Key string `json:"key"`
	// Groups lists each result die's absorbed blocks, in the canonical
	// sorted order.
	Groups     [][]string `json:"groups"`
	EmbodiedKg float64    `json:"embodiedKg"`
	InitialKg  float64    `json:"initialKg"`
	Steps      int        `json:"steps"`
}

// Disaggregate runs a (possibly warm) retained disaggregation search. A
// warm run revisits the search's memoized candidate tables and answers
// at a small fraction of the cold cost, bit-identically.
func (s *Server) Disaggregate(ctx context.Context, req *DisaggregateRequest) (*DisaggregateResponse, error) {
	release, err := s.admit.disagg.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	if req.System == nil {
		return nil, fmt.Errorf("serve: disaggregate request carries no system")
	}
	key, err := s.keyer.DisaggregateKey(req.System)
	if err != nil {
		return nil, err
	}
	ds, err := s.disagg.GetOrBuild(key, func() (*explore.DisaggregateSearch, error) {
		return explore.CompileDisaggregate(req.System, s.db)
	})
	if err != nil {
		return nil, err
	}
	plan, err := ds.Run(ctx, s.engineOpts()...)
	if err != nil {
		return nil, err
	}
	return &DisaggregateResponse{
		Key:        key,
		Groups:     plan.Groups,
		EmbodiedKg: plan.EmbodiedKg,
		InitialKg:  plan.InitialKg,
		Steps:      plan.Steps,
	}, nil
}

// StreamFront runs a sweep in streaming front mode: snapshots of the
// monotonically tightening Pareto front go to emit as the warm plan's
// walk covers each 512-point block, and the exact final front — the
// bits of Sweep with the same objectives — is returned.
func (s *Server) StreamFront(ctx context.Context, req *SweepRequest, emit func(explore.FrontSnapshot) error) (*SweepResponse, error) {
	release, err := s.admit.stream.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	if req.System == nil {
		return nil, fmt.Errorf("serve: stream request carries no system")
	}
	if len(req.Objectives) == 0 {
		return nil, fmt.Errorf("serve: a streamed front needs objectives")
	}
	ms, err := ParseObjectives(req.Objectives)
	if err != nil {
		return nil, err
	}
	key, plan, err := s.sweepPlan(req.System, req.Nodes, req.costParams())
	if err != nil {
		return nil, err
	}
	front, total, err := plan.ParetoFrontStream(ctx, ms, emit, s.engineOpts()...)
	if err != nil {
		return nil, err
	}
	return &SweepResponse{Key: key, Total: total, Front: true, Points: front}, nil
}
