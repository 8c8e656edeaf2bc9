package shard

import (
	"context"
	"fmt"
	"sync"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/explore"
	"ecochip/internal/lru"
	"ecochip/internal/tech"
)

// Catalog resolves plan keys to compiled plans — the replica-local
// "compile from the (system, db-version) key" seam. Sweep descriptions
// are registered under their derived plan key and compiled lazily —
// single-flight, so concurrent leases for one key share a compile — on
// the replica that first executes a lease for them. Each replica owns
// its own Catalog: compilation is local by design, the point of keying
// plans by content instead of shipping them. Compiled plans live in a
// size-bounded LRU (NewCatalogCap); builders are retained past
// eviction, so a cold key simply recompiles — deterministically, the
// same bits, because the key is a content hash over everything the
// compile reads.
type Catalog struct {
	mu    sync.Mutex
	build map[string]func() (*explore.CompiledPlan, error)
	plans *lru.Cache[*explore.CompiledPlan]
}

// NewCatalog returns an empty catalog with no residency bound.
func NewCatalog() *Catalog { return NewCatalogCap(0) }

// NewCatalogCap returns an empty catalog holding at most capacity
// compiled plans resident (capacity <= 0 means unbounded). A serving
// replica that cycles through more registered sweeps than it has memory
// for sets a bound and lets recompilation backfill on demand.
func NewCatalogCap(capacity int) *Catalog {
	return &Catalog{
		build: make(map[string]func() (*explore.CompiledPlan, error)),
		plans: lru.New[*explore.CompiledPlan](capacity),
	}
}

// RegisterSweep derives the plan key of (base, db, nodes, cp), registers
// its compile constructor under that key and returns the key.
func (c *Catalog) RegisterSweep(base *core.System, db *tech.DB, nodes []int, cp cost.Params) (string, error) {
	key, err := explore.PlanKey(base, db, nodes, cp)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.build[key]; !dup {
		c.build[key] = func() (*explore.CompiledPlan, error) {
			return explore.Compile(base, db, nodes, cp)
		}
	}
	return key, nil
}

// Plan returns the compiled plan for key, compiling (and caching) it on
// first use; ErrPlanUnknown if the key is not registered.
func (c *Catalog) Plan(key string) (*explore.CompiledPlan, error) {
	c.mu.Lock()
	build, ok := c.build[key]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrPlanUnknown, key)
	}
	return c.plans.GetOrBuild(key, build)
}

// Stats snapshots the catalog's plan-cache counters: hits, misses,
// coalesced compiles, builds and capacity evictions.
func (c *Catalog) Stats() lru.Stats { return c.plans.Stats() }

// Resident reports the number of compiled plans currently held.
func (c *Catalog) Resident() int { return c.plans.Len() }

// Replica executes leases against locally compiled plans. It is
// stateless between leases (all retained state lives in the plan's own
// pooled scratches), so any replica can execute any lease of any plan
// its catalog resolves — the property re-leasing depends on. Replica
// implements Transport directly; that IS the in-process loopback.
type Replica struct {
	cat *Catalog
}

// NewReplica builds a replica over a plan catalog. The returned value
// is also the loopback Transport for that replica.
func NewReplica(cat *Catalog) *Replica {
	return &Replica{cat: cat}
}

// Execute implements Transport: compile-or-fetch the lease's plan,
// walk each block of the span, emit each block's result. Blocks are
// emitted in span order; ctx is polled between blocks (and inside the
// walk) so expired leases stop promptly.
func (r *Replica) Execute(ctx context.Context, lease Lease, emit func(BlockResult) error) error {
	plan, err := r.cat.Plan(lease.Key)
	if err != nil {
		return err
	}
	if lease.BlockSize <= 0 || lease.PlanPoints != plan.Combos() {
		return fmt.Errorf("%w: lease (%d points, block size %d) vs plan (%d points)",
			ErrLeaseMismatch, lease.PlanPoints, lease.BlockSize, plan.Combos())
	}
	nb := blockCount(plan.Combos(), lease.BlockSize)
	if lease.Blocks.Lo < 0 || lease.Blocks.Hi > nb || lease.Blocks.Lo > lease.Blocks.Hi {
		return fmt.Errorf("%w: block span [%d,%d) outside the %d-block plan",
			ErrLeaseMismatch, lease.Blocks.Lo, lease.Blocks.Hi, nb)
	}
	var ms []explore.Metric
	if lease.Mode == ModeFront {
		if ms, err = ObjectiveMetrics(lease.Objectives); err != nil {
			return err
		}
	}
	for b := lease.Blocks.Lo; b < lease.Blocks.Hi; b++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := computeBlock(ctx, plan, lease.Mode, ms, b, lease.BlockSize)
		if err != nil {
			return err
		}
		res.Seq = lease.Seq
		if err := emit(res); err != nil {
			return err
		}
	}
	return nil
}
