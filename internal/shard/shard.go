// Package shard is the fault-tolerant distributed execution layer for
// compiled sweeps: a coordinator partitions a plan's Gray-code sequence
// space into fixed-size blocks and hands out *leased block ranges*
// (lease = contiguous block span + sequence number + deadline) to
// stateless replicas, which compile the plan locally from its
// (system, db-version) key — see explore.PlanKey — and stream per-block
// results back.
//
// Robustness is the design center, and it rests on one invariant the
// rest of the repository already guarantees: blocks are deterministic.
// A block's points are a pure function of the plan key and the block
// id (explore.CompiledPlan.WalkRange is bit-identical wherever and
// whenever it runs), which collapses the classic distributed-failure
// taxonomy into bookkeeping:
//
//   - Lost or dropped results, crashed replicas, expired leases: the
//     coordinator re-leases the missing blocks to surviving replicas
//     (with exponential backoff + jitter between retries of a failing
//     replica). Recomputation cannot diverge from the lost result.
//   - Duplicate deliveries and straggler leases that complete after
//     being re-leased: first write wins, keyed by block id and recorded
//     with the winning lease's sequence number. Both writes carry the
//     same bits, so dedup order is unobservable in the output.
//   - Total replica loss: the coordinator degrades to walking the
//     remaining blocks itself on the single-process path (a logged
//     fallback, not an error), unless Config.DisableFallback asks for
//     a typed *ExhaustedError instead.
//
// The result is reassembled in exact mixed-radix order (every point is
// addressed by its output slot), or reduced to a Pareto front by
// merging per-block skyline survivors at the barrier the same way
// explore.ParetoFrontCtx merges per-worker fronts. Either way the
// output is bit-identical to running the plan locally — the chaos
// suite drives random fault schedules through the fault-injection
// Transport wrapper (Fault) to hold that line.
package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ecochip/internal/explore"
)

// BlockRange is a contiguous half-open span of block ids.
type BlockRange struct {
	Lo, Hi int
}

// Len returns the number of blocks in the span.
func (r BlockRange) Len() int { return r.Hi - r.Lo }

// Mode selects what a replica ships per block: every point of the
// block, or only the block's skyline-front survivors.
type Mode uint8

const (
	// ModePoints streams every point of each block (the reassembling
	// sweep shape).
	ModePoints Mode = iota
	// ModeFront streams only each block's Pareto-front survivors under
	// the lease's objectives (the reduced wire-traffic front shape).
	ModeFront
)

// Objective names a standard sweep metric in wire-encodable form, so a
// lease can carry front objectives without shipping function values.
type Objective uint8

const (
	// ObjEmbodied minimizes embodied carbon (explore.ByEmbodied).
	ObjEmbodied Objective = iota
	// ObjTotal minimizes total lifetime carbon (explore.ByTotal).
	ObjTotal
	// ObjCost minimizes dollar cost (explore.ByCost).
	ObjCost
	// ObjArea minimizes package footprint (explore.ByArea).
	ObjArea
)

// Metric resolves the objective to its explore metric.
func (o Objective) Metric() (explore.Metric, error) {
	switch o {
	case ObjEmbodied:
		return explore.ByEmbodied, nil
	case ObjTotal:
		return explore.ByTotal, nil
	case ObjCost:
		return explore.ByCost, nil
	case ObjArea:
		return explore.ByArea, nil
	}
	return nil, fmt.Errorf("shard: unknown objective %d", o)
}

// ObjectiveMetrics resolves a lease's objective list.
func ObjectiveMetrics(objs []Objective) ([]explore.Metric, error) {
	ms := make([]explore.Metric, len(objs))
	for i, o := range objs {
		m, err := o.Metric()
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	return ms, nil
}

// Lease grants one replica a block span of one plan. Seq is the
// coordinator's monotone grant number (recorded with each completed
// block, so the winning computation of a re-leased block is
// identifiable); Deadline is advisory for the replica — the
// coordinator's own watchdog is the authoritative expiry, after which
// the span's incomplete blocks are re-leased and late results
// deduplicate harmlessly.
type Lease struct {
	// Key identifies the plan; replicas compile it locally (Catalog).
	Key string
	// Seq is the grant sequence number.
	Seq uint64
	// Blocks is the leased block span.
	Blocks BlockRange
	// BlockSize is the plan-wide points-per-block quantum.
	BlockSize int
	// PlanPoints is the plan's total point count — a cheap integrity
	// check that both sides compiled the same space.
	PlanPoints int
	// Mode selects point streaming or per-block front reduction.
	Mode Mode
	// Objectives are the front objectives (ModeFront only).
	Objectives []Objective
	// Deadline is the advisory lease expiry instant.
	Deadline time.Time
}

// BlockResult is one completed block streamed back to the coordinator:
// the block's points (all of them in ModePoints, the front survivors in
// ModeFront) with each point's mixed-radix output slot in the parallel
// Slots array. A Gray-walked block covers a scattered-but-deterministic
// slot set, so slots are always explicit.
type BlockResult struct {
	// Seq echoes the executing lease's sequence number.
	Seq uint64
	// Block is the completed block id.
	Block int
	// Slots are the points' output slots (ascending within a block).
	Slots []int
	// Points are the evaluated points, parallel to Slots; Nodes slices
	// are owned by the result (deep-copied from the walk's scratch).
	Points []explore.Point
}

// Transport carries leases to one replica endpoint and streams its
// per-block results back. Execute runs one lease to completion,
// invoking emit once per completed block (from a single goroutine, in
// any block order); it returns nil when every block of the span was
// emitted, or the error that stopped it. Implementations must honor
// ctx cancellation between blocks — the coordinator cancels the
// context of expired leases and of completed runs.
type Transport interface {
	Execute(ctx context.Context, lease Lease, emit func(BlockResult) error) error
}

// Typed failure classes of the shard layer.
var (
	// ErrPlanUnknown reports a replica that cannot resolve a lease's
	// plan key (catalog skew between coordinator and replica).
	ErrPlanUnknown = errors.New("shard: plan key not in the replica catalog")
	// ErrReplicaDown reports a permanently failed replica; the
	// coordinator retires it immediately instead of retrying.
	ErrReplicaDown = errors.New("shard: replica down")
	// ErrLeaseMismatch reports a lease whose geometry (point count,
	// block size) disagrees with the replica's locally compiled plan.
	ErrLeaseMismatch = errors.New("shard: lease geometry does not match the compiled plan")
	// ErrBadResult reports a structurally malformed block result
	// (wrong point count, out-of-range slots); the delivering lease
	// fails and the block is re-leased.
	ErrBadResult = errors.New("shard: malformed block result")
	// ErrAuthFailed reports a replica that rejected the coordinator's
	// shared-secret credentials — a configuration failure (distinct
	// from the db-skew key mismatch of ErrPlanUnknown) that retries
	// cannot heal, so the coordinator retires the transport for the run.
	ErrAuthFailed = errors.New("shard: replica rejected credentials")
)

// ExhaustedError is returned (only under Config.DisableFallback) when
// every replica was lost or retired before the sweep completed.
type ExhaustedError struct {
	// Remaining is the number of blocks never completed.
	Remaining int
	// ReplicasLost is the number of replicas retired during the run.
	ReplicasLost int
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("shard: %d blocks unassigned after losing %d replicas (local fallback disabled)",
		e.Remaining, e.ReplicasLost)
}

// blockSpan returns the point span [lo, hi) of block b in a plan of
// `points` points at the given block size.
func blockSpan(b, blockSize, points int) (int, int) {
	lo := b * blockSize
	hi := lo + blockSize
	if hi > points {
		hi = points
	}
	return lo, hi
}

// blockCount returns the number of blocks covering `points` points.
func blockCount(points, blockSize int) int {
	return (points + blockSize - 1) / blockSize
}

// ComputeBlock evaluates one block of the plan on the calling
// goroutine: the shared execution seam of replicas and the
// coordinator's local fallback, so every path produces byte-identical
// BlockResults. In ModeFront the block's points are folded through a
// skyline front over the given objectives and only the survivors are
// returned, sorted by slot.
func ComputeBlock(plan *explore.CompiledPlan, mode Mode, objectives []explore.Metric, block, blockSize int) (BlockResult, error) {
	return computeBlock(context.Background(), plan, mode, objectives, block, blockSize)
}

func computeBlock(ctx context.Context, plan *explore.CompiledPlan, mode Mode, objectives []explore.Metric, block, blockSize int) (BlockResult, error) {
	lo, hi := blockSpan(block, blockSize, plan.Combos())
	res := BlockResult{Block: block}
	switch mode {
	case ModePoints:
		res.Slots = make([]int, 0, hi-lo)
		res.Points = make([]explore.Point, 0, hi-lo)
		err := plan.WalkRange(ctx, lo, hi, func(idx int, pt *explore.Point) error {
			cp := *pt
			cp.Nodes = append([]int(nil), pt.Nodes...)
			res.Slots = append(res.Slots, idx)
			res.Points = append(res.Points, cp)
			return nil
		})
		if err != nil {
			return BlockResult{}, err
		}
	case ModeFront:
		if len(objectives) == 0 {
			return BlockResult{}, fmt.Errorf("shard: ModeFront block with no objectives")
		}
		var err error
		if res.Slots, res.Points, err = plan.WalkRangeFront(ctx, lo, hi, objectives); err != nil {
			return BlockResult{}, err
		}
	default:
		return BlockResult{}, fmt.Errorf("shard: unknown mode %d", mode)
	}
	return res, nil
}
