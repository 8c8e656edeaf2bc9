package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ecochip/internal/explore"
	"ecochip/internal/shard/health"
)

// Config tunes the coordinator's lease protocol. The zero value is
// usable: every field has a production default.
type Config struct {
	// BlockSize is the points-per-block quantum (default 512). Smaller
	// blocks mean finer re-lease granularity after failures at the cost
	// of more protocol traffic and more Gray-walk block inits.
	BlockSize int
	// LeaseBlocks caps the blocks per lease (default 4).
	LeaseBlocks int
	// LeaseTimeout is the watchdog deadline per lease (default 2s):
	// past it the lease's incomplete blocks are re-leased to surviving
	// replicas and its context is cancelled. Late results from the
	// original replica deduplicate harmlessly.
	LeaseTimeout time.Duration
	// RetryBackoff is the base delay before retrying a replica after a
	// transient failure (default 5ms); doubled per consecutive failure
	// up to BackoffMax (default 250ms), with uniform jitter over the
	// top half of the interval to decorrelate replica retry storms.
	RetryBackoff time.Duration
	// BackoffMax caps the exponential backoff.
	BackoffMax time.Duration
	// MaxRetries is the consecutive-failure budget per replica
	// (default 3); past it the replica's circuit breaker opens and the
	// replica is quarantined — probed and rejoined if it recovers,
	// retired for the run once its probe budget is spent too
	// (health.Config.MaxProbes).
	MaxRetries int
	// Seed seeds the backoff jitter (deterministic per replica index).
	Seed int64
	// DisableFallback turns the total-replica-loss degradation into a
	// typed *ExhaustedError instead of a local walk — for deployments
	// where the coordinator must not absorb compute.
	DisableFallback bool
	// Health tunes the per-replica circuit breakers and latency
	// trackers. Zero fields default sensibly; in particular TripAfter
	// defaults to MaxRetries+1 (the old retire threshold becomes the
	// trip threshold) and ProbeAfter to BackoffMax.
	Health health.Config
	// HedgeFactor scales the cross-replica EWMA lease latency into the
	// adaptive straggler threshold (default 3): an outstanding lease
	// older than EWMA×HedgeFactor is speculatively re-leased to a
	// healthy replica. Blocks are deterministic and delivery is
	// first-write-wins, so a hedge can change timing but never bits.
	HedgeFactor float64
	// HedgeMin floors the straggler threshold (default 25ms) so warm
	// sub-millisecond EWMAs cannot hedge every lease.
	HedgeMin time.Duration
	// DisableHedging turns speculative re-leases off.
	DisableHedging bool
	// Logf, when set, receives protocol events worth operator eyes
	// (currently: fallback activation). Default: silent.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 512
	}
	if c.LeaseBlocks <= 0 {
		c.LeaseBlocks = 4
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 2 * time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 250 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.HedgeFactor <= 0 {
		c.HedgeFactor = 3
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 25 * time.Millisecond
	}
	return c
}

// healthConfig derives the tracker config: unset breaker thresholds
// inherit the lease protocol's retry knobs so one knob set scales both.
func (c Config) healthConfig() health.Config {
	h := c.Health
	if h.TripAfter <= 0 {
		h.TripAfter = c.MaxRetries + 1
	}
	if h.ProbeAfter <= 0 {
		h.ProbeAfter = c.BackoffMax
	}
	return h
}

// Stats is a snapshot of the coordinator's protocol counters,
// cumulative across runs. Its String is the summary ecodse prints
// under -progress.
type Stats struct {
	// LeasesGranted counts leases handed to replicas; LeasesExpired the
	// subset whose watchdog fired before the span completed.
	LeasesGranted, LeasesExpired uint64
	// BlocksRequeued counts block re-leases: blocks returned to the
	// pending queue by expiry, replica failure or lost results.
	BlocksRequeued uint64
	// BlocksCompleted counts first-delivery block completions;
	// BlocksDeduped the discarded double-completions (first write wins);
	// BlocksLocal the blocks absorbed by the coordinator's fallback.
	BlocksCompleted, BlocksDeduped, BlocksLocal uint64
	// ReplicaFailures counts transient Execute errors; ReplicasLost the
	// replicas retired (crash, auth rejection, or probe budget spent).
	ReplicaFailures, ReplicasLost uint64
	// Fallbacks counts local-walk degradations (total replica loss).
	Fallbacks uint64
	// HedgesFired counts straggling leases whose remaining blocks were
	// speculatively re-leased; HedgesWon the hedged blocks that
	// completed under the hedge rather than the original; and
	// HedgesCancelled the losing leases cancelled early because every
	// block of their span completed under another lease.
	HedgesFired, HedgesWon, HedgesCancelled uint64
	// BreakerTrips / BreakerProbes / BreakerCloses count circuit-breaker
	// transitions across the replica set: openings (→ quarantined),
	// half-open probe entries, and probe successes closing the breaker.
	BreakerTrips, BreakerProbes, BreakerCloses uint64
	// Wire aggregates the wire-level counters of the coordinator's
	// counted transports (zero for pure loopback runs).
	Wire TransportCounters
}

func (s Stats) String() string {
	out := fmt.Sprintf("shard: %d leases granted (%d expired), %d blocks re-leased, %d completed (%d deduped, %d local), %d replica failures (%d replicas lost), %d fallbacks",
		s.LeasesGranted, s.LeasesExpired, s.BlocksRequeued, s.BlocksCompleted, s.BlocksDeduped, s.BlocksLocal,
		s.ReplicaFailures, s.ReplicasLost, s.Fallbacks)
	if s.HedgesFired+s.HedgesWon+s.HedgesCancelled+s.BreakerTrips+s.BreakerProbes+s.BreakerCloses > 0 {
		out += fmt.Sprintf("\nhealth: %d hedges fired (%d blocks won, %d leases cancelled), breaker %d trips / %d probes / %d closes",
			s.HedgesFired, s.HedgesWon, s.HedgesCancelled, s.BreakerTrips, s.BreakerProbes, s.BreakerCloses)
	}
	if !s.Wire.IsZero() {
		out += "\n" + s.Wire.String()
	}
	return out
}

// Coordinator drives one compiled plan across a set of replica
// transports under the lease protocol. It is safe for sequential
// reuse (Sweep / ParetoFront any number of times); stats accumulate,
// and per-replica health state (breakers, latency EWMAs) carries
// across runs so a replica quarantined in one run is probed — not
// blindly trusted — by the next.
type Coordinator struct {
	plan       *explore.CompiledPlan
	key        string
	transports []Transport
	cfg        Config
	healthCfg  health.Config
	leaseEwma  *health.Ewma

	mu       sync.Mutex
	trackers map[Transport]*health.Tracker

	driveSeq atomic.Int64

	leasesGranted, leasesExpired, blocksRequeued  atomic.Uint64
	blocksCompleted, blocksDeduped, blocksLocal   atomic.Uint64
	replicaFailures, replicasLost, fallbacksTotal atomic.Uint64
	hedgesFired, hedgesWon, hedgesCancelled       atomic.Uint64
}

// NewCoordinator builds a coordinator for the plan (compiled by the
// caller — the coordinator needs it for geometry, result assembly and
// the degradation path) identified by key (explore.PlanKey of the same
// inputs) over the given replica transports. An empty transport list
// is legal: every run degrades to the local walk.
func NewCoordinator(plan *explore.CompiledPlan, key string, transports []Transport, cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	return &Coordinator{
		plan:       plan,
		key:        key,
		transports: append([]Transport(nil), transports...),
		cfg:        cfg,
		healthCfg:  cfg.healthConfig(),
		leaseEwma:  health.NewEwma(cfg.Health.Alpha),
		trackers:   make(map[Transport]*health.Tracker),
	}
}

// tracker returns t's health tracker, creating it on first use.
// Pipelined lease slots of the same transport value share one tracker,
// so a replica's health is judged per replica, not per slot.
func (c *Coordinator) tracker(t Transport) *health.Tracker {
	c.mu.Lock()
	defer c.mu.Unlock()
	tr := c.trackers[t]
	if tr == nil {
		tr = health.New(c.healthCfg)
		c.trackers[t] = tr
	}
	return tr
}

// hedgeDelay derives the adaptive straggler threshold for a fresh
// lease: the cross-replica EWMA of lease latencies × HedgeFactor,
// floored at HedgeMin. Hedging is off until the EWMA has a sample
// (nothing to adapt to), with fewer than two transports (nobody to
// hedge to), and at or past LeaseTimeout (expiry re-leases anyway).
func (c *Coordinator) hedgeDelay() (time.Duration, bool) {
	if c.cfg.DisableHedging {
		return 0, false
	}
	if len(c.transports) < 2 {
		return 0, false
	}
	e := c.leaseEwma.Value()
	if e <= 0 {
		return 0, false
	}
	d := time.Duration(float64(e) * c.cfg.HedgeFactor)
	if d < c.cfg.HedgeMin {
		d = c.cfg.HedgeMin
	}
	if d >= c.cfg.LeaseTimeout {
		return 0, false
	}
	return d, true
}

// Stats snapshots the protocol counters, including the summed
// wire-level counters of the distinct counted transports (one entry
// per transport value: passing the same network client several times
// to pipeline leases over its socket does not double-count it) and the
// breaker-transition counters summed across replica health trackers.
func (c *Coordinator) Stats() Stats {
	var wire TransportCounters
	var hc health.Counters
	c.mu.Lock()
	seen := make(map[Transport]bool, len(c.transports))
	for _, t := range c.transports {
		ct, ok := t.(CountedTransport)
		if !ok || seen[t] {
			continue
		}
		seen[t] = true
		wire.add(ct.TransportCounters())
	}
	for _, tr := range c.trackers {
		hc.Add(tr.Counters())
	}
	c.mu.Unlock()
	return Stats{
		Wire:            wire,
		LeasesGranted:   c.leasesGranted.Load(),
		LeasesExpired:   c.leasesExpired.Load(),
		BlocksRequeued:  c.blocksRequeued.Load(),
		BlocksCompleted: c.blocksCompleted.Load(),
		BlocksDeduped:   c.blocksDeduped.Load(),
		BlocksLocal:     c.blocksLocal.Load(),
		ReplicaFailures: c.replicaFailures.Load(),
		ReplicasLost:    c.replicasLost.Load(),
		Fallbacks:       c.fallbacksTotal.Load(),
		HedgesFired:     c.hedgesFired.Load(),
		HedgesWon:       c.hedgesWon.Load(),
		HedgesCancelled: c.hedgesCancelled.Load(),
		BreakerTrips:    hc.Trips,
		BreakerProbes:   hc.Probes,
		BreakerCloses:   hc.Closes,
	}
}

// Sweep executes the full plan across the replicas and returns every
// point in exact mixed-radix order — bit-identical to plan.RunCtx on
// one process, whatever the failure pattern (or a typed error).
func (c *Coordinator) Sweep(ctx context.Context) ([]explore.Point, error) {
	results := make([]explore.Point, c.plan.Combos())
	sink := func(res BlockResult) {
		for i, slot := range res.Slots {
			results[slot] = res.Points[i]
		}
	}
	if err := c.run(ctx, ModePoints, nil, sink); err != nil {
		return nil, err
	}
	return results, nil
}

// ParetoFront executes the plan in front mode: replicas ship only each
// block's skyline survivors, the coordinator merges them at the
// barrier (slot order restored, one final ParetoFront pass) exactly as
// plan.ParetoFrontCtx merges its per-worker fronts. Returns the front
// and the total number of points the sweep covered.
func (c *Coordinator) ParetoFront(ctx context.Context, objectives []Objective) ([]explore.Point, int, error) {
	if len(objectives) == 0 {
		return nil, 0, fmt.Errorf("shard: ParetoFront needs at least one objective")
	}
	ms, err := ObjectiveMetrics(objectives)
	if err != nil {
		return nil, 0, err
	}
	type slotPoint struct {
		slot int
		pt   explore.Point
	}
	var survivors []slotPoint
	sink := func(res BlockResult) {
		for i, slot := range res.Slots {
			survivors = append(survivors, slotPoint{slot, res.Points[i]})
		}
	}
	if err := c.run(ctx, ModeFront, objectives, sink); err != nil {
		return nil, 0, err
	}
	// Restore global slot order so the final pass sees candidates
	// exactly as the single-process merge would; ties and duplicates
	// then resolve identically.
	sort.Slice(survivors, func(a, b int) bool { return survivors[a].slot < survivors[b].slot })
	points := make([]explore.Point, len(survivors))
	for i, s := range survivors {
		points[i] = s.pt
	}
	return explore.ParetoFront(points, ms...), c.plan.Combos(), nil
}

// FrontSnapshot is explore.FrontSnapshot, kept under its shard name
// so callers that typed their stream emitters against this package
// still compile after streamed fronts moved into the plan's own walk.
type FrontSnapshot = explore.FrontSnapshot

// leaseRec is the coordinator-side state of one outstanding lease.
type leaseRec struct {
	lease     Lease
	remaining map[int]bool // blocks not yet delivered under any lease
	expired   bool
	released  bool
	// satisfied marks a lease cancelled early because every block of
	// its span completed under other leases (the losing side of a
	// hedge race) — not a replica failure.
	satisfied bool
	// hedged marks a lease whose remaining blocks were speculatively
	// re-leased after it exceeded the straggler threshold.
	hedged     bool
	cancel     context.CancelFunc
	timer      *time.Timer
	hedgeTimer *time.Timer
}

// runState is the mutable state of one coordinator run. All fields are
// guarded by mu; cond broadcasts wake acquire waiters on every state
// change that could unblock them (requeue, completion, cancellation).
type runState struct {
	c          *Coordinator
	mode       Mode
	objectives []Objective

	mu          sync.Mutex
	cond        *sync.Cond
	pending     []int  // sorted block ids awaiting a lease
	queued      []bool // mirrors pending membership (no double-queue)
	done        []bool
	doneCount   int
	nb          int
	nextSeq     uint64
	outstanding map[*leaseRec]struct{}
	hedgeBlocks map[int]uint64    // hedged block -> straggler lease seq
	sink        func(BlockResult) // called under mu; slots pre-validated
	complete    chan struct{}
}

func (c *Coordinator) run(ctx context.Context, mode Mode, objectives []Objective, sink func(BlockResult)) error {
	combos := c.plan.Combos()
	nb := blockCount(combos, c.cfg.BlockSize)
	r := &runState{c: c, mode: mode, objectives: objectives, nb: nb, sink: sink,
		done: make([]bool, nb), queued: make([]bool, nb), pending: make([]int, nb),
		outstanding: make(map[*leaseRec]struct{}), hedgeBlocks: make(map[int]uint64),
		complete: make(chan struct{})}
	r.cond = sync.NewCond(&r.mu)
	for b := range r.pending {
		r.pending[b] = b
		r.queued[b] = true
	}
	if combos == 0 {
		return ctx.Err()
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// cond.Wait cannot watch a context; wake every waiter when the run
	// context dies so acquire loops can observe it.
	stopWake := context.AfterFunc(runCtx, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer stopWake()

	c.mu.Lock()
	// A fresh run grants every quarantined replica a fresh probe
	// budget: retirement is per run, rejoining is the default.
	for _, tr := range c.trackers {
		tr.Reset()
	}
	c.mu.Unlock()

	// One lease goroutine per transport entry; driversDone closes once
	// every one has returned (all retired, or the run is over). They are
	// spawned under r.mu, so no lease is granted before every driver
	// exists.
	var drivers sync.WaitGroup
	r.mu.Lock()
	for _, t := range c.transports {
		drivers.Add(1)
		go func() {
			defer drivers.Done()
			r.drive(runCtx, t)
		}()
	}
	r.mu.Unlock()
	driversDone := make(chan struct{})
	go func() {
		drivers.Wait()
		close(driversDone)
	}()
	// The run returns only after every driver has: a driver still
	// unwinding a cancelled lease (a straggler, or the lease whose last
	// block completed the run) runs its transport's per-lease cleanup —
	// netx drops the lease's routing entry — before the sweep is over.
	defer func() {
		cancel()
		<-driversDone
	}()

	select {
	case <-r.complete:
		cancel() // release straggler leases promptly; their late results dedup
	case <-driversDone:
		// Every replica retired (or the run completed and they drained).
	case <-ctx.Done():
		cancel()
		return ctx.Err()
	}

	r.mu.Lock()
	finished := r.doneCount == r.nb
	remaining := append([]int(nil), r.pending...)
	r.mu.Unlock()
	if finished {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// Total replica loss: degrade to the single-process walk of the
	// remaining blocks — same ComputeBlock seam, same bits — unless the
	// deployment asked for a hard error instead.
	if c.cfg.DisableFallback {
		return &ExhaustedError{Remaining: len(remaining), ReplicasLost: int(c.replicasLost.Load())}
	}
	c.fallbacksTotal.Add(1)
	if c.cfg.Logf != nil {
		c.cfg.Logf("shard: no replicas reachable, walking %d of %d blocks on the local fallback path", len(remaining), r.nb)
	}
	ms, err := ObjectiveMetrics(objectives)
	if err != nil {
		return err
	}
	for _, b := range remaining {
		if r.isDone(b) {
			continue // a straggler lease beat the fallback to it
		}
		res, err := computeBlock(ctx, c.plan, mode, ms, b, c.cfg.BlockSize)
		if err != nil {
			return err
		}
		r.mu.Lock()
		if !r.done[b] {
			r.sink(res)
			r.done[b] = true
			r.doneCount++
			c.blocksLocal.Add(1)
		} else {
			c.blocksDeduped.Add(1)
		}
		r.mu.Unlock()
	}
	return nil
}

func (r *runState) isDone(b int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done[b]
}

// drive is one replica's lease loop: acquire a span, execute it,
// release it, classify the outcome. The replica's shared health
// tracker gates admission — a quarantined replica sleeps out its probe
// interval and re-enters through a single half-open probe lease — and
// absorbs every outcome: successes feed the latency EWMA (the hedging
// baseline), transient failures and expiries back off exponentially
// with jitter and push the breaker toward a trip. ErrReplicaDown, an
// auth rejection, or a spent probe budget retires the replica for the
// run.
func (r *runState) drive(ctx context.Context, t Transport) {
	cfg := r.c.cfg
	rng := rand.New(rand.NewSource(cfg.Seed + r.c.driveSeq.Add(1)*0x9e3779b9))
	tr := r.c.tracker(t)
	for {
		if tr.Exhausted() {
			// The quarantine probe budget is spent: retire the replica
			// for this run (counted once however many lease slots share
			// the tracker). The next run probes it afresh.
			if tr.Retire() {
				r.c.replicasLost.Add(1)
			}
			return
		}
		if ok, wait := tr.Allow(time.Now()); !ok {
			if wait <= 0 {
				wait = cfg.RetryBackoff
			}
			if !sleepCtx(ctx, wait) {
				return
			}
			continue
		}
		lctx, lcancel := context.WithCancel(ctx)
		lease, rec, ok := r.acquire(ctx, lcancel)
		if !ok {
			lcancel()
			tr.AbandonProbe(time.Now())
			return
		}
		rec.timer = time.AfterFunc(cfg.LeaseTimeout, func() { r.expire(rec) })
		granted := time.Now()
		if !cfg.DisableHedging {
			r.mu.Lock()
			rec.hedgeTimer = time.AfterFunc(cfg.HedgeMin, func() { r.hedgeCheck(rec, granted) })
			r.mu.Unlock()
		}
		start := time.Now()
		err := t.Execute(lctx, lease, func(res BlockResult) error { return r.deliver(rec, res) })
		expired, satisfied := r.release(rec, lcancel)
		if errors.Is(err, ErrReplicaDown) || errors.Is(err, ErrAuthFailed) {
			// The replica is lost whether or not the run finished
			// meanwhile. Credentials do not heal mid-run; retrying would
			// hammer the replica with doomed registrations.
			r.c.replicasLost.Add(1)
			return
		}
		if ctx.Err() != nil {
			return
		}
		switch {
		case satisfied:
			// Every block of the span completed under other leases and
			// this one was cancelled early — the losing side of a hedge
			// race, neither a replica failure nor a clean latency
			// sample. A half-open probe that lost so proved nothing:
			// return its slot, or the breaker would wait on it forever.
			tr.AbandonProbe(time.Now())
		case err == nil && !expired:
			lat := time.Since(start)
			tr.Success(time.Now(), lat)
			r.c.leaseEwma.Observe(lat)
		default:
			// Expiry (with or without an error from the cancelled lease
			// context), or a transient Execute failure.
			if !expired {
				r.c.replicaFailures.Add(1)
			}
			tr.Failure(time.Now())
			if !sleepCtx(ctx, backoff(rng, cfg, tr.ConsecutiveFailures())) {
				return
			}
		}
	}
}

// backoff returns the delay before retry number `fails`: exponential
// from RetryBackoff, capped at BackoffMax, jittered uniformly over the
// top half of the interval.
func backoff(rng *rand.Rand, cfg Config, fails int) time.Duration {
	d := cfg.RetryBackoff
	for i := 1; i < fails && d < cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > cfg.BackoffMax {
		d = cfg.BackoffMax
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)/2+1))
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// acquire blocks until a block span is available (or the run is over)
// and grants a lease over it.
// Pending blocks are kept sorted; a lease takes the longest contiguous
// run from the head, capped at LeaseBlocks, so re-leased stragglers
// coalesce back into spans. The returned rec carries cancel so a
// hedge-satisfied lease can be cancelled the moment its last block
// completes elsewhere.
func (r *runState) acquire(ctx context.Context, cancel context.CancelFunc) (Lease, *leaseRec, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.doneCount == r.nb || ctx.Err() != nil {
			return Lease{}, nil, false
		}
		// Drop blocks a straggler completed while they sat pending.
		live := r.pending[:0]
		for _, b := range r.pending {
			if !r.done[b] {
				live = append(live, b)
			} else {
				r.queued[b] = false
			}
		}
		r.pending = live
		if len(r.pending) > 0 {
			break
		}
		r.cond.Wait()
	}
	lo := r.pending[0]
	n := 1
	for n < len(r.pending) && n < r.c.cfg.LeaseBlocks && r.pending[n] == lo+n {
		n++
	}
	r.pending = append(r.pending[:0], r.pending[n:]...)
	r.nextSeq++
	lease := Lease{
		Key:        r.c.key,
		Seq:        r.nextSeq,
		Blocks:     BlockRange{Lo: lo, Hi: lo + n},
		BlockSize:  r.c.cfg.BlockSize,
		PlanPoints: r.c.plan.Combos(),
		Mode:       r.mode,
		Objectives: append([]Objective(nil), r.objectives...),
		Deadline:   time.Now().Add(r.c.cfg.LeaseTimeout),
	}
	rec := &leaseRec{lease: lease, remaining: make(map[int]bool, n), cancel: cancel}
	for b := lo; b < lo+n; b++ {
		rec.remaining[b] = true
		r.queued[b] = false
	}
	r.outstanding[rec] = struct{}{}
	r.c.leasesGranted.Add(1)
	return lease, rec, true
}

// expire fires when a lease's watchdog lapses with blocks outstanding:
// the incomplete blocks return to the pending queue for surviving
// replicas and the lease's context is cancelled. The original replica
// may still deliver them later — first write wins.
func (r *runState) expire(rec *leaseRec) {
	r.mu.Lock()
	if rec.released || rec.expired || rec.satisfied || len(rec.remaining) == 0 {
		r.mu.Unlock()
		return
	}
	rec.expired = true
	r.c.leasesExpired.Add(1)
	r.requeueLocked(rec)
	r.mu.Unlock()
	rec.cancel()
}

// hedgeCheck re-evaluates a live lease against the adaptive straggler
// threshold. The threshold needs a warm latency EWMA and a second
// transport, neither of which is guaranteed at grant time, so the
// timer re-arms (at HedgeMin granularity, bounded by the lease's own
// lifetime) until the lease either finishes or ages past the
// threshold and hedges.
func (r *runState) hedgeCheck(rec *leaseRec, granted time.Time) {
	d, ok := r.c.hedgeDelay()
	age := time.Since(granted)
	if ok && age >= d {
		r.hedge(rec)
		return
	}
	wait := r.c.cfg.HedgeMin
	if ok && d-age > wait {
		wait = d - age
	}
	r.mu.Lock()
	if !rec.released && !rec.expired && !rec.satisfied {
		rec.hedgeTimer = time.AfterFunc(wait, func() { r.hedgeCheck(rec, granted) })
	}
	r.mu.Unlock()
}

// hedge fires when a lease outlives the adaptive straggler threshold
// with blocks outstanding: the incomplete blocks are speculatively
// re-queued so an idle healthy replica picks them up while the
// original lease keeps running. Whichever computation delivers a block
// first wins (the bits are identical by construction); the losing
// lease is cancelled by deliver once its whole span is covered.
func (r *runState) hedge(rec *leaseRec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec.released || rec.expired || rec.satisfied || r.doneCount == r.nb {
		return
	}
	n := 0
	for b := range rec.remaining {
		if !r.done[b] && !r.queued[b] {
			r.pending = append(r.pending, b)
			r.queued[b] = true
			r.hedgeBlocks[b] = rec.lease.Seq
			n++
		}
	}
	if n == 0 {
		return
	}
	rec.hedged = true
	sort.Ints(r.pending)
	r.c.hedgesFired.Add(1)
	r.cond.Broadcast()
}

// release retires a lease record when its Execute returns: any blocks
// it did not deliver (failure, crash, dropped results) are re-leased
// unless expiry already did so. Reports whether the lease had expired
// and whether it was hedge-satisfied (cancelled because its span
// completed under other leases).
func (r *runState) release(rec *leaseRec, cancel context.CancelFunc) (expired, satisfied bool) {
	r.mu.Lock()
	rec.released = true
	if rec.timer != nil {
		rec.timer.Stop()
	}
	if rec.hedgeTimer != nil {
		rec.hedgeTimer.Stop()
	}
	delete(r.outstanding, rec)
	expired = rec.expired
	satisfied = rec.satisfied
	if !expired {
		r.requeueLocked(rec)
	}
	r.mu.Unlock()
	cancel()
	return expired, satisfied
}

// requeueLocked returns rec's undelivered, still-incomplete blocks to
// the pending queue in sorted order and wakes acquire waiters. Blocks
// already queued (a hedge beat the requeue to them) are not queued
// twice.
func (r *runState) requeueLocked(rec *leaseRec) {
	n := 0
	for b := range rec.remaining {
		if !r.done[b] && !r.queued[b] {
			r.pending = append(r.pending, b)
			r.queued[b] = true
			n++
		}
	}
	if n == 0 {
		return
	}
	sort.Ints(r.pending)
	r.c.blocksRequeued.Add(uint64(n))
	r.cond.Broadcast()
}

// deliver accepts one block result from a lease: structural validation,
// first-write-wins dedup, result sink, completion detection, and the
// hedge-race bookkeeping — a block completing under a lease other than
// the straggler it was hedged away from counts as a hedge win, and any
// other outstanding lease left with nothing undelivered is cancelled
// early (the losing hedge). A malformed result fails the delivering
// Execute with ErrBadResult; the block stays incomplete and is
// re-leased.
func (r *runState) deliver(rec *leaseRec, res BlockResult) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := res.Block
	if b < 0 || b >= r.nb {
		return fmt.Errorf("%w: block %d outside the %d-block plan", ErrBadResult, b, r.nb)
	}
	if r.done[b] {
		r.c.blocksDeduped.Add(1)
		return nil
	}
	if len(res.Slots) != len(res.Points) {
		return fmt.Errorf("%w: block %d carries %d slots for %d points", ErrBadResult, b, len(res.Slots), len(res.Points))
	}
	lo, hi := blockSpan(b, r.c.cfg.BlockSize, r.c.plan.Combos())
	if r.mode == ModePoints && len(res.Points) != hi-lo {
		return fmt.Errorf("%w: block %d delivered %d of %d points", ErrBadResult, b, len(res.Points), hi-lo)
	}
	for _, slot := range res.Slots {
		if slot < 0 || slot >= r.c.plan.Combos() {
			return fmt.Errorf("%w: block %d slot %d outside the %d-point plan", ErrBadResult, b, slot, r.c.plan.Combos())
		}
	}
	r.sink(res)
	r.done[b] = true
	r.doneCount++
	delete(rec.remaining, b)
	r.c.blocksCompleted.Add(1)
	if seq, ok := r.hedgeBlocks[b]; ok {
		delete(r.hedgeBlocks, b)
		if rec.lease.Seq != seq {
			r.c.hedgesWon.Add(1)
		}
	}
	// Cancel losing hedges: any other live lease whose span is now
	// fully delivered burns replica cycles on blocks that are all done.
	for other := range r.outstanding {
		if other == rec || other.released || other.expired || other.satisfied {
			continue
		}
		delete(other.remaining, b)
		if len(other.remaining) == 0 {
			other.satisfied = true
			r.c.hedgesCancelled.Add(1)
			other.cancel()
		}
	}
	if r.doneCount == r.nb {
		close(r.complete)
		r.cond.Broadcast()
	}
	return nil
}
