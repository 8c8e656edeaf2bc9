package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultSpec describes a seeded fault schedule for the Fault transport
// wrapper. Probabilistic fields act per delivered block result;
// CrashAfter acts on the wrapper's cumulative block counter. The zero
// value injects nothing.
type FaultSpec struct {
	// Seed seeds the schedule's RNG; the same spec over the same lease
	// stream replays the same faults.
	Seed int64
	// Drop is the per-block probability of silently discarding the
	// result (the lease then releases with the block undelivered and it
	// is re-leased).
	Drop float64
	// Dup is the per-block probability of delivering the result twice.
	Dup float64
	// Err is the per-block probability of failing the lease with a
	// transient error after the block (partial emission — earlier blocks
	// of the span were already delivered).
	Err float64
	// Crash is the per-block probability of the replica dying mid-block:
	// the result is lost, the lease fails with ErrReplicaDown, and every
	// later Execute fails immediately.
	Crash float64
	// CrashAfter, when positive, kills the replica deterministically
	// after that many delivered blocks (counted across leases).
	CrashAfter int
	// Delay stalls before each delivery (context-respecting) — the lever
	// for forcing lease expiry.
	Delay time.Duration
	// Slow stalls an additional Slow before a delivery chosen by
	// SlowProb — the straggler lever for exercising hedged leases
	// without pushing the lease past its expiry deadline.
	Slow time.Duration
	// SlowProb is the per-block probability that Slow applies; zero with
	// Slow set means every delivery is slowed.
	SlowProb float64
	// FlapEvery, when positive, alternates the replica between FlapEvery
	// accepted Execute calls and FlapEvery refused ones (a transient
	// outage, not a crash) — the deterministic lever for driving a
	// breaker through open → half-open → close.
	FlapEvery int
}

// Fault wraps a transport with a seeded fault schedule: dropped,
// duplicated and delayed deliveries, transient lease errors, and
// replica crashes (probabilistic or after a fixed block count). The
// wrapper is the chaos suite's failure generator; because every fault
// is recoverable by the coordinator's re-lease/dedup machinery, any
// schedule must leave the sweep output bit-identical.
func Fault(inner Transport, spec FaultSpec) Transport {
	return &faultTransport{inner: inner, spec: spec, rng: rand.New(rand.NewSource(spec.Seed))}
}

type faultTransport struct {
	inner Transport
	spec  FaultSpec

	mu        sync.Mutex
	rng       *rand.Rand
	delivered int
	execs     int
	dead      bool
}

// roll draws the fates of the next delivery under the mutex so
// concurrent leases (pipelined transports grant them) keep the
// schedule deterministic per wrapper.
func (f *faultTransport) roll() (drop, dup, errAfter, crash, slow bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delivered++
	if f.spec.CrashAfter > 0 && f.delivered >= f.spec.CrashAfter {
		return false, false, false, true, false
	}
	if f.spec.Crash > 0 && f.rng.Float64() < f.spec.Crash {
		return false, false, false, true, false
	}
	drop = f.spec.Drop > 0 && f.rng.Float64() < f.spec.Drop
	dup = !drop && f.spec.Dup > 0 && f.rng.Float64() < f.spec.Dup
	errAfter = f.spec.Err > 0 && f.rng.Float64() < f.spec.Err
	slow = f.spec.Slow > 0 && (f.spec.SlowProb <= 0 || f.rng.Float64() < f.spec.SlowProb)
	return drop, dup, errAfter, crash, slow
}

// flapDown reports whether this Execute call lands in a down phase of
// the flap cycle (FlapEvery up, FlapEvery down, repeating — counted
// across all Execute calls, probes included, so breaker recovery is a
// deterministic function of the attempt count).
func (f *faultTransport) flapDown() (int, bool) {
	if f.spec.FlapEvery <= 0 {
		return 0, false
	}
	f.mu.Lock()
	n := f.execs
	f.execs++
	f.mu.Unlock()
	return n, (n/f.spec.FlapEvery)%2 == 1
}

func (f *faultTransport) Execute(ctx context.Context, lease Lease, emit func(BlockResult) error) error {
	f.mu.Lock()
	dead := f.dead
	f.mu.Unlock()
	if dead {
		return ErrReplicaDown
	}
	if n, down := f.flapDown(); down {
		return fmt.Errorf("shard: injected flap outage (attempt %d)", n)
	}
	err := f.inner.Execute(ctx, lease, func(res BlockResult) error {
		if f.spec.Delay > 0 {
			if !sleepCtx(ctx, f.spec.Delay) {
				return ctx.Err()
			}
		}
		drop, dup, errAfter, crash, slow := f.roll()
		if slow {
			if !sleepCtx(ctx, f.spec.Slow) {
				return ctx.Err()
			}
		}
		if crash {
			f.mu.Lock()
			f.dead = true
			f.mu.Unlock()
			// The block's result dies with the replica.
			return fmt.Errorf("%w: crashed mid-block %d", ErrReplicaDown, res.Block)
		}
		if !drop {
			if err := emit(res); err != nil {
				return err
			}
			if dup {
				if err := emit(res); err != nil {
					return err
				}
			}
		}
		if errAfter {
			return fmt.Errorf("shard: injected transient fault after block %d", res.Block)
		}
		return nil
	})
	return err
}
