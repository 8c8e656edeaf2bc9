package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// chaosSchedules returns the per-replica fault schedules of one chaos
// trial: one replica guaranteed to crash mid-block, one prone to
// duplicate deliveries, one mixing drops, transient errors and delays,
// one flapping straggler (slow deliveries plus periodic outages, the
// health-fabric levers) — all seeded from the trial RNG so failures
// replay.
func chaosSchedules(rng *rand.Rand) []FaultSpec {
	return []FaultSpec{
		{Seed: rng.Int63(), CrashAfter: 1 + rng.Intn(4), Dup: 0.2},
		{Seed: rng.Int63(), Dup: 0.5, Drop: 0.1},
		{Seed: rng.Int63(), Drop: 0.3, Err: 0.3, Crash: 0.05, Delay: time.Duration(rng.Intn(3)) * time.Millisecond},
		{Seed: rng.Int63(), Slow: 3 * time.Millisecond, SlowProb: 0.3, FlapEvery: 2 + rng.Intn(3), Dup: 0.1},
	}
}

// firstCrash kills whichever of its replicas delivers the run's first
// block, mid-block: the result is lost, the lease fails with
// ErrReplicaDown, and every later Execute on that replica fails too.
// The per-replica CrashAfter schedule only fires if the lease pattern
// happens to reach that replica, which a sweep of a few blocks often
// does not; this crash lands in every run that delivers a block.
type firstCrash struct {
	mu      sync.Mutex
	crashed Transport
}

func (f *firstCrash) wrap(inner Transport) Transport {
	return &firstCrashTransport{f: f, inner: inner}
}

type firstCrashTransport struct {
	f     *firstCrash
	inner Transport
}

// claim crashes t if no replica has crashed yet, and reports whether t
// is the crashed replica.
func (f *firstCrash) claim(t Transport) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed == nil {
		f.crashed = t
	}
	return f.crashed == t
}

func (f *firstCrash) isCrashed(t Transport) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed == t
}

func (t *firstCrashTransport) Execute(ctx context.Context, lease Lease, emit func(BlockResult) error) error {
	if t.f.isCrashed(t) {
		return ErrReplicaDown
	}
	return t.inner.Execute(ctx, lease, func(res BlockResult) error {
		if t.f.claim(t) {
			return fmt.Errorf("%w: crashed mid-block %d", ErrReplicaDown, res.Block)
		}
		return emit(res)
	})
}

// chaosTransports wraps one trial's fault schedules around loopback
// replicas, behind one firstCrash.
func chaosTransports(rng *rand.Rand, cat *Catalog) []Transport {
	crash := &firstCrash{}
	var transports []Transport
	for _, spec := range chaosSchedules(rng) {
		transports = append(transports, crash.wrap(Fault(NewReplica(cat), spec)))
	}
	return transports
}

// The chaos parity suite: random systems × random fault schedules
// (crash-mid-block, duplicates, drops, transient errors, delays, lease
// expiry) must leave both the full sweep and the Pareto front
// bit-identical to the single-process plan, and every run must count
// its injected crash as a lost replica. Runs under -race in CI.
func TestChaosParity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var sawDup, sawRequeue bool
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		plan, cat, key := testSweep(t, rng)
		want, err := plan.RunCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		cfg := fastCfg()
		cfg.BlockSize = 4 + rng.Intn(24)
		cfg.LeaseBlocks = 1 + rng.Intn(4)
		cfg.Seed = rng.Int63()
		if trial%2 == 1 {
			// Half the trials also force lease expiry on the delayed replica.
			cfg.LeaseTimeout = 10 * time.Millisecond
		}
		co := NewCoordinator(plan, key, chaosTransports(rng, cat), cfg)
		got, err := co.Sweep(context.Background())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertSamePoints(t, want, got, "chaos sweep")

		// Front mode under an independent schedule of the same trial.
		objectives := []Objective{ObjEmbodied, ObjCost}
		ms, err := ObjectiveMetrics(objectives)
		if err != nil {
			t.Fatal(err)
		}
		wantFront, wantTotal, err := plan.ParetoFrontCtx(context.Background(), ms)
		if err != nil {
			t.Fatal(err)
		}
		cof := NewCoordinator(plan, key, chaosTransports(rng, cat), cfg)
		gotFront, gotTotal, err := cof.ParetoFront(context.Background(), objectives)
		if err != nil {
			t.Fatalf("trial %d front: %v", trial, err)
		}
		if gotTotal != wantTotal {
			t.Fatalf("trial %d: front total %d, want %d", trial, gotTotal, wantTotal)
		}
		assertSamePoints(t, wantFront, gotFront, "chaos front")

		st := co.Stats()
		sf := cof.Stats()
		if st.ReplicasLost == 0 || sf.ReplicasLost == 0 {
			t.Errorf("trial %d: an injected crash was not counted as a lost replica (sweep %d, front %d lost)",
				trial, st.ReplicasLost, sf.ReplicasLost)
		}
		sawDup = sawDup || st.BlocksDeduped > 0 || sf.BlocksDeduped > 0
		sawRequeue = sawRequeue || st.BlocksRequeued > 0 || sf.BlocksRequeued > 0
	}
	// The suite's guarantees are only meaningful if the schedules
	// actually exercised the recovery paths.
	if !sawDup {
		t.Error("no trial deduplicated a double delivery")
	}
	if !sawRequeue {
		t.Error("no trial re-leased a block")
	}
}
