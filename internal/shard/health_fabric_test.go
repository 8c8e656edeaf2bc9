package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"ecochip/internal/cost"
	"ecochip/internal/explore"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// bigTestSweep compiles a sweep with at least minCombos points (random
// systems over the full candidate node set — up to 7^chiplets combos),
// so lease-count-sensitive tests (breaker cycles, hedge races) get
// enough grants to be deterministic.
func bigTestSweep(t *testing.T, rng *rand.Rand, minCombos int) (*explore.CompiledPlan, *Catalog, string) {
	t.Helper()
	db := tech.Default()
	cp := cost.DefaultParams()
	for {
		sys := testcases.Random(rng, db)
		cat := NewCatalog()
		key, err := cat.RegisterSweep(sys, db, testcases.MaskNodes, cp)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := cat.Plan(key)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Combos() >= minCombos {
			return plan, cat, key
		}
	}
}

// A straggling replica must be hedged, not waited out: the healthy
// replicas warm the latency EWMA, the straggler's lease ages past the
// adaptive threshold, its blocks are speculatively re-leased, and the
// fast recomputation wins — all well before the lease deadline, with
// the output bit-identical.
func TestChaosStragglerHedges(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	plan, cat, key := bigTestSweep(t, rng, 60)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.BlockSize = 4
	cfg.LeaseBlocks = 1
	cfg.LeaseTimeout = 30 * time.Second // expiry must never be the rescue path
	cfg.HedgeMin = 5 * time.Millisecond
	// The healthy replicas pause briefly per block, so they yield their
	// CPUs and the straggler's lease loop is scheduled while blocks
	// remain: on a small machine two busy loopback replicas can
	// otherwise finish the whole sweep before it ever runs.
	healthy := FaultSpec{Seed: 2, Delay: 200 * time.Microsecond}
	transports := []Transport{
		Fault(NewReplica(cat), healthy),
		Fault(NewReplica(cat), healthy),
		Fault(NewReplica(cat), FaultSpec{Seed: 1, Slow: 10 * time.Second}),
	}
	co := NewCoordinator(plan, key, transports, cfg)
	start := time.Now()
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "hedged sweep")
	st := co.Stats()
	if st.HedgesFired == 0 || st.HedgesWon == 0 {
		t.Errorf("stats = %+v, want fired and won hedges", st)
	}
	if st.HedgesCancelled == 0 {
		t.Errorf("stats = %+v, want the losing straggler lease cancelled early", st)
	}
	if st.LeasesExpired != 0 {
		t.Errorf("stats = %+v, want rescue via hedging, not expiry", st)
	}
	// The straggler stalls 10s per block; finishing fast proves the
	// hedge (not the straggler, not expiry) completed its span.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("sweep took %v with hedging armed", elapsed)
	}
}

// A flapping replica must drive its breaker through the full cycle:
// consecutive failures trip it, the first probe lands in the outage and
// re-quarantines, a later probe lands in the up phase and closes it —
// deterministically, because after the trip the replica's only Execute
// calls are probes.
func TestChaosFlapBreakerCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	plan, cat, key := bigTestSweep(t, rng, 120)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.BlockSize = 2
	cfg.LeaseBlocks = 1
	cfg.DisableHedging = true
	cfg.Health.TripAfter = 3
	cfg.Health.MinSamples = 1000 // isolate the consecutive-failure signal
	cfg.Health.ProbeAfter = 2 * time.Millisecond
	cfg.Health.ProbeAfterMax = 4 * time.Millisecond
	cfg.Health.MaxProbes = 100 // probe through the outage, never retire
	flappy := Fault(NewReplica(cat), FaultSpec{Seed: 2, FlapEvery: 4})
	steady := Fault(NewReplica(cat), FaultSpec{Seed: 3, Delay: 3 * time.Millisecond})
	co := NewCoordinator(plan, key, []Transport{flappy, steady}, cfg)
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "flap sweep")
	st := co.Stats()
	if st.BreakerTrips == 0 || st.BreakerProbes == 0 || st.BreakerCloses == 0 {
		t.Errorf("stats = %+v, want a full open -> half-open -> close breaker cycle", st)
	}
	if st.Fallbacks != 0 {
		t.Errorf("stats = %+v, want no fallback (the flapping replica recovers)", st)
	}
}

// flakyThenHealthy fails its first failN Execute calls with a transient
// error, then behaves.
type flakyThenHealthy struct {
	inner Transport
	failN int64
	execs atomic.Int64
}

func (f *flakyThenHealthy) Execute(ctx context.Context, lease Lease, emit func(BlockResult) error) error {
	if n := f.execs.Add(1); n <= f.failN {
		return fmt.Errorf("flaky: transient failure %d", n)
	}
	return f.inner.Execute(ctx, lease, emit)
}

// A replica retired in one run (probe budget spent) must rejoin the
// next run through a fresh probe — quarantine is per run, not forever.
func TestQuarantinedReplicaRejoinsNextRun(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	plan, cat, key := bigTestSweep(t, rng, 60)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.BlockSize = 4
	cfg.LeaseBlocks = 1
	cfg.Health.TripAfter = 2
	cfg.Health.ProbeAfter = time.Millisecond
	cfg.Health.ProbeAfterMax = 2 * time.Millisecond
	cfg.Health.MaxProbes = 1
	flaky := &flakyThenHealthy{inner: NewReplica(cat), failN: 50}
	// The steady replica is slowed so run 1 outlasts the flaky one's
	// trip -> failed probe -> exhaust -> retire arc.
	steady := Fault(NewReplica(cat), FaultSpec{Seed: 5, Delay: 2 * time.Millisecond})
	co := NewCoordinator(plan, key, []Transport{flaky, steady}, cfg)
	if _, err := co.Sweep(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := co.Stats()
	if st.ReplicasLost != 1 {
		t.Fatalf("run 1 stats = %+v, want the flaky replica retired", st)
	}
	execsAfterRun1 := flaky.execs.Load()

	// Run 2: the replica has healed (failN exhausted by run 1's budget is
	// not guaranteed, so force it) and must be probed back in.
	flaky.execs.Store(flaky.failN) // next Execute succeeds
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "rejoin sweep")
	if n := flaky.execs.Load(); n <= execsAfterRun1 {
		t.Errorf("healed replica executed no leases in run 2 (execs %d -> %d)", execsAfterRun1, n)
	}
	if c := co.Stats(); c.BreakerCloses == 0 {
		t.Errorf("stats = %+v, want the healed replica's breaker closed by a probe", c)
	}
}
