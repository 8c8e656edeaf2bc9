package shard

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ecochip/internal/cost"
	"ecochip/internal/explore"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// testSweep compiles one randomized sweep registered in a fresh catalog.
func testSweep(t *testing.T, rng *rand.Rand) (*explore.CompiledPlan, *Catalog, string) {
	t.Helper()
	db := tech.Default()
	cp := cost.DefaultParams()
	for {
		sys := testcases.Random(rng, db)
		nodes := testcases.RandomNodes(rng)
		cat := NewCatalog()
		key, err := cat.RegisterSweep(sys, db, nodes, cp)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := cat.Plan(key)
		if errors.Is(err, explore.ErrNoFastPath) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		return plan, cat, key
	}
}

func samePoint(a, b explore.Point) bool {
	if len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	return math.Float64bits(a.EmbodiedKg) == math.Float64bits(b.EmbodiedKg) &&
		math.Float64bits(a.TotalKg) == math.Float64bits(b.TotalKg) &&
		math.Float64bits(a.CostUSD) == math.Float64bits(b.CostUSD) &&
		math.Float64bits(a.PackageAreaMM2) == math.Float64bits(b.PackageAreaMM2)
}

func assertSamePoints(t *testing.T, want, got []explore.Point, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !samePoint(want[i], got[i]) {
			t.Fatalf("%s: point %d differs: %+v vs %+v", label, i, got[i], want[i])
		}
	}
}

// fastCfg keeps protocol timing test-friendly.
func fastCfg() Config {
	return Config{BlockSize: 16, LeaseBlocks: 3, LeaseTimeout: 5 * time.Second,
		RetryBackoff: time.Millisecond, BackoffMax: 4 * time.Millisecond, MaxRetries: 2, Seed: 1}
}

// The healthy loopback path: several replicas, no faults, exact
// mixed-radix reassembly.
func TestSweepLoopbackParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	plan, cat, key := testSweep(t, rng)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	transports := []Transport{NewReplica(cat), NewReplica(cat), NewReplica(cat)}
	co := NewCoordinator(plan, key, transports, fastCfg())
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "loopback sweep")
	st := co.Stats()
	if st.BlocksCompleted != uint64(blockCount(plan.Combos(), 16)) {
		t.Errorf("completed %d blocks, want %d", st.BlocksCompleted, blockCount(plan.Combos(), 16))
	}
	if st.Fallbacks != 0 || st.LeasesExpired != 0 {
		t.Errorf("healthy run recorded faults: %+v", st)
	}
}

// Total replica loss must degrade to the local walk — logged, not an
// error — and still produce the exact result.
func TestTotalReplicaLossFallsBackLocally(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	plan, _, key := testSweep(t, rng)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	cfg := fastCfg()
	cfg.Logf = func(format string, args ...any) { logged = append(logged, format) }
	dead := Fault(nil, FaultSpec{})
	dead.(*faultTransport).dead = true
	co := NewCoordinator(plan, key, []Transport{dead, dead}, cfg)
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "fallback sweep")
	st := co.Stats()
	if st.Fallbacks != 1 || st.ReplicasLost != 2 {
		t.Errorf("stats = %+v, want 1 fallback after 2 lost replicas", st)
	}
	if st.BlocksLocal == 0 {
		t.Error("fallback walked no blocks locally")
	}
	if len(logged) == 0 || !strings.Contains(logged[0], "fallback") {
		t.Errorf("fallback was not logged: %q", logged)
	}
}

// Zero transports is legal and equivalent to immediate fallback.
func TestZeroTransportsFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	plan, _, key := testSweep(t, rng)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(plan, key, nil, fastCfg())
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "no-transport sweep")
	if st := co.Stats(); st.BlocksLocal != uint64(blockCount(plan.Combos(), 16)) {
		t.Errorf("stats = %+v, want every block local", st)
	}
}

// DisableFallback turns total loss into the typed error instead.
func TestDisableFallbackReturnsExhausted(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	plan, _, key := testSweep(t, rng)
	cfg := fastCfg()
	cfg.DisableFallback = true
	co := NewCoordinator(plan, key, nil, cfg)
	_, err := co.Sweep(context.Background())
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *ExhaustedError", err)
	}
	if ex.Remaining != blockCount(plan.Combos(), 16) {
		t.Errorf("Remaining = %d, want %d", ex.Remaining, blockCount(plan.Combos(), 16))
	}
}

// dupTransport delivers every block twice — the coordinator must keep
// the first write and count the second as a dedup.
type dupTransport struct{ inner Transport }

func (d *dupTransport) Execute(ctx context.Context, lease Lease, emit func(BlockResult) error) error {
	return d.inner.Execute(ctx, lease, func(res BlockResult) error {
		if err := emit(res); err != nil {
			return err
		}
		return emit(res)
	})
}

func TestDuplicateDeliveriesDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	plan, cat, key := testSweep(t, rng)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(plan, key, []Transport{&dupTransport{NewReplica(cat)}}, fastCfg())
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "duplicated sweep")
	st := co.Stats()
	if st.BlocksDeduped == 0 {
		t.Errorf("stats = %+v, want deduped > 0", st)
	}
	if st.BlocksCompleted != uint64(blockCount(plan.Combos(), 16)) {
		t.Errorf("completed %d blocks, want %d", st.BlocksCompleted, blockCount(plan.Combos(), 16))
	}
}

// A stalling replica's leases must expire and requeue their blocks;
// with no other replica, the straggler burns its retry budget, is
// retired, and the local fallback still finishes the sweep exactly.
func TestLeaseExpiryReleases(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	plan, cat, key := testSweep(t, rng)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.LeaseTimeout = 20 * time.Millisecond
	slow := Fault(NewReplica(cat), FaultSpec{Delay: 500 * time.Millisecond})
	co := NewCoordinator(plan, key, []Transport{slow}, cfg)
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "expiry sweep")
	st := co.Stats()
	if st.LeasesExpired == 0 || st.BlocksRequeued == 0 {
		t.Errorf("stats = %+v, want expired leases and requeued blocks", st)
	}
	if st.ReplicasLost != 1 || st.Fallbacks != 1 {
		t.Errorf("stats = %+v, want the straggler retired and one fallback", st)
	}
}

// badTransport mangles slots — the coordinator must reject the result,
// fail the lease, and still finish exactly via re-lease/fallback.
type badTransport struct{ inner Transport }

func (b *badTransport) Execute(ctx context.Context, lease Lease, emit func(BlockResult) error) error {
	return b.inner.Execute(ctx, lease, func(res BlockResult) error {
		res.Slots = res.Slots[:len(res.Slots)-1]
		return emit(res)
	})
}

func TestMalformedResultsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	plan, cat, key := testSweep(t, rng)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(plan, key, []Transport{&badTransport{NewReplica(cat)}}, fastCfg())
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "bad-result sweep")
	st := co.Stats()
	if st.ReplicaFailures == 0 || st.BlocksCompleted != 0 {
		t.Errorf("stats = %+v, want replica failures and no accepted blocks", st)
	}
}

// Replica-side lease validation: unknown plan keys and mismatched
// geometry are typed protocol errors.
func TestReplicaRejectsBadLeases(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	plan, cat, key := testSweep(t, rng)
	rep := NewReplica(cat)
	noEmit := func(BlockResult) error { return nil }

	err := rep.Execute(context.Background(), Lease{Key: "sweep-ffffffffffffffff"}, noEmit)
	if !errors.Is(err, ErrPlanUnknown) {
		t.Errorf("unknown key: err = %v, want ErrPlanUnknown", err)
	}
	bad := Lease{Key: key, Blocks: BlockRange{0, 1}, BlockSize: 16, PlanPoints: plan.Combos() + 1}
	if err := rep.Execute(context.Background(), bad, noEmit); !errors.Is(err, ErrLeaseMismatch) {
		t.Errorf("wrong point count: err = %v, want ErrLeaseMismatch", err)
	}
	nb := blockCount(plan.Combos(), 16)
	bad = Lease{Key: key, Blocks: BlockRange{nb, nb + 1}, BlockSize: 16, PlanPoints: plan.Combos()}
	if err := rep.Execute(context.Background(), bad, noEmit); !errors.Is(err, ErrLeaseMismatch) {
		t.Errorf("span past the plan: err = %v, want ErrLeaseMismatch", err)
	}
}

// Front mode: per-block skylines merged at the coordinator must match
// the single-process multi-objective front bit-for-bit.
func TestParetoFrontParity(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	plan, cat, key := testSweep(t, rng)
	objectives := []Objective{ObjEmbodied, ObjCost}
	ms, err := ObjectiveMetrics(objectives)
	if err != nil {
		t.Fatal(err)
	}
	want, wantTotal, err := plan.ParetoFrontCtx(context.Background(), ms)
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(plan, key, []Transport{NewReplica(cat), NewReplica(cat)}, fastCfg())
	got, gotTotal, err := co.ParetoFront(context.Background(), objectives)
	if err != nil {
		t.Fatal(err)
	}
	if gotTotal != wantTotal {
		t.Errorf("total = %d, want %d", gotTotal, wantTotal)
	}
	assertSamePoints(t, want, got, "sharded front")
}

// Front mode must survive the chaos transports like the points mode:
// whatever the fault pattern, the barrier front is exact.
func TestParetoFrontUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	plan, cat, key := testSweep(t, rng)
	objectives := []Objective{ObjEmbodied, ObjTotal}
	ms, err := ObjectiveMetrics(objectives)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := plan.ParetoFrontCtx(context.Background(), ms)
	if err != nil {
		t.Fatal(err)
	}
	spec := FaultSpec{Drop: 0.2, Dup: 0.2, Err: 0.2, Seed: 5}
	transports := []Transport{
		Fault(NewReplica(cat), spec),
		Fault(NewReplica(cat), spec),
		NewReplica(cat),
	}
	co := NewCoordinator(plan, key, transports, fastCfg())
	got, _, err := co.ParetoFront(context.Background(), objectives)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "front under faults")
}
