package netx

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecochip/internal/cost"
	"ecochip/internal/explore"
	"ecochip/internal/shard"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// testOpts keeps transport timing test-friendly while staying generous
// enough for -race on one core.
func testOpts() Options {
	return Options{Slack: 5 * time.Second, DialTimeout: 2 * time.Second, DrainTimeout: 5 * time.Second}
}

// fastCfg mirrors the shard package's test config.
func fastCfg() shard.Config {
	return shard.Config{BlockSize: 16, LeaseBlocks: 3, LeaseTimeout: 5 * time.Second,
		RetryBackoff: time.Millisecond, BackoffMax: 4 * time.Millisecond, MaxRetries: 2, Seed: 1}
}

// testSweep builds one randomized fast-path sweep: the coordinator-side
// compiled plan plus the registry entry a client needs to ship it.
func testSweep(t *testing.T, rng *rand.Rand) (*explore.CompiledPlan, *Registry, string, func() *shard.Catalog) {
	t.Helper()
	db := tech.Default()
	cp := cost.DefaultParams()
	for {
		sys := testcases.Random(rng, db)
		nodes := testcases.RandomNodes(rng)
		cat := shard.NewCatalog()
		key, err := cat.RegisterSweep(sys, db, nodes, cp)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := cat.Plan(key)
		if err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry()
		rkey, err := reg.AddSweep(sys, db, nodes, cp)
		if err != nil {
			t.Fatal(err)
		}
		if rkey != key {
			t.Fatalf("registry key %s != catalog key %s", rkey, key)
		}
		// Each replica server compiles from shipped content into its
		// own fresh catalog — the deployment shape.
		newCat := func() *shard.Catalog { return shard.NewCatalog() }
		return plan, reg, key, newCat
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

// startServer spins a replica server on an ephemeral port and returns
// its address plus a shutdown func that drains and waits for Serve.
func startServer(t *testing.T, cat *shard.Catalog, opts Options) (string, *Server, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cat, tech.Default(), opts)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	stop := func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("Serve did not return after cancel")
		}
	}
	return ln.Addr().String(), srv, stop
}

// The healthy socket path: three replica servers, each compiling the
// plan from shipped content, must reassemble the exact local walk.
func TestTCPSweepParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	plan, reg, key, newCat := testSweep(t, rng)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var transports []shard.Transport
	var clients []*Client
	for i := 0; i < 3; i++ {
		addr, _, stop := startServer(t, newCat(), testOpts())
		defer stop()
		cl := DialTransport(addr, reg, testOpts())
		defer cl.Close()
		clients = append(clients, cl)
		transports = append(transports, cl)
	}
	co := shard.NewCoordinator(plan, key, transports, fastCfg())
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "tcp sweep")

	st := co.Stats()
	if st.Wire.IsZero() {
		t.Fatal("coordinator stats carry no wire counters")
	}
	if st.Wire.Dials == 0 || st.Wire.FramesIn == 0 || st.Wire.BytesIn == 0 {
		t.Fatalf("implausible wire counters: %+v", st.Wire)
	}
	if st.BlocksLocal != 0 || st.Fallbacks != 0 {
		t.Fatalf("healthy tcp sweep fell back locally: %+v", st)
	}
	// Stats.Wire must be exactly the fold of the distinct clients'
	// counters (a tiny sweep may leave some clients idle — lazy dial).
	var sum shard.TransportCounters
	for _, cl := range clients {
		c := cl.TransportCounters()
		sum.Dials += c.Dials
		sum.Reconnects += c.Reconnects
		sum.FramesOut += c.FramesOut
		sum.FramesIn += c.FramesIn
		sum.BytesOut += c.BytesOut
		sum.BytesIn += c.BytesIn
		if c.MaxPipeline > sum.MaxPipeline {
			sum.MaxPipeline = c.MaxPipeline
		}
	}
	if st.Wire != sum {
		t.Fatalf("stats wire %+v != client fold %+v", st.Wire, sum)
	}
	if !strings.Contains(st.String(), "wire:") {
		t.Fatalf("Stats.String misses wire line:\n%s", st)
	}
}

// Pareto front over sockets must match the local front, including the
// dominated-count bookkeeping.
func TestTCPFrontParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	plan, reg, key, newCat := testSweep(t, rng)
	objs := []shard.Objective{shard.ObjTotal, shard.ObjCost}
	wantCo := shard.NewCoordinator(plan, key, []shard.Transport{}, fastCfg())
	want, wantDom, err := wantCo.ParetoFront(context.Background(), objs)
	if err != nil {
		t.Fatal(err)
	}

	addr, _, stop := startServer(t, newCat(), testOpts())
	defer stop()
	cl := DialTransport(addr, reg, testOpts())
	defer cl.Close()
	co := shard.NewCoordinator(plan, key, []shard.Transport{cl, cl}, fastCfg())
	got, dom, err := co.ParetoFront(context.Background(), objs)
	if err != nil {
		t.Fatal(err)
	}
	if dom != wantDom {
		t.Fatalf("dominated count %d, want %d", dom, wantDom)
	}
	assertSamePoints(t, want, got, "tcp front")
}

// One *Client handed to the coordinator several times must multiplex
// the lease slots over a single connection. Driven deterministically:
// lease A parks in its emit callback while lease B runs start to
// finish on the same socket.
func TestTCPPipelineOverOneSocket(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	plan, reg, key, newCat := testSweep(t, rng)
	for plan.Combos() < 2 { // need at least two blocks to pipeline
		plan, reg, key, newCat = testSweep(t, rng)
	}
	addr, _, stop := startServer(t, newCat(), testOpts())
	defer stop()
	cl := DialTransport(addr, reg, testOpts())
	defer cl.Close()

	blockSize := 16
	points := plan.Combos()
	if points < 2*blockSize {
		blockSize = 1 // tiny sweep: one point per block still gives ≥2 blocks
	}
	mkLease := func(seq uint64, lo, hi int) shard.Lease {
		return shard.Lease{Key: key, Seq: seq, Blocks: shard.BlockRange{Lo: lo, Hi: hi},
			BlockSize: blockSize, PlanPoints: points, Mode: shard.ModePoints,
			Deadline: time.Now().Add(30 * time.Second)}
	}

	started := make(chan struct{})
	release := make(chan struct{})
	aDone := make(chan error, 1)
	go func() {
		first := true
		aDone <- cl.Execute(context.Background(), mkLease(1, 0, 2), func(res shard.BlockResult) error {
			if first {
				first = false
				close(started)
				<-release
			}
			return nil
		})
	}()

	select {
	case <-started:
	case err := <-aDone:
		t.Fatalf("lease A finished before emitting: %v", err)
	}
	// Lease A is mid-flight (parked in emit); run lease B to completion
	// over the same connection.
	var got []shard.BlockResult
	err := cl.Execute(context.Background(), mkLease(2, 0, 1), func(res shard.BlockResult) error {
		got = append(got, res)
		return nil
	})
	if err != nil {
		t.Fatalf("pipelined lease B: %v", err)
	}
	if len(got) != 1 || got[0].Block != 0 {
		t.Fatalf("lease B results: %+v", got)
	}
	close(release)
	if err := <-aDone; err != nil {
		t.Fatalf("lease A: %v", err)
	}

	c := cl.TransportCounters()
	if c.Dials != 1 {
		t.Fatalf("pipelining used %d connections, want 1", c.Dials)
	}
	if c.MaxPipeline < 2 {
		t.Fatalf("max pipeline %d, want >= 2", c.MaxPipeline)
	}
}

// Typed errors must survive the wire: a lease for a plan the registry
// cannot describe, and a lease whose geometry disagrees with the
// replica's compiled plan.
func TestTCPTypedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	plan, reg, key, newCat := testSweep(t, rng)
	addr, _, stop := startServer(t, newCat(), testOpts())
	defer stop()
	cl := DialTransport(addr, reg, testOpts())
	defer cl.Close()

	lease := shard.Lease{Key: "no-such-plan", Seq: 1, Blocks: shard.BlockRange{Lo: 0, Hi: 1},
		BlockSize: 16, PlanPoints: 16, Mode: shard.ModePoints, Deadline: time.Now().Add(5 * time.Second)}
	err := cl.Execute(context.Background(), lease, func(shard.BlockResult) error { return nil })
	if !errors.Is(err, shard.ErrPlanUnknown) {
		t.Fatalf("unknown plan over tcp: %v, want ErrPlanUnknown", err)
	}

	bad := shard.Lease{Key: key, Seq: 2, Blocks: shard.BlockRange{Lo: 0, Hi: 1},
		BlockSize: 16, PlanPoints: plan.Combos() + 1, Mode: shard.ModePoints,
		Deadline: time.Now().Add(5 * time.Second)}
	err = cl.Execute(context.Background(), bad, func(shard.BlockResult) error { return nil })
	if !errors.Is(err, shard.ErrLeaseMismatch) {
		t.Fatalf("mismatched lease over tcp: %v, want ErrLeaseMismatch", err)
	}
}

// killProxy forwards TCP traffic to a backend and hard-kills selected
// connections (RST via SetLinger(0)) once the server→client byte count
// passes a per-connection budget. It keeps accepting, so clients can
// reconnect — the socket-level fault injector for chaos tests.
type killProxy struct {
	t       *testing.T
	ln      net.Listener
	backend string
	// budget returns the server→client byte budget for the n-th
	// accepted connection (counting from 0); <0 means never kill.
	budget func(n int) int64

	kills atomic.Uint64
	conns atomic.Uint64
	wg    sync.WaitGroup
	// killed closes at the first kill.
	killed   chan struct{}
	killOnce sync.Once
}

func newKillProxy(t *testing.T, backend string, budget func(n int) int64) *killProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killProxy{t: t, ln: ln, backend: backend, budget: budget, killed: make(chan struct{})}
	go p.acceptLoop()
	t.Cleanup(func() {
		ln.Close()
		p.wg.Wait()
	})
	return p
}

func (p *killProxy) Addr() string { return p.ln.Addr().String() }

func (p *killProxy) acceptLoop() {
	for {
		cc, err := p.ln.Accept()
		if err != nil {
			return
		}
		n := int(p.conns.Add(1)) - 1
		p.wg.Add(1)
		go p.pipe(cc, p.budget(n))
	}
}

// pipe shuttles bytes both ways until either side closes or the
// server→client budget is exhausted, at which point both sockets die
// with an RST — mid-frame, the nastiest spot.
func (p *killProxy) pipe(cc net.Conn, budget int64) {
	defer p.wg.Done()
	sc, err := net.Dial("tcp", p.backend)
	if err != nil {
		cc.Close()
		return
	}
	kill := func() {
		p.kills.Add(1)
		p.killOnce.Do(func() { close(p.killed) })
		if tc, ok := cc.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		if tc, ok := sc.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		cc.Close()
		sc.Close()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // client → server: never budgeted
		defer wg.Done()
		buf := make([]byte, 4<<10)
		for {
			n, err := cc.Read(buf)
			if n > 0 {
				if _, werr := sc.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		sc.Close()
	}()
	go func() { // server → client: killed past the budget
		defer wg.Done()
		var sent int64
		buf := make([]byte, 512)
		for {
			n, err := sc.Read(buf)
			if n > 0 {
				if budget >= 0 && sent+int64(n) > budget {
					over := sent + int64(n) - budget
					cc.Write(buf[:int64(n)-over]) // deliver a torn prefix
					kill()
					return
				}
				sent += int64(n)
				if _, werr := cc.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		cc.Close()
	}()
	wg.Wait()
}

// A replica dropping mid-lease must cost only a reconnect: the client
// redials, the coordinator re-leases, and the result stays
// bit-identical. The proxy tears down the first connection right after
// the handshake+registration bytes, so the kill lands mid-lease.
func TestTCPReconnectMidLease(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	plan, reg, key, newCat := testSweep(t, rng)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	addr, _, stop := startServer(t, newCat(), testOpts())
	defer stop()
	proxy := newKillProxy(t, addr, func(n int) int64 {
		if n == 0 {
			return 160 // past hello+registered echo, inside the first result stream
		}
		return -1
	})
	cl := DialTransport(proxy.Addr(), reg, testOpts())
	defer cl.Close()

	co := shard.NewCoordinator(plan, key, []shard.Transport{cl}, fastCfg())
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "reconnect sweep")
	if proxy.kills.Load() == 0 {
		t.Fatal("proxy never killed a connection; test exercised nothing")
	}
	c := cl.TransportCounters()
	if c.Reconnects == 0 {
		t.Fatalf("no reconnects recorded: %+v", c)
	}
	st := co.Stats()
	if st.ReplicaFailures == 0 {
		t.Fatalf("coordinator saw no replica failure: %+v", st)
	}
}

// gatedTransport holds every Execute until open closes.
type gatedTransport struct {
	shard.Transport
	open <-chan struct{}
}

func (g gatedTransport) Execute(ctx context.Context, lease shard.Lease, emit func(shard.BlockResult) error) error {
	select {
	case <-g.open:
	case <-ctx.Done():
		return ctx.Err()
	}
	return g.Transport.Execute(ctx, lease, emit)
}

// A replica that dies on every connection must get retired while a
// surviving replica carries the sweep — over real sockets, with the
// retry/backoff path in between.
func TestTCPSurvivorTakesOver(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	plan, reg, key, newCat := testSweep(t, rng)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	deadAddr, _, stopDead := startServer(t, newCat(), testOpts())
	defer stopDead()
	proxy := newKillProxy(t, deadAddr, func(int) int64 { return 48 }) // every conn dies early
	liveAddr, _, stopLive := startServer(t, newCat(), testOpts())
	defer stopLive()

	dead := DialTransport(proxy.Addr(), reg, testOpts())
	defer dead.Close()
	live := DialTransport(liveAddr, reg, testOpts())
	defer live.Close()

	cfg := fastCfg()
	cfg.DisableFallback = true // the survivor, not the local walk, must finish
	// The survivor holds its first lease until the dead replica's
	// connection has been killed: otherwise, when the dead replica's
	// lease loop is scheduled late, the survivor can finish every block
	// before the failure path runs at all.
	survivor := gatedTransport{Transport: live, open: proxy.killed}
	co := shard.NewCoordinator(plan, key, []shard.Transport{dead, survivor}, cfg)
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "survivor sweep")
	st := co.Stats()
	if st.ReplicaFailures == 0 {
		t.Fatalf("no replica failures recorded: %+v", st)
	}
	if st.Fallbacks != 0 || st.BlocksLocal != 0 {
		t.Fatalf("local fallback fired with a live survivor: %+v", st)
	}
	if proxy.kills.Load() == 0 {
		t.Fatal("proxy never killed a connection")
	}
}

// chaosBudgets drives the socket-level chaos suite: seeded random
// byte budgets, some connections spared, some killed at hostile
// offsets (tiny budgets tear frames mid-header).
func chaosBudgets(seed int64) func(n int) int64 {
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	return func(n int) int64 {
		mu.Lock()
		defer mu.Unlock()
		if rng.Intn(2) == 0 {
			return -1
		}
		return int64(16 + rng.Intn(4096))
	}
}

// Socket-level chaos parity: two replicas behind connection-killing
// proxies plus one healthy replica; whatever the kill schedule, the
// sweep must stay Float64bits-identical to the local walk.
func TestTCPChaosParity(t *testing.T) {
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		plan, reg, key, newCat := testSweep(t, rng)
		want, err := plan.RunCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		var transports []shard.Transport
		var kills []*killProxy
		for i := 0; i < 2; i++ {
			addr, _, stop := startServer(t, newCat(), testOpts())
			defer stop()
			proxy := newKillProxy(t, addr, chaosBudgets(int64(1000*trial+i)))
			kills = append(kills, proxy)
			cl := DialTransport(proxy.Addr(), reg, testOpts())
			defer cl.Close()
			transports = append(transports, cl)
		}
		liveAddr, _, stopLive := startServer(t, newCat(), testOpts())
		defer stopLive()
		live := DialTransport(liveAddr, reg, testOpts())
		defer live.Close()
		transports = append(transports, live)

		cfg := fastCfg()
		cfg.Seed = int64(trial + 1)
		co := shard.NewCoordinator(plan, key, transports, cfg)
		got, err := co.Sweep(context.Background())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertSamePoints(t, want, got, "chaos sweep")
		_ = kills
	}
}

// Graceful drain: after ctx cancel the server must refuse new leases
// on established connections with the shutting-down code, finish
// in-flight work, and return from Serve.
func TestServerDrainRefusesNewLeases(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	plan, reg, key, newCat := testSweep(t, rng)

	addr, srv, stop := startServer(t, newCat(), testOpts())
	cl := DialTransport(addr, reg, testOpts())
	defer cl.Close()

	// Establish the connection and registration with one healthy sweep.
	co := shard.NewCoordinator(plan, key, []shard.Transport{cl}, fastCfg())
	if _, err := co.Sweep(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Flip the server into draining (white-box: the Serve ctx path sets
	// the same flag) and lease again over the still-open connection.
	srv.mu.Lock()
	srv.draining = true
	srv.mu.Unlock()
	lease := shard.Lease{Key: key, Seq: 99, Blocks: shard.BlockRange{Lo: 0, Hi: 1},
		BlockSize: 16, PlanPoints: plan.Combos(), Mode: shard.ModePoints,
		Deadline: time.Now().Add(5 * time.Second)}
	err := cl.Execute(context.Background(), lease, func(shard.BlockResult) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("lease during drain: %v, want draining refusal", err)
	}

	srv.mu.Lock()
	srv.draining = false
	srv.mu.Unlock()
	stop() // real drain: Serve must return cleanly
}

// A server that was never started must surface as a transient dial
// error, which the coordinator absorbs via fallback.
func TestTCPDialFailureFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	plan, reg, key, _ := testSweep(t, rng)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Grab a port and close it again: nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	cl := DialTransport(deadAddr, reg, testOpts())
	defer cl.Close()
	co := shard.NewCoordinator(plan, key, []shard.Transport{cl}, fastCfg())
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "dead replica sweep")
	st := co.Stats()
	if st.Fallbacks == 0 {
		t.Fatalf("expected local fallback: %+v", st)
	}
}

// Auth: a server with a shared secret must reject a tokenless client
// with the typed auth error (distinct from db-skew) and accept a
// matching one bit-identically.
func TestTCPAuthToken(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	plan, reg, key, newCat := testSweep(t, rng)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	srvOpts := testOpts()
	srvOpts.AuthToken = "hunter2"
	addr, _, stop := startServer(t, newCat(), srvOpts)
	defer stop()

	badOpts := testOpts()
	badOpts.AuthToken = "wrong"
	bad := DialTransport(addr, reg, badOpts)
	defer bad.Close()
	lease := shard.Lease{Key: key, Seq: 1, Blocks: shard.BlockRange{Lo: 0, Hi: 1},
		BlockSize: 16, PlanPoints: plan.Combos(), Mode: shard.ModePoints,
		Deadline: time.Now().Add(5 * time.Second)}
	err = bad.Execute(context.Background(), lease, func(shard.BlockResult) error { return nil })
	if !errors.Is(err, shard.ErrAuthFailed) {
		t.Fatalf("wrong token: %v, want ErrAuthFailed", err)
	}
	if errors.Is(err, shard.ErrPlanUnknown) {
		t.Fatalf("auth failure must stay distinct from plan-unknown: %v", err)
	}

	goodOpts := testOpts()
	goodOpts.AuthToken = "hunter2"
	good := DialTransport(addr, reg, goodOpts)
	defer good.Close()
	co := shard.NewCoordinator(plan, key, []shard.Transport{good}, fastCfg())
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "authed sweep")
}

// A coordinator holding one bad-token and one good-token client must
// retire the rejected transport (auth does not heal mid-run) and let
// the authenticated one finish — no local fallback.
func TestTCPAuthFailureRetiresTransport(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	plan, reg, key, newCat := testSweep(t, rng)
	for plan.Combos() < 16 {
		plan, reg, key, newCat = testSweep(t, rng)
	}
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	srvOpts := testOpts()
	srvOpts.AuthToken = "s3cret"
	addr, _, stop := startServer(t, newCat(), srvOpts)
	defer stop()

	badOpts := testOpts() // no token at all
	bad := DialTransport(addr, reg, badOpts)
	defer bad.Close()
	goodOpts := testOpts()
	goodOpts.AuthToken = "s3cret"
	good := DialTransport(addr, reg, goodOpts)
	defer good.Close()
	// The authenticated replica pauses per block, as the healthy ones of
	// TestChaosStragglerHedges do: unpaced, it can finish every lease
	// before the coordinator leases to the rejected one, and then
	// nothing is retired.
	paced := shard.Fault(good, shard.FaultSpec{Seed: 1, Delay: 2 * time.Millisecond})

	cfg := fastCfg()
	cfg.DisableFallback = true
	cfg.BlockSize = 2
	cfg.LeaseBlocks = 1
	co := shard.NewCoordinator(plan, key, []shard.Transport{bad, paced}, cfg)
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "auth-mixed sweep")
	st := co.Stats()
	if st.ReplicasLost != 1 {
		t.Fatalf("stats = %+v, want exactly the rejected transport retired", st)
	}
	// Retired at its first rejection, not after a trip and a spent
	// probe budget of transient failures.
	if st.ReplicaFailures != 0 || st.BreakerTrips != 0 {
		t.Fatalf("stats = %+v, want the rejection to retire the transport at once", st)
	}
}

// Reconnect backoff under a flapping path: the first connection dies
// mid-lease, the next dials are cut during the handshake, and only
// then does the path heal. The pipelined client must redial through
// the flap (Reconnects advances), resolve every lease, leak no pends,
// and keep the output bit-identical.
func TestTCPReconnectBackoffFlappingListener(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	plan, reg, key, newCat := testSweep(t, rng)
	for plan.Combos() < 32 {
		plan, reg, key, newCat = testSweep(t, rng)
	}
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	addr, _, stop := startServer(t, newCat(), testOpts())
	defer stop()
	proxy := newKillProxy(t, addr, func(n int) int64 {
		switch n {
		case 0:
			return 160 // survive the handshake, die inside the first lease
		case 1, 2:
			return 0 // the flap: cut before the hello reply arrives
		default:
			return -1 // healed
		}
	})
	cl := DialTransport(proxy.Addr(), reg, testOpts())
	defer cl.Close()

	// The same client twice: both lease slots pipeline on one socket and
	// both must survive the flap.
	cfg := fastCfg()
	cfg.BlockSize = 4
	cfg.LeaseBlocks = 1
	co := shard.NewCoordinator(plan, key, []shard.Transport{cl, cl}, cfg)
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "flap sweep")
	if proxy.kills.Load() < 3 {
		t.Fatalf("proxy killed %d connections, want the whole flap schedule", proxy.kills.Load())
	}
	c := cl.TransportCounters()
	if c.Reconnects == 0 {
		t.Fatalf("no reconnects recorded through the flap: %+v", c)
	}
	// No pend leaks: with every lease resolved, the routing table of the
	// surviving connection must be empty.
	cl.mu.Lock()
	cc := cl.cc
	cl.mu.Unlock()
	if cc != nil {
		cc.mu.Lock()
		n := len(cc.pending)
		cc.mu.Unlock()
		if n != 0 {
			t.Fatalf("%d pends leaked after the sweep", n)
		}
	}
}

// The TCP health-fabric chaos trial: a straggling replica and a
// flapping replica behind real sockets. The sweep must stay
// Float64bits-identical while hedges rescue the straggler's spans and
// the flapper's breaker walks through a full open -> half-open ->
// close cycle.
func TestTCPChaosStragglerFlap(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	plan, reg, key, newCat := testSweep(t, rng)
	for plan.Combos() < 24 {
		plan, reg, key, newCat = testSweep(t, rng)
	}
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	mk := func() *Client {
		addr, _, stop := startServer(t, newCat(), testOpts())
		t.Cleanup(stop)
		cl := DialTransport(addr, reg, testOpts())
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	// The steady replica paces its blocks so the sweep outlasts the
	// flapper's breaker cycle (trip, a probe in the outage, a probe in
	// the up phase that closes it): at 2 ms a block the sweep could end
	// first under load, with the breaker still open.
	steady := shard.Fault(mk(), shard.FaultSpec{Seed: 1, Delay: 10 * time.Millisecond})
	straggler := shard.Fault(mk(), shard.FaultSpec{Seed: 2, Slow: 10 * time.Second})
	flappy := shard.Fault(mk(), shard.FaultSpec{Seed: 3, FlapEvery: 4})

	cfg := fastCfg()
	cfg.BlockSize = 1
	cfg.LeaseBlocks = 1
	cfg.LeaseTimeout = 30 * time.Second
	cfg.HedgeMin = 5 * time.Millisecond
	cfg.Health.TripAfter = 3
	cfg.Health.MinSamples = 1000
	cfg.Health.ProbeAfter = 2 * time.Millisecond
	cfg.Health.ProbeAfterMax = 4 * time.Millisecond
	cfg.Health.MaxProbes = 100
	co := shard.NewCoordinator(plan, key, []shard.Transport{steady, straggler, flappy}, cfg)
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "tcp health-fabric sweep")
	st := co.Stats()
	if st.HedgesFired == 0 || st.HedgesWon == 0 {
		t.Errorf("stats = %+v, want hedges fired and won over tcp", st)
	}
	if st.BreakerTrips == 0 || st.BreakerProbes == 0 || st.BreakerCloses == 0 {
		t.Errorf("stats = %+v, want a full breaker cycle over tcp", st)
	}
	if st.LeasesExpired != 0 {
		t.Errorf("stats = %+v, want rescue via hedging, not expiry", st)
	}
	if st.Fallbacks != 0 {
		t.Errorf("stats = %+v, want no local fallback", st)
	}
}
