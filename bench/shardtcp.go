package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/explore"
	"ecochip/internal/shard"
	"ecochip/internal/shard/netx"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
	"ecochip/internal/wire"
)

// shardTCP is the 262,144-point sweep the way ecodse -shard-connect runs
// it: a fresh registry and connections per operation to two long-lived
// replica servers, each with its own catalog, under the default lease
// shape (BlockSize 512, LeaseBlocks 4).
var shardTCP = &workload{
	name:        "shard-tcp",
	why:         "the sweep-262k walk plus wire encode/decode, lease round trips and reassembly; a wire or lease change shows here only",
	clients:     1,
	parallelOps: true,
	setup:       setupShard,
}

// shardReplicas is the replica count; each replica walks with every
// CPU, so two load the 2-vCPU reference machine fully.
const shardReplicas = 2

// replicaSet is a set of in-process TCP replica servers.
type replicaSet struct {
	servers []*netx.Server
	addrs   []string
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	errs    chan error
}

func startReplicas(db *tech.DB, n int) (*replicaSet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	rs := &replicaSet{cancel: cancel, errs: make(chan error, n)}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rs.stop()
			return nil, err
		}
		srv := netx.NewServer(shard.NewCatalog(), db, netx.Options{})
		rs.servers = append(rs.servers, srv)
		rs.addrs = append(rs.addrs, ln.Addr().String())
		rs.wg.Add(1)
		go func() {
			defer rs.wg.Done()
			if err := srv.Serve(ctx, ln); err != nil {
				rs.errs <- err
			}
		}()
	}
	return rs, nil
}

// stop drains the replicas and waits for them to exit.
func (rs *replicaSet) stop() error {
	rs.cancel()
	rs.wg.Wait()
	close(rs.errs)
	return <-rs.errs
}

func (rs *replicaSet) leasesServed() uint64 {
	var n uint64
	for _, s := range rs.servers {
		n += s.LeasesServed()
	}
	return n
}

// shardedSweep runs one sweep through the lease protocol over TCP
// exactly as ecodse -shard-connect does: a local catalog compiles the
// plan (the fallback path and the reassembly target), a fresh registry
// ships its content to each replica, and the coordinator leases blocks.
// objs nil runs Sweep (every point) and then the ecodse front; else
// ParetoFront.
func shardedSweep(ctx context.Context, ot *opTrace, addrs []string, sys *core.System, db *tech.DB, nodes []int, objs []shard.Objective, lat *leaseLog) (pts, front []explore.Point, total int, st shard.Stats, err error) {
	cp := cost.DefaultParams()
	cat := shard.NewCatalog()
	var key string
	var plan *explore.CompiledPlan
	err = ot.call("shard.Catalog.Plan", func() error {
		var err error
		if key, err = cat.RegisterSweep(sys, db, nodes, cp); err != nil {
			return err
		}
		plan, err = cat.Plan(key)
		return err
	})
	if err != nil {
		return
	}
	reg := netx.NewRegistry()
	err = ot.call("netx.Registry.AddSweep", func() error {
		_, err := reg.AddSweep(sys, db, nodes, cp)
		return err
	})
	if err != nil {
		return
	}
	var transports []shard.Transport
	var clients []*netx.Client
	for _, addr := range addrs {
		cl := netx.DialTransport(addr, reg, netx.Options{})
		clients = append(clients, cl)
		if lat != nil {
			transports = append(transports, &timedTransport{Client: cl, log: lat})
		} else {
			transports = append(transports, cl)
		}
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	co := shard.NewCoordinator(plan, key, transports, shard.Config{Seed: 2024})
	if objs == nil {
		sp := ot.begin("shard.Coordinator.Sweep", 0)
		lat.setParent(ot, sp)
		pts, err = co.Sweep(ctx)
		ot.end(sp)
		if err != nil {
			return
		}
		ot.call("explore.ParetoFront", func() error {
			front = explore.ParetoFront(pts, explore.ByEmbodied, explore.ByCost)
			return nil
		})
		total = len(pts)
	} else {
		sp := ot.begin("shard.Coordinator.ParetoFront", 0)
		lat.setParent(ot, sp)
		front, total, err = co.ParetoFront(ctx, objs)
		ot.end(sp)
	}
	return pts, front, total, co.Stats(), err
}

// timedTransport times each lease round trip from outside the client.
// Embedding keeps the client's wire counters visible to the
// coordinator's Stats.
type timedTransport struct {
	*netx.Client
	log *leaseLog
}

func (t *timedTransport) Execute(ctx context.Context, l shard.Lease, emit func(shard.BlockResult) error) error {
	start := time.Now()
	err := t.Client.Execute(ctx, l, emit)
	t.log.add(start, time.Now())
	return err
}

// leaseLog collects an operation's lease round trips and records each
// as a span under the coordinator call.
type leaseLog struct {
	mu     sync.Mutex
	leases []span // Start/End in Unix nanoseconds
	ot     *opTrace
	parent int
}

func (l *leaseLog) setParent(ot *opTrace, parent int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ot, l.parent = ot, parent
	l.mu.Unlock()
}

func (l *leaseLog) add(start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.leases = append(l.leases, span{Start: start.UnixNano(), End: end.UnixNano()})
	l.ot.record("shard.lease", l.parent, start, end)
}

var shardObjectives = [][]shard.Objective{
	{shard.ObjEmbodied, shard.ObjCost},
	{shard.ObjTotal, shard.ObjCost},
	{shard.ObjEmbodied, shard.ObjArea},
}

type shardInst struct {
	db       *tech.DB
	sys      *core.System
	replicas *replicaSet
	items    []item
	acc      shardAcc
}

// shardAcc accumulates a traced phase's coordinator counters and lease
// timings.
type shardAcc struct {
	mu     sync.Mutex
	ops    int
	points uint64
	// coordSelf sums each op's share of wall time outside every lease.
	coordSelf float64
	rtt       []time.Duration
	stats     shard.Stats
	served0   uint64
}

func setupShard(ctx context.Context, _ bool) (instance, error) {
	db := tech.Default()
	sys, err := testcases.EPYC(db, 8)
	if err != nil {
		return nil, err
	}
	rs, err := startReplicas(db, shardReplicas)
	if err != nil {
		return nil, err
	}
	s := &shardInst{db: db, sys: sys, replicas: rs}
	s.items = append(s.items, item{key: "sweep/embodied-cost", run: s.op(nil)})
	for i, p := range objectivePairs {
		s.items = append(s.items, item{key: "front/" + p.name, run: s.op(shardObjectives[i])})
	}
	// Warm-up: one front, so each replica compiles the plan into its
	// catalog before timing.
	if _, err := s.items[1].run(ctx, nil); err != nil {
		s.close()
		return nil, err
	}
	s.acc.served0 = rs.leasesServed()
	return s, nil
}

func (s *shardInst) op(objs []shard.Objective) func(ctx context.Context, ot *opTrace) (fold, error) {
	return func(ctx context.Context, ot *opTrace) (fold, error) {
		var lat *leaseLog
		if ot != nil {
			lat = &leaseLog{}
		}
		start := time.Now()
		pts, front, total, st, err := shardedSweep(ctx, ot, s.replicas.addrs, s.sys, s.db, bigSweepNodes, objs, lat)
		if err != nil {
			return nil, err
		}
		if ot != nil {
			s.acc.add(start, time.Now(), uint64(total), st, lat)
		}
		if objs == nil {
			return func(h *hasher) { h.points(pts); h.points(front) }, nil
		}
		return func(h *hasher) { h.word(uint64(total)); h.points(front) }, nil
	}
}

func (a *shardAcc) add(start, end time.Time, points uint64, st shard.Stats, lat *leaseLog) {
	lat.mu.Lock()
	leases := append([]span(nil), lat.leases...)
	lat.mu.Unlock()
	wall := end.Sub(start).Nanoseconds()
	covered := union(leases, start.UnixNano(), end.UnixNano())
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ops++
	a.points += points
	a.coordSelf += float64(wall-covered) / float64(wall)
	for _, l := range leases {
		a.rtt = append(a.rtt, time.Duration(l.End-l.Start))
	}
	a.stats.LeasesGranted += st.LeasesGranted
	a.stats.BlocksRequeued += st.BlocksRequeued
	a.stats.Fallbacks += st.Fallbacks
	a.stats.HedgesFired += st.HedgesFired
	a.stats.Wire.Dials += st.Wire.Dials
	a.stats.Wire.Reconnects += st.Wire.Reconnects
	a.stats.Wire.FramesIn += st.Wire.FramesIn
	a.stats.Wire.FramesOut += st.Wire.FramesOut
	a.stats.Wire.BytesIn += st.Wire.BytesIn
}

func (s *shardInst) catalogue() []item { return s.items }

func (s *shardInst) deal(rng *rand.Rand, _ int64, _ int) [][]int { return sweepCycle(rng) }

func (s *shardInst) layers(ctx context.Context, tr *tracer) (map[string]metric, error) {
	enc, dec, err := wireProbe(s.sys, s.db)
	if err != nil {
		return nil, err
	}
	a := &s.acc
	a.mu.Lock()
	defer a.mu.Unlock()
	rtt := append([]time.Duration(nil), a.rtt...)
	sort.Slice(rtt, func(i, j int) bool { return rtt[i] < rtt[j] })
	ops := uint64(max(a.ops, 1))
	w := a.stats.Wire
	return map[string]metric{
		"shard.lease_rtt_us_p50":     {us(percentile(rtt, 0.50)), "us"},
		"shard.lease_rtt_us_p90":     {us(percentile(rtt, 0.90)), "us"},
		"shard.coordinator_self_pct": {100 * a.coordSelf / float64(ops), "%"},
		"shard.leases_per_op":        {ratio(a.stats.LeasesGranted, ops), "count"},
		"shard.blocks_requeued":      {float64(a.stats.BlocksRequeued), "count"},
		"shard.fallbacks":            {float64(a.stats.Fallbacks), "count"},
		"shard.hedges_fired":         {float64(a.stats.HedgesFired), "count"},
		"wire.encode_ns_per_point":   {enc, "ns"},
		"wire.decode_ns_per_point":   {dec, "ns"},
		"wire.bytes_in_per_point":    {ratio(w.BytesIn, a.points), "B"},
		"wire.frames_per_op":         {ratio(w.FramesIn+w.FramesOut, ops), "count"},
		"netx.dials_per_op":          {ratio(w.Dials, ops), "count"},
		"netx.reconnects":            {float64(w.Reconnects), "count"},
		"netx.leases_served":         {ratio(s.replicas.leasesServed()-a.served0, ops), "count"},
	}, nil
}

// wireProbeReps is the repetition count of the codec probe.
const wireProbeReps = 2

// wireProbe times the wire codec over every block of one sweep in the
// points mode: the block results come from shard.ComputeBlock, the
// execution seam replicas run, then each is encoded and decoded back.
func wireProbe(sys *core.System, db *tech.DB) (encNs, decNs float64, err error) {
	plan, err := explore.Compile(sys, db, bigSweepNodes, cost.DefaultParams())
	if err != nil {
		return 0, 0, err
	}
	const blockSize = 512
	nb := (plan.Combos() + blockSize - 1) / blockSize
	blocks := make([]shard.BlockResult, nb)
	for b := range blocks {
		if blocks[b], err = shard.ComputeBlock(plan, shard.ModePoints, nil, b, blockSize); err != nil {
			return 0, 0, err
		}
	}
	frames := make([][]byte, nb)
	var encT, decT time.Duration
	var dst shard.BlockResult
	for r := 0; r < wireProbeReps; r++ {
		t0 := time.Now()
		for b := range blocks {
			frames[b] = wire.AppendBlockResult(frames[b][:0], &blocks[b])
		}
		encT += time.Since(t0)
		t0 = time.Now()
		for b := range frames {
			if err := wire.DecodeBlockResult(frames[b], &dst); err != nil {
				return 0, 0, fmt.Errorf("decode block %d: %w", b, err)
			}
		}
		decT += time.Since(t0)
	}
	n := float64(wireProbeReps * plan.Combos())
	return float64(encT.Nanoseconds()) / n, float64(decT.Nanoseconds()) / n, nil
}

func (s *shardInst) close() error { return s.replicas.stop() }
