package netx

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/explore"
	"ecochip/internal/shard"
	"ecochip/internal/tech"
	"ecochip/internal/wire"

	"encoding/json"
)

// Registry holds the shippable content of registered sweeps, keyed by
// plan content key: what a Client sends a replica (once per connection
// per plan) so the replica can compile the identical plan locally.
type Registry struct {
	mu sync.RWMutex
	m  map[string]wire.Registration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]wire.Registration)}
}

// AddSweep records a sweep's shippable content and returns its plan
// content key — the same key Catalog.RegisterSweep derives, so the
// coordinator side registers with its local catalog and the registry
// in lockstep.
func (r *Registry) AddSweep(base *core.System, db *tech.DB, nodes []int, cp cost.Params) (string, error) {
	key, err := explore.PlanKey(base, db, nodes, cp)
	if err != nil {
		return "", err
	}
	sysJSON, err := json.Marshal(base)
	if err != nil {
		return "", fmt.Errorf("netx: encode system: %w", err)
	}
	cpJSON, err := json.Marshal(cp)
	if err != nil {
		return "", fmt.Errorf("netx: encode cost params: %w", err)
	}
	r.mu.Lock()
	r.m[key] = wire.Registration{
		Key:    key,
		System: sysJSON,
		Nodes:  append([]int(nil), nodes...),
		Cost:   cpJSON,
	}
	r.mu.Unlock()
	return key, nil
}

func (r *Registry) lookup(key string) (wire.Registration, bool) {
	r.mu.RLock()
	reg, ok := r.m[key]
	r.mu.RUnlock()
	return reg, ok
}

// Client is a shard.Transport over one persistent connection to a
// replica server. Execute is safe for concurrent use: concurrent
// leases multiplex over the single connection by lease id, which is
// the pipelining idiom — hand the same *Client to the coordinator
// multiple times and that many leases stay in flight on one socket.
//
// A broken connection fails the leases in flight on it (the
// coordinator's backoff and re-lease machinery owns retries) and the
// next Execute dials afresh.
type Client struct {
	addr string
	reg  *Registry
	opts Options

	mu     sync.Mutex
	cc     *clientConn
	nextID atomic.Uint64

	dials, reconnects   atomic.Uint64
	framesIn, framesOut atomic.Uint64
	bytesIn, bytesOut   atomic.Uint64
	maxPipeline         atomic.Uint64
}

var (
	_ shard.Transport        = (*Client)(nil)
	_ shard.CountedTransport = (*Client)(nil)
)

// DialTransport returns a Client for addr. Dialing is lazy — the first
// Execute connects — so construction succeeds even while the replica
// is still coming up, and the coordinator's backoff paces the attempts.
func DialTransport(addr string, reg *Registry, opts Options) *Client {
	return &Client{addr: addr, reg: reg, opts: opts.withDefaults()}
}

// TransportCounters snapshots the client-side wire counters.
func (c *Client) TransportCounters() shard.TransportCounters {
	return shard.TransportCounters{
		Dials:       c.dials.Load(),
		Reconnects:  c.reconnects.Load(),
		FramesOut:   c.framesOut.Load(),
		FramesIn:    c.framesIn.Load(),
		BytesOut:    c.bytesOut.Load(),
		BytesIn:     c.bytesIn.Load(),
		MaxPipeline: c.maxPipeline.Load(),
	}
}

// Close tears down the current connection, failing in-flight leases.
func (c *Client) Close() error {
	c.mu.Lock()
	cc := c.cc
	c.mu.Unlock()
	if cc != nil {
		cc.fail(fmt.Errorf("netx: client closed"))
	}
	return nil
}

// resultPool recycles decode destinations for block-result frames.
// The coordinator's sinks copy Point values out synchronously during
// emit, retaining only each point's Nodes slice — so a result can go
// back in the pool once emit returns, provided the Nodes references
// are scrubbed (putResult does; the decoder then carves fresh node
// arenas instead of reusing retained memory).
var resultPool = sync.Pool{New: func() any { return new(shard.BlockResult) }}

func putResult(r *shard.BlockResult) {
	for i := range r.Points {
		r.Points[i].Nodes = nil
	}
	resultPool.Put(r)
}

// event is one routed frame outcome for a pending request.
type event struct {
	m    wire.Msg
	res  *shard.BlockResult // MsgBlockResult
	code wire.ErrCode       // MsgLeaseError
	msg  string             // MsgLeaseError
	key  string             // MsgRegistered
}

// pend is one in-flight request (lease or registration) awaiting
// frames from the read loop.
type pend struct {
	ch       chan event
	gone     chan struct{} // closed when the waiter abandons the id
	deadline time.Time
}

// clientConn is one live connection: a locked frame writer, the id→pend
// routing table, and a read loop that owns the socket's read half.
type clientConn struct {
	cl *Client
	c  net.Conn
	w  *wire.Writer

	wmu sync.Mutex

	mu         sync.Mutex
	pending    map[uint64]*pend
	registered map[string]bool
	err        error

	done chan struct{} // closed when the read loop exits
}

// ensure returns the live connection, dialing and handshaking a new one
// if needed. Serialized under c.mu so concurrent Executes share one
// dial.
func (c *Client) ensure(ctx context.Context) (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cc != nil {
		select {
		case <-c.cc.done:
			c.cc = nil // broken; fall through to redial
		default:
			return c.cc, nil
		}
	}
	dctx, cancel := context.WithTimeout(ctx, c.opts.DialTimeout)
	defer cancel()
	var d net.Dialer
	nc, err := d.DialContext(dctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("netx: dial %s: %w", c.addr, err)
	}
	conn := countConn{Conn: nc, in: &c.bytesIn, out: &c.bytesOut}
	cc := &clientConn{
		cl:         c,
		c:          conn,
		w:          wire.NewWriter(conn),
		pending:    make(map[uint64]*pend),
		registered: make(map[string]bool),
		done:       make(chan struct{}),
	}
	// Handshake synchronously before the read loop exists: one hello
	// out, a version-matched hello back.
	hd := time.Now().Add(c.opts.Slack)
	conn.SetWriteDeadline(hd)
	if err := cc.w.WriteFrame(wire.MsgHello, 0, wire.AppendUvarint(nil, wire.ProtoVersion)); err != nil {
		nc.Close()
		return nil, fmt.Errorf("netx: handshake %s: %w", c.addr, err)
	}
	c.framesOut.Add(1)
	conn.SetReadDeadline(hd)
	r := wire.NewReader(conn, c.opts.MaxFrame)
	m, _, p, err := r.ReadFrame()
	if err != nil || m != wire.MsgHello {
		nc.Close()
		return nil, fmt.Errorf("netx: handshake %s: bad hello (%v)", c.addr, err)
	}
	if v, err := wire.DecodeUvarint(p); err != nil || v != wire.ProtoVersion {
		nc.Close()
		return nil, fmt.Errorf("netx: handshake %s: protocol version mismatch (%d vs %d)", c.addr, v, wire.ProtoVersion)
	}
	c.framesIn.Add(1)
	if c.dials.Add(1) > 1 {
		c.reconnects.Add(1)
	}
	c.cc = cc
	go cc.readLoop(r)
	return cc, nil
}

// fail tears the connection down once: records the cause, closes the
// socket (unblocking the read loop), and wakes every pending waiter
// via done.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
		cc.c.Close()
		close(cc.done)
	}
	cc.mu.Unlock()
	cc.cl.mu.Lock()
	if cc.cl.cc == cc {
		cc.cl.cc = nil
	}
	cc.cl.mu.Unlock()
}

func (cc *clientConn) cause() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err
}

// add installs a pend and reports the pipeline depth it created. It
// re-arms the socket read deadline so a read loop already parked in a
// deadline-free read (nothing was pending when it blocked) becomes
// bounded by the new request rather than waiting forever on a
// silently-dead connection.
func (cc *clientConn) add(id uint64, p *pend) int {
	cc.mu.Lock()
	cc.pending[id] = p
	depth := len(cc.pending)
	cc.armReadDeadlineLocked()
	cc.mu.Unlock()
	for {
		max := cc.cl.maxPipeline.Load()
		if uint64(depth) <= max || cc.cl.maxPipeline.CompareAndSwap(max, uint64(depth)) {
			break
		}
	}
	return depth
}

func (cc *clientConn) remove(id uint64) {
	cc.mu.Lock()
	delete(cc.pending, id)
	// Clear or shorten the parked read's bound so a deadline that only
	// the departed pend justified cannot time out an idle connection.
	cc.armReadDeadlineLocked()
	cc.mu.Unlock()
}

// armReadDeadlineLocked derives the socket read deadline from the
// outstanding requests — the latest pend deadline plus slack — and
// applies it. With nothing pending the read blocks without a deadline:
// frames only ever arrive in response to our requests, so silence is
// then legitimate. Caller holds cc.mu; computing and setting under the
// lock keeps a stale derivation from overwriting a fresher one.
func (cc *clientConn) armReadDeadlineLocked() {
	var max time.Time
	for _, p := range cc.pending {
		if p.deadline.After(max) {
			max = p.deadline
		}
	}
	if !max.IsZero() {
		max = max.Add(cc.cl.opts.Slack)
	}
	cc.c.SetReadDeadline(max)
}

// readLoop owns the read half: it routes each frame to the pend that
// asked for it and declares the connection dead when a read fails —
// including a deadline miss, the transport analogue of lease expiry.
func (cc *clientConn) readLoop(r *wire.Reader) {
	// Defense in depth behind wire's no-panic decode contract: a panic
	// here must cost one connection (failing its in-flight leases into
	// the coordinator's retry machinery), never the whole process.
	defer func() {
		if rec := recover(); rec != nil {
			cc.fail(fmt.Errorf("netx: %s: read loop panic: %v", cc.cl.addr, rec))
		}
	}()
	for {
		cc.mu.Lock()
		cc.armReadDeadlineLocked()
		cc.mu.Unlock()
		m, id, p, err := r.ReadFrame()
		if err != nil {
			cc.fail(fmt.Errorf("netx: %s: %w", cc.cl.addr, err))
			return
		}
		cc.cl.framesIn.Add(1)
		ev := event{m: m}
		switch m {
		case wire.MsgBlockResult:
			// Decode into a pooled result; Execute returns it to the
			// pool after the coordinator's sink has copied it out.
			ev.res = resultPool.Get().(*shard.BlockResult)
			if err := wire.DecodeBlockResult(p, ev.res); err != nil {
				cc.fail(fmt.Errorf("netx: %s: corrupt block result: %w", cc.cl.addr, err))
				return
			}
		case wire.MsgLeaseDone:
		case wire.MsgLeaseError:
			code, msg, err := wire.DecodeError(p)
			if err != nil {
				cc.fail(fmt.Errorf("netx: %s: corrupt error frame: %w", cc.cl.addr, err))
				return
			}
			ev.code, ev.msg = code, msg
		case wire.MsgRegistered:
			key, err := wire.DecodeString(p)
			if err != nil {
				cc.fail(fmt.Errorf("netx: %s: corrupt registration echo: %w", cc.cl.addr, err))
				return
			}
			ev.key = key
		default:
			cc.fail(fmt.Errorf("netx: %s: unexpected frame type %d", cc.cl.addr, m))
			return
		}
		cc.mu.Lock()
		pd := cc.pending[id]
		cc.mu.Unlock()
		if pd == nil {
			continue // late frame for an abandoned lease; drop
		}
		select {
		case pd.ch <- ev:
		case <-pd.gone:
		}
	}
}

// write emits one frame under the write lock.
func (cc *clientConn) write(m wire.Msg, id uint64, payload []byte, deadline time.Time) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	cc.c.SetWriteDeadline(deadline)
	if err := cc.w.WriteFrame(m, id, payload); err != nil {
		return err
	}
	cc.cl.framesOut.Add(1)
	return nil
}

// register ships the plan content for key if this connection has not
// yet, and verifies the replica derives the identical content key —
// the db-skew tripwire.
func (c *Client) register(ctx context.Context, cc *clientConn, key string) error {
	cc.mu.Lock()
	done := cc.registered[key]
	cc.mu.Unlock()
	if done {
		return nil
	}
	reg, ok := c.reg.lookup(key)
	if !ok {
		return fmt.Errorf("netx: no registration for plan %s: %w", key, shard.ErrPlanUnknown)
	}
	// The token rides the registration frame as connection metadata; it
	// is injected here (not stored in the registry) so one registry can
	// serve clients with different credentials.
	reg.Token = c.opts.AuthToken
	id := c.nextID.Add(1)
	deadline := time.Now().Add(c.opts.Slack)
	pd := &pend{ch: make(chan event, 1), gone: make(chan struct{}), deadline: deadline}
	cc.add(id, pd)
	defer func() {
		cc.remove(id)
		close(pd.gone)
	}()
	buf := wire.GetBuffer()
	*buf = wire.AppendRegistration((*buf)[:0], &reg)
	err := cc.write(wire.MsgRegister, id, *buf, deadline)
	wire.PutBuffer(buf)
	if err != nil {
		cc.fail(err)
		return fmt.Errorf("netx: register on %s: %w", c.addr, err)
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-cc.done:
		return fmt.Errorf("netx: register on %s: %w", c.addr, cc.cause())
	case ev := <-pd.ch:
		switch ev.m {
		case wire.MsgRegistered:
			if ev.key != key {
				return fmt.Errorf("netx: replica %s derived key %s for plan %s (catalog/db skew): %w",
					c.addr, ev.key, key, shard.ErrPlanUnknown)
			}
			cc.mu.Lock()
			cc.registered[key] = true
			cc.mu.Unlock()
			return nil
		case wire.MsgLeaseError:
			return remoteError(c.addr, ev.code, ev.msg)
		default:
			return fmt.Errorf("netx: register on %s: unexpected reply %d", c.addr, ev.m)
		}
	}
}

// Execute implements shard.Transport: connect if needed, ship the plan
// content once per connection, stream the lease's block results to
// emit, and map remote failures back to the shard layer's typed
// errors so the coordinator's retry/retire policy applies unchanged.
func (c *Client) Execute(ctx context.Context, lease shard.Lease, emit func(shard.BlockResult) error) error {
	cc, err := c.ensure(ctx)
	if err != nil {
		return err
	}
	if err := c.register(ctx, cc, lease.Key); err != nil {
		return err
	}

	id := c.nextID.Add(1)
	deadline := lease.Deadline
	if deadline.IsZero() {
		deadline = time.Now().Add(c.opts.Slack)
	}
	// The buffer covers a typical lease's whole burst (LeaseBlocks
	// block frames + done) so the read loop enqueues it without
	// blocking on the Execute goroutine — one wakeup per burst, not
	// per frame, which matters on small machines.
	pd := &pend{ch: make(chan event, 16), gone: make(chan struct{}), deadline: deadline}
	cc.add(id, pd)
	defer func() {
		cc.remove(id)
		close(pd.gone)
	}()

	buf := wire.GetBuffer()
	*buf = wire.AppendLease((*buf)[:0], &lease)
	err = cc.write(wire.MsgLease, id, *buf, deadline.Add(c.opts.Slack))
	wire.PutBuffer(buf)
	if err != nil {
		cc.fail(err)
		return fmt.Errorf("netx: send lease to %s: %w", c.addr, err)
	}

	cancelRemote := func() {
		// Best-effort: a lost cancel only costs the replica wasted
		// work; the coordinator dedups late results by block id.
		cc.write(wire.MsgCancel, id, nil, time.Now().Add(c.opts.Slack))
	}
	for {
		select {
		case <-ctx.Done():
			cancelRemote()
			return ctx.Err()
		case <-cc.done:
			return fmt.Errorf("netx: lease on %s: %w", c.addr, cc.cause())
		case ev := <-pd.ch:
			switch ev.m {
			case wire.MsgBlockResult:
				err := emit(*ev.res)
				putResult(ev.res)
				if err != nil {
					cancelRemote()
					return err
				}
			case wire.MsgLeaseDone:
				return nil
			case wire.MsgLeaseError:
				return remoteError(c.addr, ev.code, ev.msg)
			default:
				cancelRemote()
				return fmt.Errorf("netx: lease on %s: unexpected reply %d", c.addr, ev.m)
			}
		}
	}
}

// remoteError maps a wire error code back onto the shard layer's typed
// errors: plan-unknown and lease-mismatch keep their identities,
// replica-down marks the transport retirable, and everything else is a
// transient error the coordinator retries with backoff.
func remoteError(addr string, code wire.ErrCode, msg string) error {
	switch code {
	case wire.CodePlanUnknown:
		return fmt.Errorf("netx: %s: %s: %w", addr, msg, shard.ErrPlanUnknown)
	case wire.CodeLeaseMismatch:
		return fmt.Errorf("netx: %s: %s: %w", addr, msg, shard.ErrLeaseMismatch)
	case wire.CodeReplicaDown:
		return fmt.Errorf("netx: %s: %s: %w", addr, msg, shard.ErrReplicaDown)
	case wire.CodeAuthFailed:
		return fmt.Errorf("netx: %s: %s: %w", addr, msg, shard.ErrAuthFailed)
	case wire.CodeShuttingDown:
		return fmt.Errorf("netx: %s draining: %s", addr, msg)
	default:
		return fmt.Errorf("netx: %s: %s", addr, msg)
	}
}
