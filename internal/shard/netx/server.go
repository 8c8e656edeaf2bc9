// Package netx is the real network transport behind the shard layer's
// Transport seam: the lease protocol of internal/shard carried over
// persistent TCP connections in the binary frame format of
// internal/wire.
//
// The split of responsibilities follows the loopback design exactly —
// which is what keeps the failure model and the bit-identity contract
// intact across the network hop:
//
//   - A replica server (Server / ListenAndServe) owns a shard.Catalog
//     and executes leases against plans it compiled locally. Plans are
//     never shipped: a client registers a plan's *content* (canonical
//     JSON of the system, node list and cost parameters) once per
//     connection, the server re-derives the content key with its own
//     tech database, and echoes it back — so coordinator/replica skew
//     (a different db version, a drifted encoding) surfaces as a typed
//     key mismatch instead of silently divergent results.
//   - A client (Client / DialTransport) implements shard.Transport
//     over one persistent connection per replica address. Leases are
//     multiplexed by id, so several in-flight leases pipeline over one
//     socket (pass the same *Client to the coordinator several times
//     to exploit it); a broken connection fails the in-flight leases
//     — the coordinator's existing backoff/re-lease machinery owns the
//     retry policy — and the next Execute redials.
//
// Read and write deadlines are derived from lease deadlines plus a
// grace (Options.Slack): a socket that stays silent past every
// outstanding lease's deadline is declared dead, which is the
// transport-level analogue of the coordinator's watchdog expiry.
package netx

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/shard"
	"ecochip/internal/tech"
	"ecochip/internal/wire"
)

// Options tunes both ends of the transport. The zero value is usable.
type Options struct {
	// Slack is the grace added to lease deadlines when deriving socket
	// read/write deadlines, and the handshake/registration timeout
	// (default 2s).
	Slack time.Duration
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// DrainTimeout bounds the server's graceful shutdown: in-flight
	// leases get this long to finish streaming before connections are
	// closed (default 10s).
	DrainTimeout time.Duration
	// MaxFrame caps accepted frame sizes (default wire.MaxFrame).
	MaxFrame int
	// AuthToken is the shared secret of both ends. A server with a token
	// set rejects registrations whose token does not match
	// (constant-time compare, typed CodeAuthFailed); a client with a
	// token set ships it in every registration frame. The token is
	// connection metadata — it never enters plan content keys.
	AuthToken string
	// Logf, when set, receives transport events worth operator eyes
	// (accept errors, protocol violations, drain progress).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Slack <= 0 {
		o.Slack = 2 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// countConn counts raw socket bytes into the owner's atomics.
type countConn struct {
	net.Conn
	in, out *atomic.Uint64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(uint64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(uint64(n))
	return n, err
}

// Server executes leases for remote coordinators: the network face of
// a shard replica. It is stateless between leases exactly like the
// loopback shard.Replica it wraps — all retained state is the catalog
// of compiled plans.
type Server struct {
	cat  *shard.Catalog
	db   *tech.DB
	rep  *shard.Replica
	opts Options

	mu       sync.Mutex
	conns    map[net.Conn]*srvConn
	draining bool
	leases   sync.WaitGroup

	accepted, framesIn, framesOut atomic.Uint64
	bytesIn, bytesOut             atomic.Uint64
	leasesServed, registrations   atomic.Uint64
	activeLeases, maxActive       atomic.Uint64
}

// NewServer builds a replica server over a catalog and the tech
// database new registrations compile against. The db must match the
// coordinator's — the content-key echo catches it when it does not.
func NewServer(cat *shard.Catalog, db *tech.DB, opts Options) *Server {
	return &Server{
		cat:   cat,
		db:    db,
		rep:   shard.NewReplica(cat),
		opts:  opts.withDefaults(),
		conns: make(map[net.Conn]*srvConn),
	}
}

// Counters snapshots the server-side wire counters (Dials counts
// accepted connections; MaxPipeline the deepest concurrent lease set).
func (s *Server) Counters() shard.TransportCounters {
	return shard.TransportCounters{
		Dials:       s.accepted.Load(),
		FramesIn:    s.framesIn.Load(),
		FramesOut:   s.framesOut.Load(),
		BytesIn:     s.bytesIn.Load(),
		BytesOut:    s.bytesOut.Load(),
		MaxPipeline: s.maxActive.Load(),
	}
}

// LeasesServed reports completed lease executions (any outcome).
func (s *Server) LeasesServed() uint64 { return s.leasesServed.Load() }

// Registrations reports plan registrations accepted over the wire.
func (s *Server) Registrations() uint64 { return s.registrations.Load() }

// Serve accepts connections on ln until ctx is cancelled, then drains:
// stop accepting, refuse new leases (CodeShuttingDown), let in-flight
// leases finish streaming (bounded by DrainTimeout), close
// connections, return. The error is nil on a clean drain. A fatal
// Accept error (EMFILE, a closed listener) runs the same drain before
// returning it, so Serve never exits with lease goroutines or tracked
// connections still live.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	for {
		nc, err := ln.Accept()
		if err != nil {
			derr := s.drain()
			if ctx.Err() != nil {
				return derr
			}
			return err
		}
		s.accepted.Add(1)
		go s.serveConn(countConn{Conn: nc, in: &s.bytesIn, out: &s.bytesOut})
	}
}

// ListenAndServe binds addr and serves until ctx is cancelled. ready,
// when non-nil, receives the bound address once listening (port 0
// resolution for tests and daemons).
func ListenAndServe(ctx context.Context, addr string, cat *shard.Catalog, db *tech.DB, opts Options, ready func(addr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	return NewServer(cat, db, opts).Serve(ctx, ln)
}

// drain is the graceful-shutdown tail of Serve.
func (s *Server) drain() error {
	s.mu.Lock()
	s.draining = true
	n := len(s.conns)
	s.mu.Unlock()
	s.opts.logf("netx: draining %d connections, %d leases in flight", n, s.activeLeases.Load())
	done := make(chan struct{})
	go func() {
		s.leases.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.opts.DrainTimeout):
		s.opts.logf("netx: drain timeout after %s, closing with leases in flight", s.opts.DrainTimeout)
		// Name every abandoned lease: the coordinator will re-lease the
		// blocks, but the operator deserves to know what was cut off.
		s.mu.Lock()
		for _, sc := range s.conns {
			sc.mu.Lock()
			for id, al := range sc.active {
				s.opts.logf("netx: abandoning lease %d: plan %s blocks [%d,%d) after %s",
					id, al.lease.Key, al.lease.Blocks.Lo, al.lease.Blocks.Hi,
					time.Since(al.started).Round(time.Millisecond))
			}
			sc.mu.Unlock()
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	for nc, sc := range s.conns {
		sc.cancelAll()
		nc.Close()
	}
	s.conns = map[net.Conn]*srvConn{}
	s.mu.Unlock()
	return nil
}

// srvConn is the per-connection server state: a locked frame writer
// shared by lease goroutines and the id→lease map of active leases.
type srvConn struct {
	c   net.Conn
	w   *wire.Writer
	wmu sync.Mutex

	mu     sync.Mutex
	active map[uint64]*activeLease
}

// activeLease is one in-flight lease execution, retained so a drain
// that abandons it can say exactly what was abandoned.
type activeLease struct {
	cancel  context.CancelFunc
	lease   shard.Lease
	started time.Time
}

func (sc *srvConn) cancelAll() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, al := range sc.active {
		al.cancel()
	}
}

// write emits one frame under the connection write lock with the given
// deadline.
func (s *Server) write(sc *srvConn, m wire.Msg, id uint64, payload []byte, deadline time.Time) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.c.SetWriteDeadline(deadline)
	if err := sc.w.WriteFrame(m, id, payload); err != nil {
		return err
	}
	s.framesOut.Add(1)
	return nil
}

// buffer encodes one frame under the write lock without forcing a
// flush: a lease's block-result burst coalesces into few syscalls, and
// the terminal WriteFrame (done/error, always flushing) drains the
// tail. Another goroutine's interleaved flushing write also drains it
// — buffered frames never reorder, the buffer is strictly FIFO.
func (s *Server) buffer(sc *srvConn, m wire.Msg, id uint64, payload []byte, deadline time.Time) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.c.SetWriteDeadline(deadline)
	if err := sc.w.BufferFrame(m, id, payload); err != nil {
		return err
	}
	s.framesOut.Add(1)
	return nil
}

func (s *Server) serveConn(nc net.Conn) {
	sc := &srvConn{c: nc, w: wire.NewWriter(nc), active: make(map[uint64]*activeLease)}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[nc] = sc
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		sc.cancelAll()
		nc.Close()
	}()

	r := wire.NewReader(nc, s.opts.MaxFrame)
	// Handshake: the first frame must be a version-matched hello, and
	// it must arrive promptly.
	nc.SetReadDeadline(time.Now().Add(s.opts.Slack))
	m, id, p, err := r.ReadFrame()
	if err != nil || m != wire.MsgHello {
		s.opts.logf("netx: %s: bad handshake: %v", nc.RemoteAddr(), err)
		return
	}
	if v, err := wire.DecodeUvarint(p); err != nil || v != wire.ProtoVersion {
		s.opts.logf("netx: %s: protocol version mismatch (%d vs %d)", nc.RemoteAddr(), v, wire.ProtoVersion)
		return
	}
	if err := s.write(sc, wire.MsgHello, id, wire.AppendUvarint(nil, wire.ProtoVersion), time.Now().Add(s.opts.Slack)); err != nil {
		return
	}

	for {
		// Frames arrive only when a coordinator has business with us;
		// an idle connection legitimately stays silent, so the steady
		// loop reads without a deadline and relies on conn closure (our
		// drain, or the peer) to unblock.
		nc.SetReadDeadline(time.Time{})
		m, id, p, err := r.ReadFrame()
		if err != nil {
			return
		}
		s.framesIn.Add(1)
		switch m {
		case wire.MsgRegister:
			s.handleRegister(sc, id, p)
		case wire.MsgLease:
			var lease shard.Lease
			if err := wire.DecodeLease(p, &lease); err != nil {
				s.opts.logf("netx: %s: corrupt lease: %v", nc.RemoteAddr(), err)
				return
			}
			s.startLease(sc, id, lease)
		case wire.MsgCancel:
			sc.mu.Lock()
			if al := sc.active[id]; al != nil {
				al.cancel()
			}
			sc.mu.Unlock()
		default:
			s.opts.logf("netx: %s: unexpected frame type %d", nc.RemoteAddr(), m)
			return
		}
	}
}

// handleRegister compiles-or-registers a plan from its shipped content
// and echoes the locally derived key. Registration is the cold path
// (once per connection per plan), so JSON and allocation are fine here.
func (s *Server) handleRegister(sc *srvConn, id uint64, p []byte) {
	wd := time.Now().Add(s.opts.Slack)
	reg, err := wire.DecodeRegistration(p)
	if err != nil {
		s.write(sc, wire.MsgLeaseError, id, wire.AppendError(nil, wire.CodeGeneric, err.Error()), wd)
		return
	}
	if s.opts.AuthToken != "" {
		if subtle.ConstantTimeCompare([]byte(reg.Token), []byte(s.opts.AuthToken)) != 1 {
			s.write(sc, wire.MsgLeaseError, id, wire.AppendError(nil, wire.CodeAuthFailed, "register: bad auth token"), wd)
			return
		}
	}
	var sys core.System
	if err := json.Unmarshal(reg.System, &sys); err != nil {
		s.write(sc, wire.MsgLeaseError, id, wire.AppendError(nil, wire.CodeGeneric, "register: system: "+err.Error()), wd)
		return
	}
	var cp cost.Params
	if err := json.Unmarshal(reg.Cost, &cp); err != nil {
		s.write(sc, wire.MsgLeaseError, id, wire.AppendError(nil, wire.CodeGeneric, "register: cost params: "+err.Error()), wd)
		return
	}
	key, err := s.cat.RegisterSweep(&sys, s.db, reg.Nodes, cp)
	if err != nil {
		s.write(sc, wire.MsgLeaseError, id, wire.AppendError(nil, wire.CodeGeneric, "register: "+err.Error()), wd)
		return
	}
	s.registrations.Add(1)
	s.write(sc, wire.MsgRegistered, id, wire.AppendString(nil, key), wd)
}

// leaseBudget converts a lease's advisory deadline — a wall-clock
// timestamp stamped by the coordinator's clock — into a replica-local
// bound. Clock skew between the two machines must not turn a fresh
// lease into an instantly-expired one, so the replica grants itself at
// least Slack of budget beyond its own now, whatever the remote
// timestamp says; the coordinator's watchdog remains the authoritative
// expiry, this bound only stops runaway work.
func (s *Server) leaseBudget(deadline time.Time) time.Time {
	if min := time.Now().Add(s.opts.Slack); deadline.Before(min) {
		deadline = min
	}
	return deadline.Add(s.opts.Slack)
}

// startLease admits one lease (or refuses it while draining) and runs
// it on its own goroutine so the read loop keeps servicing cancels and
// further leases — the multiplexing that lets leases pipeline.
func (s *Server) startLease(sc *srvConn, id uint64, lease shard.Lease) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.write(sc, wire.MsgLeaseError, id, wire.AppendError(nil, wire.CodeShuttingDown, "replica draining"), time.Now().Add(s.opts.Slack))
		return
	}
	s.leases.Add(1)
	s.mu.Unlock()

	// The replica-side lease context: cancelled by MsgCancel, and
	// deadline-bounded by the lease's advisory deadline plus slack so
	// an expired lease stops burning cycles even if the cancel frame
	// never arrives.
	lctx, cancel := context.WithCancel(context.Background())
	if !lease.Deadline.IsZero() {
		lctx, cancel = context.WithDeadline(context.Background(), s.leaseBudget(lease.Deadline))
	}
	sc.mu.Lock()
	sc.active[id] = &activeLease{cancel: cancel, lease: lease, started: time.Now()}
	sc.mu.Unlock()

	depth := s.activeLeases.Add(1)
	for {
		max := s.maxActive.Load()
		if depth <= max || s.maxActive.CompareAndSwap(max, depth) {
			break
		}
	}

	go func() {
		defer s.leases.Done()
		defer cancel()
		defer func() {
			sc.mu.Lock()
			delete(sc.active, id)
			sc.mu.Unlock()
			s.activeLeases.Add(^uint64(0))
			s.leasesServed.Add(1)
		}()
		wd := s.leaseBudget(lease.Deadline)
		buf := wire.GetBuffer()
		defer wire.PutBuffer(buf)
		err := s.rep.Execute(lctx, lease, func(res shard.BlockResult) error {
			*buf = wire.AppendBlockResult((*buf)[:0], &res)
			return s.buffer(sc, wire.MsgBlockResult, id, *buf, wd)
		})
		if err == nil {
			s.write(sc, wire.MsgLeaseDone, id, nil, wd)
			return
		}
		code := wire.CodeGeneric
		switch {
		case errors.Is(err, shard.ErrPlanUnknown):
			code = wire.CodePlanUnknown
		case errors.Is(err, shard.ErrLeaseMismatch):
			code = wire.CodeLeaseMismatch
		case errors.Is(err, shard.ErrReplicaDown):
			code = wire.CodeReplicaDown
		}
		s.write(sc, wire.MsgLeaseError, id, wire.AppendError(nil, code, err.Error()), wd)
	}()
}
