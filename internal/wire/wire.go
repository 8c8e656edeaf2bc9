// Package wire is the binary frame format of the shard network
// transport: the compact, allocation-free encoding that carries the
// lease protocol (shard.Lease grants, shard.BlockResult streams, plan
// registrations) over a socket.
//
// Design rules, in order:
//
//   - Bit-identity by construction. Every float crosses the wire as the
//     8 fixed little-endian bytes of math.Float64bits, so a decoded
//     point carries the exact bits the replica computed — the shard
//     layer's Float64bits parity contract survives the network hop
//     without any "close enough" parsing.
//   - Cheap frames. Varint headers and varint integer fields keep the
//     common frame (one 16-point block result) in the hundreds of
//     bytes; encode appends into a caller-owned buffer and decode reads
//     in place, reusing the destination's slice capacity, so the steady
//     state allocates nothing per frame (an alloc-bound test pins
//     this). sync.Pool-backed scratch buffers (GetBuffer/PutBuffer)
//     let concurrent lease goroutines encode without contending on a
//     shared buffer.
//   - Hostile input is survivable. Decode never panics: every read is
//     bounds-checked, declared element counts are validated against the
//     remaining payload before allocation, and frame lengths are capped
//     (MaxFrame), so a truncated, corrupt or adversarial peer produces
//     a typed error, not a crash or an OOM (the fuzz suite holds this
//     line).
//
// A frame is
//
//	uvarint(len(body)) || body
//	body := msgType(1 byte) || uvarint(leaseID) || payload
//
// where leaseID scopes result/done/error/cancel frames to the lease
// (or register exchange) they answer. Payload layouts live beside
// their Append/Decode pairs below.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"ecochip/internal/explore"
	"ecochip/internal/shard"
)

// ProtoVersion is the handshake version; both ends of a connection
// must agree (MsgHello exchange) before any lease traffic. Version 2
// added the auth token field of the register payload.
const ProtoVersion = 2

// MaxFrame caps a frame's body length. A peer announcing a longer
// frame is corrupt or hostile; the connection is torn down instead of
// allocating the claim. 64 MiB comfortably covers the largest legal
// block result (a full-point block of a MaxCombinations plan).
const MaxFrame = 64 << 20

// Msg is the frame type tag.
type Msg byte

const (
	// MsgHello opens a connection: payload is uvarint(ProtoVersion).
	// Client sends first; server echoes (its own version) as the ack.
	MsgHello Msg = 1 + iota
	// MsgRegister ships a plan's content (Registration) so the replica
	// can compile it locally and derive the content key itself.
	MsgRegister
	// MsgRegistered acks a register: payload is the replica's locally
	// derived key string — the client checks it against its own, so
	// db-version skew surfaces as a typed error, not silent divergence.
	MsgRegistered
	// MsgLease grants a block span (shard.Lease payload).
	MsgLease
	// MsgBlockResult streams one completed block (shard.BlockResult).
	MsgBlockResult
	// MsgLeaseDone reports a lease's span fully emitted (no payload).
	MsgLeaseDone
	// MsgLeaseError fails a lease: payload is code byte + message.
	MsgLeaseError
	// MsgCancel asks the replica to stop a lease (no payload); sent on
	// coordinator-side expiry so the replica stops burning cycles.
	MsgCancel
)

// ErrCode classifies a MsgLeaseError so typed shard errors survive the
// wire.
type ErrCode byte

const (
	// CodeGeneric is any unclassified replica-side failure (transient).
	CodeGeneric ErrCode = iota
	// CodePlanUnknown maps shard.ErrPlanUnknown.
	CodePlanUnknown
	// CodeLeaseMismatch maps shard.ErrLeaseMismatch.
	CodeLeaseMismatch
	// CodeReplicaDown maps shard.ErrReplicaDown.
	CodeReplicaDown
	// CodeShuttingDown reports a draining replica that refuses new
	// leases; the coordinator treats it as transient and re-leases
	// elsewhere.
	CodeShuttingDown
	// CodeAuthFailed reports a register frame whose auth token the
	// replica rejected — a configuration failure distinct from db skew
	// (which surfaces as a key mismatch on a successful register).
	CodeAuthFailed
)

// ErrTruncated reports a payload that ended before its declared
// content.
var ErrTruncated = errors.New("wire: truncated payload")

// ErrCorrupt reports a structurally invalid payload (bad counts,
// overflowing varints, impossible lengths).
var ErrCorrupt = errors.New("wire: corrupt payload")

// Registration is the content of one sweep plan, shipped once per
// (connection, plan) so a remote replica can compile locally: the
// canonical JSON of the system and cost parameters plus the candidate
// node list. The replica derives the plan key from this content and
// its own tech database — the key is never trusted off the wire, so
// two parties that agree on a key agree on the compiled bits.
type Registration struct {
	// Key is the sender's derived plan key (advisory; the receiver
	// re-derives and echoes its own).
	Key string
	// System is the JSON encoding of the core.System.
	System []byte
	// Nodes is the candidate node list.
	Nodes []int
	// Cost is the JSON encoding of the cost.Params.
	Cost []byte
	// Token is the shared-secret credential of the replica port (empty
	// when the deployment runs unauthenticated). It is connection
	// metadata, not plan content: the key derivation never sees it.
	Token string
}

// --- append-side primitives -------------------------------------------------

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// --- decode-side primitives -------------------------------------------------

// dec is a bounds-checked cursor over one payload. All reads return an
// error instead of panicking on truncation or corruption.
type dec struct {
	p   []byte
	off int
}

func (d *dec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.p[d.off:])
	if n <= 0 {
		if n == 0 {
			return 0, ErrTruncated
		}
		return 0, fmt.Errorf("%w: overlong varint", ErrCorrupt)
	}
	d.off += n
	return v, nil
}

// length reads a count/length field and validates it against the
// remaining payload assuming each element occupies at least minBytes —
// the guard that keeps a corrupt header from provoking a giant
// allocation.
func (d *dec) length(minBytes int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.p)-d.off)/uint64(minBytes) {
		return 0, fmt.Errorf("%w: %d elements declared with %d bytes left", ErrCorrupt, v, len(d.p)-d.off)
	}
	return int(v), nil
}

func (d *dec) intField() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64/2 {
		return 0, fmt.Errorf("%w: integer field %d out of range", ErrCorrupt, v)
	}
	return int(v), nil
}

func (d *dec) varint() (int64, error) {
	v, n := binary.Varint(d.p[d.off:])
	if n <= 0 {
		if n == 0 {
			return 0, ErrTruncated
		}
		return 0, fmt.Errorf("%w: overlong varint", ErrCorrupt)
	}
	d.off += n
	return v, nil
}

func (d *dec) byte() (byte, error) {
	if d.off >= len(d.p) {
		return 0, ErrTruncated
	}
	b := d.p[d.off]
	d.off++
	return b, nil
}

func (d *dec) float() (float64, error) {
	if d.off+8 > len(d.p) {
		return 0, ErrTruncated
	}
	bits := binary.LittleEndian.Uint64(d.p[d.off:])
	d.off += 8
	return math.Float64frombits(bits), nil
}

func (d *dec) stringField() (string, error) {
	n, err := d.length(1)
	if err != nil {
		return "", err
	}
	s := string(d.p[d.off : d.off+n])
	d.off += n
	return s, nil
}

// stringView returns the raw bytes of a string field, valid only while
// the payload buffer is.
func (d *dec) stringView() ([]byte, error) {
	n, err := d.length(1)
	if err != nil {
		return nil, err
	}
	b := d.p[d.off : d.off+n]
	d.off += n
	return b, nil
}

// bytesField returns a copy (payload buffers are reused across frames).
func (d *dec) bytesField() ([]byte, error) {
	n, err := d.length(1)
	if err != nil {
		return nil, err
	}
	b := append([]byte(nil), d.p[d.off:d.off+n]...)
	d.off += n
	return b, nil
}

func (d *dec) finish() error {
	if d.off != len(d.p) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.p)-d.off)
	}
	return nil
}

// --- Lease ------------------------------------------------------------------

// AppendLease appends the lease payload:
//
//	key(string) seq lo span blockSize planPoints mode(1) nobj obj... deadline(varint unixnano)
func AppendLease(dst []byte, l *shard.Lease) []byte {
	dst = appendString(dst, l.Key)
	dst = appendUvarint(dst, l.Seq)
	dst = appendUvarint(dst, uint64(l.Blocks.Lo))
	dst = appendUvarint(dst, uint64(l.Blocks.Len()))
	dst = appendUvarint(dst, uint64(l.BlockSize))
	dst = appendUvarint(dst, uint64(l.PlanPoints))
	dst = append(dst, byte(l.Mode))
	dst = appendUvarint(dst, uint64(len(l.Objectives)))
	for _, o := range l.Objectives {
		dst = append(dst, byte(o))
	}
	var ns int64
	if !l.Deadline.IsZero() {
		ns = l.Deadline.UnixNano()
	}
	dst = binary.AppendVarint(dst, ns)
	return dst
}

// DecodeLease parses a lease payload into l, reusing l.Objectives'
// capacity. The deadline round-trips at nanosecond resolution (zero
// stays zero); monotonic clock readings do not cross the wire, which
// is correct — the deadline is advisory on the replica side.
func DecodeLease(p []byte, l *shard.Lease) error {
	d := dec{p: p}
	key, err := d.stringView()
	if err != nil {
		return err
	}
	// A connection re-decodes the same plan key lease after lease;
	// keeping the retained string when the bytes match makes the steady
	// state allocation-free (the == comparison does not materialize a
	// string).
	if string(key) != l.Key {
		l.Key = string(key)
	}
	if l.Seq, err = d.uvarint(); err != nil {
		return err
	}
	lo, err := d.intField()
	if err != nil {
		return err
	}
	span, err := d.intField()
	if err != nil {
		return err
	}
	l.Blocks = shard.BlockRange{Lo: lo, Hi: lo + span}
	if l.BlockSize, err = d.intField(); err != nil {
		return err
	}
	if l.PlanPoints, err = d.intField(); err != nil {
		return err
	}
	mode, err := d.byte()
	if err != nil {
		return err
	}
	l.Mode = shard.Mode(mode)
	nobj, err := d.length(1)
	if err != nil {
		return err
	}
	if cap(l.Objectives) >= nobj {
		l.Objectives = l.Objectives[:nobj]
	} else {
		l.Objectives = make([]shard.Objective, nobj)
	}
	for i := 0; i < nobj; i++ {
		b, err := d.byte()
		if err != nil {
			return err
		}
		l.Objectives[i] = shard.Objective(b)
	}
	ns, err := d.varint()
	if err != nil {
		return err
	}
	l.Deadline = unixNano(ns)
	return d.finish()
}

// --- BlockResult ------------------------------------------------------------

// AppendBlockResult appends the block-result payload:
//
//	seq block n slots[n] points[n]
//	point := nnodes nodes... EmbodiedKg TotalKg CostUSD PackageAreaMM2 (4×8B Float64bits LE)
func AppendBlockResult(dst []byte, r *shard.BlockResult) []byte {
	dst = appendUvarint(dst, r.Seq)
	dst = appendUvarint(dst, uint64(r.Block))
	dst = appendUvarint(dst, uint64(len(r.Slots)))
	for _, s := range r.Slots {
		dst = appendUvarint(dst, uint64(s))
	}
	for i := range r.Points {
		pt := &r.Points[i]
		dst = appendUvarint(dst, uint64(len(pt.Nodes)))
		for _, n := range pt.Nodes {
			dst = appendUvarint(dst, uint64(n))
		}
		dst = appendFloat(dst, pt.EmbodiedKg)
		dst = appendFloat(dst, pt.TotalKg)
		dst = appendFloat(dst, pt.CostUSD)
		dst = appendFloat(dst, pt.PackageAreaMM2)
	}
	return dst
}

// minPointBytes is the least a legal encoded point occupies: one
// nodes-count byte plus the four fixed floats.
const minPointBytes = 1 + 4*8

// DecodeBlockResult parses a block-result payload into r, reusing the
// capacity of r.Slots, r.Points and each point's Nodes slice — decode
// into the same destination every frame and the steady state allocates
// nothing. Callers that hand the result's slices to an owner (the
// coordinator sink keeps them) must decode into a fresh destination
// instead; the ownership trade is theirs to make.
func DecodeBlockResult(p []byte, r *shard.BlockResult) error {
	d := dec{p: p}
	var err error
	if r.Seq, err = d.uvarint(); err != nil {
		return err
	}
	if r.Block, err = d.intField(); err != nil {
		return err
	}
	n, err := d.length(1 + minPointBytes)
	if err != nil {
		return err
	}
	if cap(r.Slots) >= n {
		r.Slots = r.Slots[:n]
	} else {
		r.Slots = make([]int, n)
	}
	for i := 0; i < n; i++ {
		if r.Slots[i], err = d.intField(); err != nil {
			return err
		}
	}
	if cap(r.Points) >= n {
		r.Points = r.Points[:n]
	} else {
		r.Points = make([]explore.Point, n)
	}
	// Node slices that cannot reuse their destination's capacity are
	// carved from one shared arena (full slice expressions, so later
	// growth of one slice cannot clobber its neighbor): a fresh-decode
	// block costs one allocation for all its node lists, not one per
	// point.
	var arena []int
	for i := 0; i < n; i++ {
		pt := &r.Points[i]
		nn, err := d.length(1)
		if err != nil {
			return err
		}
		if cap(pt.Nodes) >= nn {
			pt.Nodes = pt.Nodes[:nn]
		} else {
			if len(arena)+nn > cap(arena) {
				// The capacity hint nn*(n-i) assumes every remaining
				// point is this large — but both counts came off the
				// wire, so bound the hint by the bytes actually left in
				// the payload (each encoded node occupies ≥1 byte). A
				// corrupt or hostile frame can then cost at most one
				// frame-sized allocation, never a multiplied-counts OOM.
				hint := len(d.p) - d.off
				if est := nn * (n - i); est >= nn && est < hint {
					hint = est
				}
				arena = make([]int, 0, hint)
			}
			pt.Nodes = arena[len(arena) : len(arena)+nn : len(arena)+nn]
			arena = arena[:len(arena)+nn]
		}
		for j := 0; j < nn; j++ {
			if pt.Nodes[j], err = d.intField(); err != nil {
				return err
			}
		}
		if pt.EmbodiedKg, err = d.float(); err != nil {
			return err
		}
		if pt.TotalKg, err = d.float(); err != nil {
			return err
		}
		if pt.CostUSD, err = d.float(); err != nil {
			return err
		}
		if pt.PackageAreaMM2, err = d.float(); err != nil {
			return err
		}
	}
	return d.finish()
}

// --- Registration -----------------------------------------------------------

// AppendRegistration appends the register payload:
//
//	key(string) system(bytes) ncount nodes... cost(bytes) token(string)
func AppendRegistration(dst []byte, reg *Registration) []byte {
	dst = appendString(dst, reg.Key)
	dst = appendBytes(dst, reg.System)
	dst = appendUvarint(dst, uint64(len(reg.Nodes)))
	for _, n := range reg.Nodes {
		dst = appendUvarint(dst, uint64(n))
	}
	dst = appendBytes(dst, reg.Cost)
	dst = appendString(dst, reg.Token)
	return dst
}

// DecodeRegistration parses a register payload. The JSON blobs are
// copied out of the frame buffer (registration is a cold path; the
// catalog retains them past the frame's lifetime).
func DecodeRegistration(p []byte) (Registration, error) {
	d := dec{p: p}
	var reg Registration
	var err error
	if reg.Key, err = d.stringField(); err != nil {
		return Registration{}, err
	}
	if reg.System, err = d.bytesField(); err != nil {
		return Registration{}, err
	}
	n, err := d.length(1)
	if err != nil {
		return Registration{}, err
	}
	reg.Nodes = make([]int, n)
	for i := 0; i < n; i++ {
		if reg.Nodes[i], err = d.intField(); err != nil {
			return Registration{}, err
		}
	}
	if reg.Cost, err = d.bytesField(); err != nil {
		return Registration{}, err
	}
	if reg.Token, err = d.stringField(); err != nil {
		return Registration{}, err
	}
	if err := d.finish(); err != nil {
		return Registration{}, err
	}
	return reg, nil
}

// --- small payloads ---------------------------------------------------------

// AppendError appends a lease-error payload: code byte + message.
func AppendError(dst []byte, code ErrCode, msg string) []byte {
	dst = append(dst, byte(code))
	return appendString(dst, msg)
}

// DecodeError parses a lease-error payload.
func DecodeError(p []byte) (ErrCode, string, error) {
	d := dec{p: p}
	c, err := d.byte()
	if err != nil {
		return 0, "", err
	}
	msg, err := d.stringField()
	if err != nil {
		return 0, "", err
	}
	return ErrCode(c), msg, d.finish()
}

// AppendString / DecodeString carry bare-string payloads
// (MsgRegistered's echoed key).
func AppendString(dst []byte, s string) []byte { return appendString(dst, s) }

// DecodeString parses a bare-string payload.
func DecodeString(p []byte) (string, error) {
	d := dec{p: p}
	s, err := d.stringField()
	if err != nil {
		return "", err
	}
	return s, d.finish()
}

// AppendUvarint / DecodeUvarint carry bare-integer payloads
// (MsgHello's version).
func AppendUvarint(dst []byte, v uint64) []byte { return appendUvarint(dst, v) }

// DecodeUvarint parses a bare-uvarint payload.
func DecodeUvarint(p []byte) (uint64, error) {
	d := dec{p: p}
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	return v, d.finish()
}

// --- pooled scratch buffers -------------------------------------------------

// bufPool recycles encode scratch across lease goroutines. Buffers
// that ballooned past the retention cap are dropped instead of pinned.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// maxPooledBuf caps the capacity a returned buffer may retain.
const maxPooledBuf = 1 << 20

// GetBuffer leases a zero-length scratch buffer from the pool.
func GetBuffer() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuffer returns a scratch buffer to the pool.
func PutBuffer(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	bufPool.Put(b)
}

// unixNano converts a wire nanosecond stamp back to a time; zero stays
// the zero time.
func unixNano(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}
