package wire

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"ecochip/internal/explore"
	"ecochip/internal/shard"
)

// randLease draws a structurally valid lease from rng.
func randLease(rng *rand.Rand) shard.Lease {
	l := shard.Lease{
		Key:        "sweep-0123456789abcdef",
		Seq:        rng.Uint64() >> 1,
		BlockSize:  1 + rng.Intn(512),
		PlanPoints: rng.Intn(1 << 20),
		Mode:       shard.Mode(rng.Intn(2)),
	}
	lo := rng.Intn(1 << 12)
	l.Blocks = shard.BlockRange{Lo: lo, Hi: lo + rng.Intn(8)}
	for i := rng.Intn(4); i > 0; i-- {
		l.Objectives = append(l.Objectives, shard.Objective(rng.Intn(4)))
	}
	if rng.Intn(2) == 0 {
		l.Deadline = time.Unix(0, rng.Int63())
	}
	return l
}

// randResult draws a block result with hostile float values included
// (negative zero, tiny/huge magnitudes) so bit-exactness is actually
// exercised.
func randResult(rng *rand.Rand) shard.BlockResult {
	hostile := []float64{0, math.Copysign(0, -1), 1e-308, 1e308, 1.5, -2.25, math.Pi}
	f := func() float64 {
		if rng.Intn(3) == 0 {
			return hostile[rng.Intn(len(hostile))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	n := rng.Intn(20)
	res := shard.BlockResult{Seq: rng.Uint64() >> 1, Block: rng.Intn(1 << 16)}
	slot := rng.Intn(100)
	for i := 0; i < n; i++ {
		res.Slots = append(res.Slots, slot)
		slot += 1 + rng.Intn(5)
		pt := explore.Point{EmbodiedKg: f(), TotalKg: f(), CostUSD: f(), PackageAreaMM2: f()}
		for j := 1 + rng.Intn(6); j > 0; j-- {
			pt.Nodes = append(pt.Nodes, rng.Intn(50))
		}
		res.Points = append(res.Points, pt)
	}
	return res
}

func leasesEqual(a, b *shard.Lease) bool {
	if a.Key != b.Key || a.Seq != b.Seq || a.Blocks != b.Blocks ||
		a.BlockSize != b.BlockSize || a.PlanPoints != b.PlanPoints || a.Mode != b.Mode ||
		len(a.Objectives) != len(b.Objectives) {
		return false
	}
	for i := range a.Objectives {
		if a.Objectives[i] != b.Objectives[i] {
			return false
		}
	}
	return a.Deadline.UnixNano() == b.Deadline.UnixNano() || (a.Deadline.IsZero() && b.Deadline.IsZero())
}

func resultsEqual(a, b *shard.BlockResult) bool {
	if a.Seq != b.Seq || a.Block != b.Block || len(a.Slots) != len(b.Slots) || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Slots {
		if a.Slots[i] != b.Slots[i] {
			return false
		}
	}
	for i := range a.Points {
		p, q := &a.Points[i], &b.Points[i]
		if len(p.Nodes) != len(q.Nodes) {
			return false
		}
		for j := range p.Nodes {
			if p.Nodes[j] != q.Nodes[j] {
				return false
			}
		}
		if math.Float64bits(p.EmbodiedKg) != math.Float64bits(q.EmbodiedKg) ||
			math.Float64bits(p.TotalKg) != math.Float64bits(q.TotalKg) ||
			math.Float64bits(p.CostUSD) != math.Float64bits(q.CostUSD) ||
			math.Float64bits(p.PackageAreaMM2) != math.Float64bits(q.PackageAreaMM2) {
			return false
		}
	}
	return true
}

func TestLeaseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		l := randLease(rng)
		p := AppendLease(nil, &l)
		var got shard.Lease
		if err := DecodeLease(p, &got); err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if !leasesEqual(&l, &got) {
			t.Fatalf("trial %d: %+v != %+v", i, got, l)
		}
		// Encode of the decode is byte-exact: the encoding is canonical.
		if !bytes.Equal(AppendLease(nil, &got), p) {
			t.Fatalf("trial %d: re-encode differs", i)
		}
	}
}

func TestBlockResultRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		r := randResult(rng)
		p := AppendBlockResult(nil, &r)
		var got shard.BlockResult
		if err := DecodeBlockResult(p, &got); err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if !resultsEqual(&r, &got) {
			t.Fatalf("trial %d: decoded result differs", i)
		}
		if !bytes.Equal(AppendBlockResult(nil, &got), p) {
			t.Fatalf("trial %d: re-encode differs", i)
		}
	}
}

func TestRegistrationRoundTrip(t *testing.T) {
	reg := Registration{
		Key:    "sweep-00ff",
		System: []byte(`{"Name":"epyc"}`),
		Nodes:  []int{7, 14, 10},
		Cost:   []byte(`{"x":1}`),
		Token:  "hunter2",
	}
	p := AppendRegistration(nil, &reg)
	got, err := DecodeRegistration(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != reg.Key || string(got.System) != string(reg.System) || string(got.Cost) != string(reg.Cost) {
		t.Fatalf("got %+v, want %+v", got, reg)
	}
	if len(got.Nodes) != 3 || got.Nodes[0] != 7 || got.Nodes[2] != 10 {
		t.Fatalf("nodes %v", got.Nodes)
	}
	if got.Token != "hunter2" {
		t.Fatalf("token %q, want %q", got.Token, "hunter2")
	}
}

func TestErrorRoundTrip(t *testing.T) {
	p := AppendError(nil, CodeLeaseMismatch, "geometry")
	code, msg, err := DecodeError(p)
	if err != nil || code != CodeLeaseMismatch || msg != "geometry" {
		t.Fatalf("got %v %q %v", code, msg, err)
	}
}

// The steady-state codec contract: encoding into a reused buffer and
// decoding into a reused destination allocates nothing per frame.
func TestCodecZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	res := randResult(rng)
	lease := randLease(rng)
	buf := make([]byte, 0, 1<<16)
	var dst shard.BlockResult
	var dstLease shard.Lease
	// Warm the destinations so capacities exist.
	buf = AppendBlockResult(buf[:0], &res)
	if err := DecodeBlockResult(buf, &dst); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		buf = AppendBlockResult(buf[:0], &res)
		if err := DecodeBlockResult(buf, &dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("block result round trip: %v allocs/frame, want 0", allocs)
	}
	buf = AppendLease(buf[:0], &lease)
	if err := DecodeLease(buf, &dstLease); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		buf = AppendLease(buf[:0], &lease)
		if err := DecodeLease(buf, &dstLease); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("lease round trip: %v allocs/frame, want 0", allocs)
	}
}

// Frames written through a Writer come back intact through a Reader,
// including interleaved types and ids.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var stream bytes.Buffer
	w := NewWriter(&stream)
	type sent struct {
		m  Msg
		id uint64
		p  []byte
	}
	var frames []sent
	for i := 0; i < 50; i++ {
		var payload []byte
		m := Msg(1 + rng.Intn(8))
		switch m {
		case MsgLease:
			l := randLease(rng)
			payload = AppendLease(nil, &l)
		case MsgBlockResult:
			r := randResult(rng)
			payload = AppendBlockResult(nil, &r)
		case MsgLeaseError:
			payload = AppendError(nil, CodeGeneric, "x")
		case MsgHello:
			payload = AppendUvarint(nil, ProtoVersion)
		default:
		}
		id := rng.Uint64() >> 1
		if err := w.WriteFrame(m, id, payload); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, sent{m, id, payload})
	}
	r := NewReader(&stream, 0)
	for i, f := range frames {
		m, id, p, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m != f.m || id != f.id || !bytes.Equal(p, f.p) {
			t.Fatalf("frame %d: got (%d,%d,%d bytes), want (%d,%d,%d bytes)", i, m, id, len(p), f.m, f.id, len(f.p))
		}
	}
	wf, wb := w.Counters()
	rf, rb := r.Counters()
	if wf != uint64(len(frames)) || rf != wf || wb != rb || wb == 0 {
		t.Errorf("counters: wrote %d/%dB, read %d/%dB", wf, wb, rf, rb)
	}
}

// Oversized and zero-length frames are refused before allocation.
func TestReaderRefusesBadFrames(t *testing.T) {
	var huge bytes.Buffer
	huge.Write(AppendUvarint(nil, MaxFrame+1))
	if _, _, _, err := NewReader(&huge, 0).ReadFrame(); err == nil {
		t.Error("oversized frame accepted")
	}
	var zero bytes.Buffer
	zero.Write(AppendUvarint(nil, 0))
	if _, _, _, err := NewReader(&zero, 0).ReadFrame(); err == nil {
		t.Error("zero-length frame accepted")
	}
	// Truncated body.
	var trunc bytes.Buffer
	trunc.Write(AppendUvarint(nil, 100))
	trunc.WriteByte(byte(MsgLease))
	if _, _, _, err := NewReader(&trunc, 0).ReadFrame(); err == nil {
		t.Error("truncated frame accepted")
	}
}

// Corrupt payloads: every truncation prefix of a valid payload decodes
// to an error, never a panic, and declared-count inflation is caught.
func TestDecodeTruncationsError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	res := randResult(rng)
	for len(res.Points) == 0 {
		res = randResult(rng)
	}
	p := AppendBlockResult(nil, &res)
	for cut := 0; cut < len(p); cut++ {
		var dst shard.BlockResult
		if err := DecodeBlockResult(p[:cut], &dst); err == nil {
			t.Fatalf("truncation at %d of %d decoded cleanly", cut, len(p))
		}
	}
	l := randLease(rng)
	q := AppendLease(nil, &l)
	for cut := 0; cut < len(q); cut++ {
		var dst shard.Lease
		if err := DecodeLease(q[:cut], &dst); err == nil {
			t.Fatalf("lease truncation at %d decoded cleanly", cut)
		}
	}
	// A count field inflated beyond the remaining payload errors out
	// instead of allocating.
	bad := AppendUvarint(nil, 1)            // seq
	bad = AppendUvarint(bad, 1)             // block
	bad = AppendUvarint(bad, uint64(1)<<40) // absurd point count
	var dst shard.BlockResult
	if err := DecodeBlockResult(bad, &dst); err == nil {
		t.Error("inflated count decoded cleanly")
	}
}

func TestBufferPool(t *testing.T) {
	b := GetBuffer()
	*b = append(*b, 1, 2, 3)
	PutBuffer(b)
	c := GetBuffer()
	if len(*c) != 0 {
		t.Errorf("pooled buffer not reset: len %d", len(*c))
	}
	PutBuffer(c)
}
