package noc

import (
	"math"
	"testing"
	"testing/quick"

	"ecochip/internal/tech"
)

func mesh(t *testing.T, n int) *Topology {
	t.Helper()
	m, err := NewMesh(n, 1.0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMeshErrors(t *testing.T) {
	if _, err := NewMesh(0, 1, DefaultConfig()); err == nil {
		t.Error("zero endpoints should fail")
	}
	if _, err := NewMesh(4, 0, DefaultConfig()); err == nil {
		t.Error("zero link length should fail")
	}
	bad := DefaultConfig()
	bad.Ports = 0
	if _, err := NewMesh(4, 1, bad); err == nil {
		t.Error("bad config should fail")
	}
}

func TestMeshDimensions(t *testing.T) {
	cases := map[int][2]int{
		1: {1, 1}, 2: {2, 1}, 3: {2, 2}, 4: {2, 2},
		5: {3, 2}, 8: {3, 3}, 9: {3, 3}, 16: {4, 4},
	}
	for n, want := range cases {
		m := mesh(t, n)
		if m.Cols != want[0] || m.Rows != want[1] {
			t.Errorf("NewMesh(%d): %dx%d, want %dx%d", n, m.Cols, m.Rows, want[0], want[1])
		}
		if m.Cols*m.Rows < n {
			t.Errorf("NewMesh(%d): grid %dx%d too small", n, m.Cols, m.Rows)
		}
	}
}

func TestAverageHops(t *testing.T) {
	// 2x1 mesh: the only pair is 1 hop apart.
	if got := mesh(t, 2).AverageHops(); got != 1 {
		t.Errorf("AverageHops(2) = %g, want 1", got)
	}
	// Single router: no traffic.
	if got := mesh(t, 1).AverageHops(); got != 0 {
		t.Errorf("AverageHops(1) = %g, want 0", got)
	}
	// 2x2 mesh: pairs at distance 1 (8 ordered) and 2 (4 ordered):
	// (8*1 + 4*2)/12 = 4/3.
	if got := mesh(t, 4).AverageHops(); math.Abs(got-4.0/3) > 1e-12 {
		t.Errorf("AverageHops(4) = %g, want 4/3", got)
	}
}

// Property: average hops grows with mesh size.
func TestAverageHopsGrows(t *testing.T) {
	prev := 0.0
	for _, n := range []int{2, 4, 9, 16, 25} {
		h := mesh(t, n).AverageHops()
		if h <= prev {
			t.Errorf("AverageHops(%d) = %g should exceed %g", n, h, prev)
		}
		prev = h
	}
}

func TestEnergyPerFlit(t *testing.T) {
	n7 := tech.Default().MustGet(7)
	pp := DefaultPowerParams()
	small := mesh(t, 4)
	large := mesh(t, 16)
	es, err := small.EnergyPerFlitJ(n7, pp)
	if err != nil {
		t.Fatal(err)
	}
	el, err := large.EnergyPerFlitJ(n7, pp)
	if err != nil {
		t.Fatal(err)
	}
	if es <= 0 || el <= es {
		t.Errorf("energy per flit should be positive and grow with mesh size: %g vs %g", es, el)
	}
	// Magnitude: a 512-bit flit hop should cost picojoules-to-nanojoules.
	if es < 1e-12 || es > 1e-8 {
		t.Errorf("energy per flit %g J outside plausible range", es)
	}
	// Single-node network still moves flits locally (one hop minimum).
	solo := mesh(t, 1)
	e1, err := solo.EnergyPerFlitJ(n7, pp)
	if err != nil {
		t.Fatal(err)
	}
	if e1 <= 0 {
		t.Error("single-router energy per flit should be positive")
	}
}

func TestBreakdownSumsToTransistors(t *testing.T) {
	f := func(fw, p, vc, d uint8) bool {
		c := Config{
			FlitWidthBits:    int(fw%64)*8 + 64,
			Ports:            int(p%14) + 2,
			VirtualChannels:  int(vc%15) + 1,
			BufferDepthFlits: int(d%63) + 1,
		}
		b, err := Breakdown(c)
		if err != nil {
			return false
		}
		tr, err := Transistors(c)
		if err != nil {
			return false
		}
		return math.Abs(b.Total()-tr) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBreakdownErrors(t *testing.T) {
	bad := DefaultConfig()
	bad.FlitWidthBits = 0
	if _, err := Breakdown(bad); err == nil {
		t.Error("invalid config should fail")
	}
}

// Buffers dominate a deep-buffered router; crossbar dominates a shallow
// wide-port one. The breakdown should reflect microarchitectural intent.
func TestBreakdownProportions(t *testing.T) {
	deep := Config{FlitWidthBits: 512, Ports: 5, VirtualChannels: 8, BufferDepthFlits: 16}
	b, err := Breakdown(deep)
	if err != nil {
		t.Fatal(err)
	}
	if b.Buffers <= b.Crossbar {
		t.Error("deep-buffered router should be buffer-dominated")
	}
	shallow := Config{FlitWidthBits: 512, Ports: 8, VirtualChannels: 1, BufferDepthFlits: 1}
	b2, err := Breakdown(shallow)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Crossbar <= b2.Buffers {
		t.Error("shallow wide router should be crossbar-dominated")
	}
}

func TestTopologyErrorPropagation(t *testing.T) {
	n7 := tech.Default().MustGet(7)
	m := mesh(t, 4)
	m.Config.Ports = 0
	if _, err := m.EnergyPerFlitJ(n7, DefaultPowerParams()); err == nil {
		t.Error("corrupted config should fail energy")
	}
}
