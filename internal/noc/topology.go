package noc

import (
	"fmt"
	"math"

	"ecochip/internal/tech"
)

// Topology models the network-on-interposer connecting the chiplets of a
// 2.5D system (Stow et al. [42]): routers sit at a regular 2D-mesh grid,
// one per chiplet, with links sized to the inter-chiplet spacing. It
// provides the aggregate area/power/energy numbers ECO-CHIP's
// communication overheads build on, plus traffic-dependent estimates for
// design-space exploration beyond the paper's fixed operating point.
type Topology struct {
	// Routers is the router count (one per chiplet endpoint).
	Routers int
	// Cols and Rows are the mesh dimensions.
	Cols, Rows int
	// LinkLengthMM is the per-hop link length (chiplet pitch).
	LinkLengthMM float64
	// Config is the per-router microarchitecture.
	Config Config
}

// NewMesh builds the smallest near-square 2D mesh with at least n
// endpoints, with the given link length in mm.
func NewMesh(n int, linkLengthMM float64, c Config) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("noc: mesh needs at least one endpoint, got %d", n)
	}
	if linkLengthMM <= 0 {
		return nil, fmt.Errorf("noc: link length must be positive, got %g", linkLengthMM)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	return &Topology{Routers: n, Cols: cols, Rows: rows, LinkLengthMM: linkLengthMM, Config: c}, nil
}

// AverageHops returns the mean Manhattan router-to-router hop count over
// all ordered endpoint pairs (the uniform-random traffic assumption).
func (t *Topology) AverageHops() float64 {
	if t.Routers < 2 {
		return 0
	}
	var total float64
	var pairs int
	for a := 0; a < t.Routers; a++ {
		for b := 0; b < t.Routers; b++ {
			if a == b {
				continue
			}
			ax, ay := a%t.Cols, a/t.Cols
			bx, by := b%t.Cols, b/t.Cols
			total += math.Abs(float64(ax-bx)) + math.Abs(float64(ay-by))
			pairs++
		}
	}
	return total / float64(pairs)
}

// wireCapFPerMM is the interposer wire capacitance per mm (≈0.2 pF/mm).
const wireCapFPerMM = 0.2e-12

// linkPowerW is the dynamic power of one flit-wide link of the given
// length: alpha * C_wire * V^2 * f per wire.
func linkPowerW(c Config, n *tech.Node, pp PowerParams, lengthMM float64) float64 {
	capPerWire := wireCapFPerMM * lengthMM
	return pp.Activity * capPerWire * n.Vdd * n.Vdd * pp.FrequencyHz * float64(c.FlitWidthBits)
}

// EnergyPerFlitJ returns the average energy to move one flit across the
// network under uniform traffic: per-hop router energy (power/flit-rate)
// plus per-hop link energy, times the average hop count.
func (t *Topology) EnergyPerFlitJ(n *tech.Node, pp PowerParams) (float64, error) {
	routerW, err := PowerW(t.Config, n, pp)
	if err != nil {
		return 0, err
	}
	// At full injection each router forwards one flit per cycle.
	flitRate := pp.FrequencyHz
	routerJ := routerW / flitRate
	linkJ := linkPowerW(t.Config, n, pp, t.LinkLengthMM) / flitRate
	hops := t.AverageHops()
	if hops == 0 {
		hops = 1
	}
	return (routerJ + linkJ) * hops, nil
}

// ComponentBreakdown reports the transistor share of each router
// component — the per-component accounting ORION 3.0 exposes.
type ComponentBreakdown struct {
	Buffers, Crossbar, Allocators, Links float64
}

// Breakdown returns the per-component transistor counts of one router.
func Breakdown(c Config) (ComponentBreakdown, error) {
	if err := c.Validate(); err != nil {
		return ComponentBreakdown{}, err
	}
	p := float64(c.Ports)
	vc := float64(c.VirtualChannels)
	depth := float64(c.BufferDepthFlits)
	flit := float64(c.FlitWidthBits)
	return ComponentBreakdown{
		Buffers:    p * vc * depth * flit * transistorsPerBufferBit,
		Crossbar:   p * p * flit * transistorsPerXbarBit,
		Allocators: (p*p*vc*vc + p*p) * transistorsPerArbPair,
		Links:      p * flit * transistorsPerLinkBit,
	}, nil
}

// Total sums the breakdown; it equals Transistors for the same config.
func (b ComponentBreakdown) Total() float64 {
	return b.Buffers + b.Crossbar + b.Allocators + b.Links
}
