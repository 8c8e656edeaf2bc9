// Package descarbon implements the design-carbon model of Section III-E
// of the ECO-CHIP paper (Eqs. (12) and (13)):
//
//	C_des   = sum_i C_des,i / N_Mi  +  C_des,comm / N_S
//	C_des,i = t_des,i * P_des * C_des,src
//	t_des,i = t_verif,i + (t_SP&R,i + t_analyze,i) * N_des / eta_EDA
//
// The model is calibrated to the paper's measurement: one synthesis,
// place & route (SP&R) pass of a 700,000-gate design in a commercial 7 nm
// node takes 24 CPU-hours. Design compute time scales linearly with gate
// count, analysis adds a fixed fraction per pass, verification dominates
// 80% of product development time, and the whole effort shrinks on older
// nodes through the EDA-productivity derate eta_EDA.
package descarbon

import (
	"fmt"

	"ecochip/internal/tech"
)

// Calibration constants from Section V-A(2) of the paper.
const (
	// calibGates and calibHours: 700k gates take 24 CPU-hours of SP&R
	// in 7 nm.
	calibGates = 700_000.0
	calibHours = 24.0
	// calibEDA is eta_EDA of the 7 nm calibration node in the built-in
	// database; the per-gate base rate is normalized so the calibration
	// point reproduces exactly.
	calibEDA = 0.55
	// TransistorsPerGate converts transistor counts to logic-gate
	// counts (a NAND2-equivalent gate is 4 transistors).
	TransistorsPerGate = 4.0
)

// Params bundles the design-effort knobs (Table I defaults).
type Params struct {
	// PowerW is P_des, the per-CPU design-compute power (Table I: 10 W).
	PowerW float64
	// Iterations is N_des, the number of SP&R design iterations
	// (Table I: 100).
	Iterations int
	// CarbonIntensity is C_des,src in kg CO2/kWh.
	CarbonIntensity float64
	// VerifShare is the fraction of total product development time spent
	// in verification (the paper: 80%).
	VerifShare float64
	// AnalyzeFactor is t_analyze as a fraction of t_SP&R per pass.
	AnalyzeFactor float64
}

// DefaultParams matches the paper's experiments: 10 W design CPUs, 100
// iterations, coal-sourced compute energy, verification at 80% of the
// schedule and analysis at 25% of an SP&R pass.
func DefaultParams() Params {
	return Params{
		PowerW:          10,
		Iterations:      100,
		CarbonIntensity: 0.700,
		VerifShare:      0.8,
		AnalyzeFactor:   0.25,
	}
}

// Validate enforces sane ranges.
func (p Params) Validate() error {
	if p.PowerW <= 0 {
		return fmt.Errorf("descarbon: design power must be positive, got %g", p.PowerW)
	}
	if p.Iterations < 1 {
		return fmt.Errorf("descarbon: iterations must be >= 1, got %d", p.Iterations)
	}
	if p.CarbonIntensity < 0.030 || p.CarbonIntensity > 0.700 {
		return fmt.Errorf("descarbon: carbon intensity %g outside [0.030, 0.700]", p.CarbonIntensity)
	}
	if p.VerifShare < 0 || p.VerifShare >= 1 {
		return fmt.Errorf("descarbon: verification share %g outside [0, 1)", p.VerifShare)
	}
	if p.AnalyzeFactor < 0 {
		return fmt.Errorf("descarbon: analyze factor must be non-negative, got %g", p.AnalyzeFactor)
	}
	return nil
}

// SPRHours returns t_SP&R,i: the CPU-hours of a single SP&R pass for a
// design with the given gate count in the given node. The 7 nm
// calibration point (700k gates -> 24 h) anchors the scale; other nodes
// scale inversely with their EDA productivity.
func SPRHours(gates float64, n *tech.Node) float64 {
	if gates < 0 {
		panic(fmt.Sprintf("descarbon: negative gate count %g", gates))
	}
	basePerGate := calibHours / calibGates * calibEDA // hours/gate normalized to eta_EDA = 1
	return gates * basePerGate / n.EDAProductivity
}

// SinglePassKg returns the carbon of one SP&R pass (the Fig. 7(b)
// quantity): t_SP&R * P_des * C_des,src.
func SinglePassKg(gates float64, n *tech.Node, p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	return HoursKg(SPRHours(gates, n), p), nil
}

// TotalHours returns t_des,i per Eq. (13): N_des iterations of SP&R plus
// analysis, plus verification time derived from the verification share of
// the overall schedule (verif = share/(1-share) of the implementation
// time). It is the hours step of ChipletKg and reads only the gate
// count, the node's EDA productivity and p's Iterations, VerifShare and
// AnalyzeFactor, so a caller that evaluates one design under many design
// powers or carbon intensities may keep its result.
func TotalHours(gates float64, n *tech.Node, p Params) float64 {
	spr := SPRHours(gates, n)
	impl := (spr + p.AnalyzeFactor*spr) * float64(p.Iterations)
	verif := impl * p.VerifShare / (1 - p.VerifShare)
	return verif + impl
}

// ChipletKg returns C_des,i: the full (unamortized) design carbon of one
// chiplet with the given gate count in the given node. It validates p,
// then runs the hours step (TotalHours) and the carbon step (HoursKg).
func ChipletKg(gates float64, n *tech.Node, p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	return HoursKg(TotalHours(gates, n, p), p), nil
}

// HoursKg is the carbon step of ChipletKg: the carbon of the given
// design CPU-hours, t_des * P_des * C_des,src. It does not validate p.
func HoursKg(hours float64, p Params) float64 {
	return hours * p.PowerW / 1000 * p.CarbonIntensity
}

// AmortizedKg returns the per-part design carbon: C_des,i / N_Mi for a
// chiplet manufactured N_Mi times. Reusing a chiplet across designs and
// generations grows N_Mi and shrinks this share — the "reuse" lever of
// the paper.
func AmortizedKg(chipletKg float64, manufacturedParts int) (float64, error) {
	if manufacturedParts < 1 {
		return 0, fmt.Errorf("descarbon: manufactured parts must be >= 1, got %d", manufacturedParts)
	}
	return chipletKg / float64(manufacturedParts), nil
}

// GatesFromTransistors converts a transistor budget into the
// NAND2-equivalent gate count the timing model consumes.
func GatesFromTransistors(transistors float64) float64 {
	return transistors / TransistorsPerGate
}
