// Package yieldmodel implements the manufacturing-yield models ECO-CHIP
// uses for dies, package substrates/interposers and 3D assembly.
//
// The primary model is the negative-binomial distribution of Eq. (4) of
// the paper (after Cunningham [30] and Stow et al. [32]):
//
//	Y(A, D0) = (1 + A*D0/alpha)^(-alpha)
//
// with die area A in cm^2, defect density D0 in defects/cm^2 and the
// clustering parameter alpha (Table I: alpha = 3).
package yieldmodel

import (
	"fmt"
	"math"
)

// DefaultAlpha is the defect-clustering parameter from Table I.
const DefaultAlpha = 3.0

// Die returns the negative-binomial yield of a die with the given area
// (mm^2) at the given defect density (defects/cm^2) using the default
// clustering parameter. It panics on negative inputs; zero area yields 1.
func Die(areaMM2, defectDensity float64) float64 {
	return DieAlpha(areaMM2, defectDensity, DefaultAlpha)
}

// DieAlpha is Die with an explicit clustering parameter alpha.
func DieAlpha(areaMM2, defectDensity, alpha float64) float64 {
	if areaMM2 < 0 || defectDensity < 0 {
		panic(fmt.Sprintf("yieldmodel: negative area (%g) or defect density (%g)", areaMM2, defectDensity))
	}
	if alpha <= 0 {
		panic(fmt.Sprintf("yieldmodel: clustering parameter must be positive, got %g", alpha))
	}
	areaCM2 := areaMM2 / 100
	return powNeg(1+areaCM2*defectDensity/alpha, alpha)
}

// cubeCutoff bounds the bases powNeg raises to -3 in closed form.
const cubeCutoff = 1e100

// powNeg returns math.Pow(b, -alpha) for a base b >= 1. At Table I's
// alpha = 3 it returns 1/(b*(b*b)), which carries Pow's bits while
// b < cubeCutoff: Go's pure-Go Pow (every port but s390x) takes its
// integer-exponent path for y = -3. It splits b = m * 2^e with Frexp,
// forms m*(m*m) by repeated squaring with the exponent tracked apart,
// and returns Ldexp(1/(m*(m*m)), -3e). Scaling by a power of two is
// exact while a value stays normal, so b*(b*b) rounds exactly as
// m*(m*m) does and its reciprocal exactly as 1/(m*(m*m)). Below the
// cutoff b^3 and 1/b^3 are both normal, so the two forms agree bit for
// bit. Larger, infinite or NaN bases and every other alpha take
// math.Pow.
func powNeg(b, alpha float64) float64 {
	if alpha == 3 && b < cubeCutoff {
		return 1 / (b * (b * b))
	}
	return math.Pow(b, -alpha)
}

// Layered returns the yield of a structure patterned with n independent
// metal layers, each with per-layer yield y: y^n. It models the
// compounding loss of multi-layer RDL substrates and interposer BEOL
// stacks.
func Layered(perLayer float64, layers int) float64 {
	if perLayer < 0 || perLayer > 1 {
		panic(fmt.Sprintf("yieldmodel: per-layer yield %g outside [0, 1]", perLayer))
	}
	if layers < 0 {
		panic(fmt.Sprintf("yieldmodel: negative layer count %d", layers))
	}
	return math.Pow(perLayer, float64(layers))
}

// BondYieldFromPitch maps a bond pitch in micrometres to a per-interface
// bonding yield. Finer pitches are harder to align, so yield falls as the
// pitch shrinks (Section III-D(1)(e): Y(3D, p) accounts for bump
// misalignment). The mapping is linear between the calibration points
// (1 um -> 0.95) and (45 um -> 0.999), clamped outside.
func BondYieldFromPitch(pitchUM float64) float64 {
	if pitchUM <= 0 {
		panic(fmt.Sprintf("yieldmodel: bond pitch must be positive, got %g", pitchUM))
	}
	const (
		loPitch, loYield = 1.0, 0.95
		hiPitch, hiYield = 45.0, 0.999
	)
	switch {
	case pitchUM <= loPitch:
		return loYield
	case pitchUM >= hiPitch:
		return hiYield
	}
	frac := (pitchUM - loPitch) / (hiPitch - loPitch)
	return loYield + frac*(hiYield-loYield)
}
