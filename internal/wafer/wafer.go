// Package wafer implements the wafer-geometry model of Section III-C(3)
// of the ECO-CHIP paper: dies-per-wafer and the amortized silicon wasted
// at the wafer periphery (Eqs. (7) and (8)).
//
// The die cannot occupy the zone within half its diagonal of the wafer
// edge, so the usable radius shrinks by L_d/sqrt(2) where L_d is the die
// side length (dies are modeled as squares):
//
//	DPW      = floor( pi * (D_wafer/2 - L_d/sqrt(2))^2 / A_die )
//	A_wasted = (A_wafer - DPW * A_die) / DPW
package wafer

import (
	"fmt"
	"math"
)

// DefaultDiameterMM is the wafer diameter the paper's experiments assume
// (450 mm; Table I supports 25-450 mm).
const DefaultDiameterMM = 450.0

// Wafer describes a manufacturing wafer by its diameter in mm.
type Wafer struct {
	DiameterMM float64
}

// Default returns the 450 mm wafer used throughout the paper's evaluation.
func Default() Wafer { return Wafer{DiameterMM: DefaultDiameterMM} }

// Validate checks the Table I supported diameter range (25-450 mm).
func (w Wafer) Validate() error {
	if w.DiameterMM < 25 || w.DiameterMM > 450 {
		return fmt.Errorf("wafer: diameter %g mm outside Table I range [25, 450]", w.DiameterMM)
	}
	return nil
}

// AreaMM2 returns the full wafer area in mm^2.
func (w Wafer) AreaMM2() float64 {
	r := w.DiameterMM / 2
	return math.Pi * r * r
}

// DiesPerWafer returns DPW per Eq. (7) for a square die of the given area
// in mm^2. It returns 0 when the die is too large for the usable region.
func (w Wafer) DiesPerWafer(dieAreaMM2 float64) int {
	if dieAreaMM2 <= 0 {
		panic(fmt.Sprintf("wafer: die area must be positive, got %g", dieAreaMM2))
	}
	side := math.Sqrt(dieAreaMM2)
	usableRadius := w.DiameterMM/2 - side/math.Sqrt2
	if usableRadius <= 0 {
		return 0
	}
	return int(math.Floor(math.Pi * usableRadius * usableRadius / dieAreaMM2))
}

// Layout returns both geometry terms of a die of the given area: DPW
// per Eq. (7) and A_wasted per Eq. (8), the wafer area not occupied by
// any die amortized across the dies on the wafer, in mm^2. It computes
// DPW once, and returns an error when the die does not fit on the wafer
// at all.
func (w Wafer) Layout(dieAreaMM2 float64) (dpw int, wastedMM2 float64, err error) {
	dpw = w.DiesPerWafer(dieAreaMM2)
	if dpw == 0 {
		return 0, 0, fmt.Errorf("wafer: die of %g mm^2 does not fit on a %g mm wafer", dieAreaMM2, w.DiameterMM)
	}
	return dpw, (w.AreaMM2() - float64(dpw)*dieAreaMM2) / float64(dpw), nil
}
