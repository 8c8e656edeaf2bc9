// Package act re-implements the baseline architectural carbon model of
// ACT (Gupta et al., ISCA 2022), which ECO-CHIP compares against in
// Section V-A and Fig. 7(c).
//
// ACT models manufacturing carbon as a per-area footprint divided by die
// yield, and adds a *fixed* package-assembly carbon of 150 g CO2 per
// system regardless of package size, architecture or assembly yield. It
// models neither design carbon nor wafer-periphery wastage nor
// equipment-efficiency derating — precisely the gaps the paper
// demonstrates cause ACT to underestimate HI-system carbon by ~20% of
// C_emb.
package act

import (
	"fmt"

	"ecochip/internal/tech"
	"ecochip/internal/yieldmodel"
)

// FixedPackageKg is ACT's constant package-assembly carbon (150 g CO2).
const FixedPackageKg = 0.150

// Params configures the ACT baseline.
type Params struct {
	// CarbonIntensity is the fab energy carbon intensity in kg CO2/kWh.
	CarbonIntensity float64
	// Alpha is the yield clustering parameter.
	Alpha float64
}

// Validate enforces ranges.
func (p Params) Validate() error {
	if p.CarbonIntensity < 0.030 || p.CarbonIntensity > 0.700 {
		return fmt.Errorf("act: carbon intensity %g outside [0.030, 0.700]", p.CarbonIntensity)
	}
	if p.Alpha <= 0 {
		return fmt.Errorf("act: alpha must be positive, got %g", p.Alpha)
	}
	return nil
}

// Die is one die in the ACT system description.
type Die struct {
	AreaMM2 float64
	Node    *tech.Node
}

// DieKg returns ACT's manufacturing carbon of a single die: the full
// per-area fab footprint (energy, gases, materials — *without* the
// equipment-efficiency derate ECO-CHIP applies) divided by yield.
func DieKg(d Die, p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if d.AreaMM2 <= 0 {
		return 0, fmt.Errorf("act: die area must be positive, got %g", d.AreaMM2)
	}
	if d.Node == nil {
		return 0, fmt.Errorf("act: die node is required")
	}
	y := yieldmodel.DieAlpha(d.AreaMM2, d.Node.DefectDensity, p.Alpha)
	cfpa := (p.CarbonIntensity*d.Node.EPA + d.Node.GasCFP + d.Node.MaterialCFP) / y
	return cfpa * d.AreaMM2 / 100, nil
}

// SystemKg returns ACT's embodied carbon of a multi-die system: the sum
// of per-die manufacturing carbon plus one fixed package constant. ACT
// has no design-carbon term.
func SystemKg(dies []Die, p Params) (float64, error) {
	if len(dies) == 0 {
		return 0, fmt.Errorf("act: no dies")
	}
	var total float64
	for _, d := range dies {
		kg, err := DieKg(d, p)
		if err != nil {
			return 0, err
		}
		total += kg
	}
	return total + FixedPackageKg, nil
}
