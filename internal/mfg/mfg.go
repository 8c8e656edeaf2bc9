// Package mfg implements the per-chiplet manufacturing-carbon model of
// Section III-C of the ECO-CHIP paper (Eqs. (5) and (6)):
//
//	C_mfg,i = CFPA * A_die(d, p)  +  CFPA_Si * A_wasted
//	CFPA    = (eta_eq * C_mfg,src * EPA(p) + C_gas + C_material) / Y(d, p)
//
// CFPA is the carbon footprint per unit area of a *good* die: the fab
// energy (derated by process-equipment efficiency eta_eq and converted to
// carbon by the fab's energy-source intensity), direct greenhouse-gas
// emissions and material sourcing, all divided by yield because every
// failed die's emissions are borne by the good ones. The second term
// charges each die its amortized share of the silicon wasted around the
// wafer periphery (Eqs. (7)-(8), package wafer); the wasted area is fully
// processed but never divided by yield since no good die is expected from
// it.
package mfg

import (
	"fmt"

	"ecochip/internal/tech"
	"ecochip/internal/wafer"
	"ecochip/internal/yieldmodel"
)

// Carbon-intensity presets in kg CO2/kWh (Table I: 30 - 700 g CO2/kWh).
const (
	// IntensityCoal is the paper's default fab energy source
	// (700 g CO2/kWh).
	IntensityCoal = 0.700
	// IntensityGas is a natural-gas-dominated grid.
	IntensityGas = 0.450
	// IntensityWorldGrid approximates the world-average grid mix.
	IntensityWorldGrid = 0.300
	// IntensityRenewable is a wind/solar-dominated supply (30 g CO2/kWh).
	IntensityRenewable = 0.030
)

// Params bundles the fab-level knobs of the manufacturing model.
type Params struct {
	// CarbonIntensity is C_mfg,src in kg CO2/kWh.
	CarbonIntensity float64
	// Wafer is the manufacturing wafer geometry.
	Wafer wafer.Wafer
	// Alpha is the yield-clustering parameter (Table I: 3).
	Alpha float64
	// IncludeWastage toggles the wafer-periphery term; Fig. 3(b)
	// compares CFP with and without it.
	IncludeWastage bool
	// DefectDensityOverride, when positive, replaces the node's defect
	// density (used by the Fig. 6(b) sensitivity sweep).
	DefectDensityOverride float64
}

// DefaultParams returns the paper's experimental setup: coal-powered fab
// (700 g CO2/kWh), 450 mm wafer, alpha = 3, wastage modeled.
func DefaultParams() Params {
	return Params{
		CarbonIntensity: IntensityCoal,
		Wafer:           wafer.Default(),
		Alpha:           yieldmodel.DefaultAlpha,
		IncludeWastage:  true,
	}
}

// Validate checks the Table I ranges.
func (p Params) Validate() error {
	if p.CarbonIntensity < 0.030 || p.CarbonIntensity > 0.700 {
		return fmt.Errorf("mfg: carbon intensity %g kg/kWh outside Table I range [0.030, 0.700]", p.CarbonIntensity)
	}
	if p.Alpha <= 0 {
		return fmt.Errorf("mfg: alpha must be positive, got %g", p.Alpha)
	}
	if p.DefectDensityOverride != 0 && (p.DefectDensityOverride < 0.07 || p.DefectDensityOverride > 0.3) {
		return fmt.Errorf("mfg: defect density override %g outside Table I range [0.07, 0.3]", p.DefectDensityOverride)
	}
	return p.Wafer.Validate()
}

// Result is the manufacturing-carbon breakdown of one die.
type Result struct {
	// AreaMM2 is the die area.
	AreaMM2 float64
	// Yield is Y(d, p) from the negative-binomial model.
	Yield float64
	// DiesPerWafer is DPW from Eq. (7).
	DiesPerWafer int
	// WastedAreaMM2 is the amortized periphery waste per die, Eq. (8).
	WastedAreaMM2 float64
	// CFPAKgPerCM2 is the carbon footprint per cm^2 of good die.
	CFPAKgPerCM2 float64
	// DieKg is the CFPA * area term in kg CO2.
	DieKg float64
	// WastageKg is the periphery term in kg CO2.
	WastageKg float64
}

// TotalKg is the total manufacturing carbon of the die in kg CO2.
func (r Result) TotalKg() float64 { return r.DieKg + r.WastageKg }

// Geometry is where a die of a given area sits on the wafer: the
// wafer-geometry step of Die, which reads only the die area, the wafer
// and whether wastage is modeled. It is zero when wastage is not
// modeled.
type Geometry struct {
	// DiesPerWafer is DPW from Eq. (7).
	DiesPerWafer int
	// WastedAreaMM2 is the amortized periphery waste per die, Eq. (8).
	WastedAreaMM2 float64
}

// Die computes the manufacturing carbon of a die of the given area and
// design type in the given node: it validates p, then runs the
// wafer-geometry step (Place) and the carbon step (Carbon).
func Die(n *tech.Node, d tech.DesignType, areaMM2 float64, p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	g, err := Place(areaMM2, p)
	if err != nil {
		return Result{}, err
	}
	return Carbon(n, areaMM2, g, p), nil
}

// Place is the wafer-geometry step of Die: it checks the die area and,
// when p models wastage, lays the die out on p.Wafer (Eqs. (7)-(8)).
// It reads only the area, p.Wafer and p.IncludeWastage, so a caller
// that evaluates one die under many fab parameters may keep its
// result. It does not validate p.
func Place(areaMM2 float64, p Params) (Geometry, error) {
	if areaMM2 <= 0 {
		return Geometry{}, fmt.Errorf("mfg: die area must be positive, got %g", areaMM2)
	}
	if !p.IncludeWastage {
		return Geometry{}, nil
	}
	dpw, wasted, err := p.Wafer.Layout(areaMM2)
	if err != nil {
		return Geometry{}, err
	}
	return Geometry{DiesPerWafer: dpw, WastedAreaMM2: wasted}, nil
}

// Carbon is the carbon step of Die: Eqs. (5)-(6) for a die of the given
// area in node n on geometry g, which must be Place(areaMM2, p)'s
// result. It does not validate p.
func Carbon(n *tech.Node, areaMM2 float64, g Geometry, p Params) Result {
	d0 := n.DefectDensity
	if p.DefectDensityOverride > 0 {
		d0 = p.DefectDensityOverride
	}
	y := yieldmodel.DieAlpha(areaMM2, d0, p.Alpha)

	// Raw (unyielded) carbon per cm^2 of processed wafer.
	rawKgPerCM2 := n.EquipEfficiency*p.CarbonIntensity*n.EPA + n.GasCFP + n.MaterialCFP
	cfpa := rawKgPerCM2 / y

	res := Result{
		AreaMM2:      areaMM2,
		Yield:        y,
		CFPAKgPerCM2: cfpa,
		DieKg:        cfpa * areaMM2 / 100,
	}
	if p.IncludeWastage {
		res.DiesPerWafer = g.DiesPerWafer
		res.WastedAreaMM2 = g.WastedAreaMM2
		res.WastageKg = rawKgPerCM2 * g.WastedAreaMM2 / 100
	}
	return res
}
