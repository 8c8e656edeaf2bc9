package tech

import "sync"

// defaultNodes is the built-in calibration of the Table I parameter ranges
// across the seven nodes the paper exercises (7 nm chiplets through 65 nm
// packaging interposers). The trends encoded here are the ones the paper's
// analysis depends on:
//
//   - defect density falls as nodes mature (Fig. 6a: 0.07-0.3 /cm^2),
//   - logic density scales steeply, SRAM density lags, analog is nearly
//     flat (Section III-C(1)),
//   - manufacturing energy per area (EPA) and gas CFP rise with advanced
//     nodes because of additional FEOL/BEOL and lithography steps,
//   - equipment-efficiency derate eta_eq is lower for mature nodes,
//   - EDA productivity eta_EDA is higher (design is faster) for mature
//     nodes,
//   - Vdd rises for older nodes,
//   - per-layer patterning energies (EPLA) fall for older packaging nodes.
//
// Wafer costs approximate published 300 mm foundry pricing and are only
// consumed by the dollar-cost model.
var defaultNodes = []Node{
	{
		Nm:            7,
		DefectDensity: 0.20,
		Density:       [3]float64{Logic: 95, Memory: 145, Analog: 9.0},
		EPA:           3.5, GasCFP: 0.40, MaterialCFP: 0.5,
		EquipEfficiency: 1.00, EDAProductivity: 0.55,
		Vdd: 0.70, EPLARDL: 0.200, EPLABridge: 0.350,
		WaferCostUSD: 9346,
	},
	{
		Nm:            10,
		DefectDensity: 0.15,
		Density:       [3]float64{Logic: 61, Memory: 125, Analog: 8.5},
		EPA:           2.75, GasCFP: 0.35, MaterialCFP: 0.5,
		EquipEfficiency: 0.95, EDAProductivity: 0.62,
		Vdd: 0.75, EPLARDL: 0.170, EPLABridge: 0.300,
		WaferCostUSD: 5992,
	},
	{
		Nm:            14,
		DefectDensity: 0.12,
		Density:       [3]float64{Logic: 44, Memory: 110, Analog: 6.5},
		EPA:           2.25, GasCFP: 0.30, MaterialCFP: 0.5,
		EquipEfficiency: 0.90, EDAProductivity: 0.70,
		Vdd: 0.80, EPLARDL: 0.150, EPLABridge: 0.260,
		WaferCostUSD: 3984,
	},
	{
		Nm:            22,
		DefectDensity: 0.10,
		Density:       [3]float64{Logic: 20, Memory: 80, Analog: 5.8},
		EPA:           1.70, GasCFP: 0.25, MaterialCFP: 0.5,
		EquipEfficiency: 0.85, EDAProductivity: 0.78,
		Vdd: 0.90, EPLARDL: 0.120, EPLABridge: 0.210,
		WaferCostUSD: 3057,
	},
	{
		Nm:            28,
		DefectDensity: 0.09,
		Density:       [3]float64{Logic: 14, Memory: 60, Analog: 5.3},
		EPA:           1.40, GasCFP: 0.20, MaterialCFP: 0.5,
		EquipEfficiency: 0.80, EDAProductivity: 0.84,
		Vdd: 1.00, EPLARDL: 0.100, EPLABridge: 0.180,
		WaferCostUSD: 2514,
	},
	{
		Nm:            40,
		DefectDensity: 0.08,
		Density:       [3]float64{Logic: 8.2, Memory: 38, Analog: 4.6},
		EPA:           1.10, GasCFP: 0.15, MaterialCFP: 0.5,
		EquipEfficiency: 0.72, EDAProductivity: 0.92,
		Vdd: 1.10, EPLARDL: 0.080, EPLABridge: 0.140,
		WaferCostUSD: 2274,
	},
	{
		Nm:            65,
		DefectDensity: 0.07,
		Density:       [3]float64{Logic: 5.1, Memory: 20, Analog: 4.0},
		EPA:           0.80, GasCFP: 0.10, MaterialCFP: 0.5,
		EquipEfficiency: 0.60, EDAProductivity: 1.00,
		Vdd: 1.20, EPLARDL: 0.050, EPLABridge: 0.100,
		WaferCostUSD: 1937,
	},
}

var (
	defaultDBOnce sync.Once
	defaultDB     *DB
)

// Default returns the built-in node database. The returned DB is shared
// and must be treated as read-only.
func Default() *DB {
	defaultDBOnce.Do(func() {
		db, err := NewDB(defaultNodes)
		if err != nil {
			panic("tech: built-in node table invalid: " + err.Error())
		}
		defaultDB = db
	})
	return defaultDB
}

// DefaultSizes returns the node sizes of the built-in database in
// ascending order.
func DefaultSizes() []int { return Default().Sizes() }
