// Package energy catalogs the carbon intensity of electricity sources
// (Table I: C_src between 30 and 700 g CO2/kWh, "based on the source of
// energy, whether it is coal, gas, wind, etc."). The models consume plain
// kg CO2/kWh numbers; this package provides the named presets and grid
// mixes that configuration files refer to.
package energy

import (
	"fmt"
	"sort"
	"strings"
)

// Source is a named electricity source with its lifecycle carbon
// intensity in kg CO2/kWh.
type Source struct {
	Name        string
	KgPerKWh    float64
	Description string
}

// The catalog. Values follow published lifecycle-assessment figures,
// clamped into the Table I modeling range [0.030, 0.700].
var catalog = []Source{
	{"coal", 0.700, "hard-coal generation (the paper's default fab supply)"},
	{"oil", 0.650, "oil-fired generation"},
	{"gas", 0.450, "combined-cycle natural gas"},
	{"biomass", 0.230, "biomass combustion"},
	{"solar", 0.048, "utility photovoltaics"},
	{"hydro", 0.030, "run-of-river hydro (clamped to the Table I floor)"},
	{"wind", 0.030, "onshore wind (clamped to the Table I floor)"},
	{"nuclear", 0.030, "nuclear fission (clamped to the Table I floor)"},
	{"grid-world", 0.300, "world-average grid mix"},
	{"grid-us", 0.380, "United States average grid"},
	{"grid-eu", 0.280, "European Union average grid"},
	{"grid-taiwan", 0.500, "Taiwan grid (where most advanced fabs operate)"},
}

var byName = func() map[string]Source {
	m := make(map[string]Source, len(catalog))
	for _, s := range catalog {
		m[s.Name] = s
	}
	return m
}()

// Intensity resolves a source name (case-insensitive) to kg CO2/kWh.
func Intensity(name string) (float64, error) {
	s, ok := byName[strings.ToLower(name)]
	if !ok {
		return 0, fmt.Errorf("energy: unknown source %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	return s.KgPerKWh, nil
}

// Names lists the known source names in sorted order.
func Names() []string {
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
