package tech

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultDBValid(t *testing.T) {
	db := Default()
	sizes := db.Sizes()
	want := []int{7, 10, 14, 22, 28, 40, 65}
	if len(sizes) != len(want) {
		t.Fatalf("Sizes() = %v, want %v", sizes, want)
	}
	for i, nm := range want {
		if sizes[i] != nm {
			t.Errorf("Sizes()[%d] = %d, want %d", i, sizes[i], nm)
		}
		if !db.Has(nm) {
			t.Errorf("Has(%d) = false, want true", nm)
		}
	}
}

func TestDefaultDBSingleton(t *testing.T) {
	if Default() != Default() {
		t.Error("Default() should return the same instance")
	}
}

func TestGetUnknownNode(t *testing.T) {
	if _, err := Default().Get(3); err == nil {
		t.Fatal("Get(3) should fail: 3nm is not in the built-in table")
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGet(999) should panic")
		}
	}()
	Default().MustGet(999)
}

// Defect density must decrease monotonically as nodes mature (Fig. 6a).
func TestDefectDensityMonotone(t *testing.T) {
	db := Default()
	sizes := db.Sizes()
	for i := 1; i < len(sizes); i++ {
		prev, cur := db.MustGet(sizes[i-1]), db.MustGet(sizes[i])
		if cur.DefectDensity >= prev.DefectDensity {
			t.Errorf("D0(%dnm)=%g should be < D0(%dnm)=%g",
				cur.Nm, cur.DefectDensity, prev.Nm, prev.DefectDensity)
		}
	}
}

// Logic density scales steeply, memory less so, analog barely: at every
// node memory density > logic is allowed (SRAM bitcells are denser), but
// the *scaling ratio* from 65nm to 7nm must order logic > memory > analog.
func TestScalingRatios(t *testing.T) {
	db := Default()
	n7, n65 := db.MustGet(7), db.MustGet(65)
	logicRatio := n7.Density[Logic] / n65.Density[Logic]
	memRatio := n7.Density[Memory] / n65.Density[Memory]
	anaRatio := n7.Density[Analog] / n65.Density[Analog]
	if !(logicRatio > memRatio && memRatio > anaRatio) {
		t.Errorf("scaling ratios logic=%.1f mem=%.1f analog=%.1f: want logic > mem > analog",
			logicRatio, memRatio, anaRatio)
	}
	if anaRatio > 3 {
		t.Errorf("analog scaling ratio %.1f is too aggressive; analog barely scales", anaRatio)
	}
}

// EPA, gas CFP rise with advanced nodes; equipment derate and Vdd trends.
func TestPerNodeTrends(t *testing.T) {
	db := Default()
	sizes := db.Sizes() // ascending nm = newest first
	for i := 1; i < len(sizes); i++ {
		newer, older := db.MustGet(sizes[i-1]), db.MustGet(sizes[i])
		if newer.EPA <= older.EPA {
			t.Errorf("EPA(%d)=%g should exceed EPA(%d)=%g", newer.Nm, newer.EPA, older.Nm, older.EPA)
		}
		if newer.GasCFP <= older.GasCFP {
			t.Errorf("GasCFP(%d) should exceed GasCFP(%d)", newer.Nm, older.Nm)
		}
		if newer.EquipEfficiency <= older.EquipEfficiency {
			t.Errorf("eta_eq(%d) should exceed eta_eq(%d)", newer.Nm, older.Nm)
		}
		if newer.EDAProductivity >= older.EDAProductivity {
			t.Errorf("eta_EDA(%d) should be below eta_EDA(%d)", newer.Nm, older.Nm)
		}
		if newer.Vdd >= older.Vdd {
			t.Errorf("Vdd(%d) should be below Vdd(%d)", newer.Nm, older.Nm)
		}
		if newer.EPLARDL <= older.EPLARDL {
			t.Errorf("EPLA_RDL(%d) should exceed EPLA_RDL(%d)", newer.Nm, older.Nm)
		}
		if newer.WaferCostUSD <= older.WaferCostUSD {
			t.Errorf("wafer cost(%d) should exceed wafer cost(%d)", newer.Nm, older.Nm)
		}
	}
}

func TestAreaRoundTrip(t *testing.T) {
	n := Default().MustGet(7)
	const transistors = 4.5e9
	for _, d := range DesignTypes {
		area := n.Area(d, transistors)
		if area <= 0 {
			t.Fatalf("Area(%s) = %g, want > 0", d, area)
		}
		back := n.Transistors(d, area)
		if math.Abs(back-transistors)/transistors > 1e-12 {
			t.Errorf("Transistors(Area(%g)) = %g, want round trip", transistors, back)
		}
	}
}

func TestAreaKnownValue(t *testing.T) {
	// 95 MTr/mm^2 at 7nm logic: 9.5e9 transistors => exactly 100 mm^2.
	n := Default().MustGet(7)
	got := n.Area(Logic, 9.5e9)
	if math.Abs(got-100) > 1e-9 {
		t.Errorf("Area(Logic, 9.5e9) = %g mm^2, want 100", got)
	}
}

// Area and Transistors panic for an unset (zero) density and for a
// design type outside DesignTypes, rather than index out of range.
func TestAreaPanicsOnMissingDensity(t *testing.T) {
	zero := &Node{Nm: 7}
	full := Default().MustGet(7)
	for _, c := range []struct {
		name string
		n    *Node
		d    DesignType
	}{
		{"zero logic density", zero, Logic},
		{"DesignType(-1)", full, DesignType(-1)},
		{"DesignType(3)", full, DesignType(3)},
	} {
		for fn, call := range map[string]func(){
			"Area":        func() { c.n.Area(c.d, 1e9) },
			"Transistors": func() { c.n.Transistors(c.d, 1) },
		} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "has no density for design type") {
						t.Errorf("%s: %s panicked with %q, want the missing-density message", c.name, fn, msg)
					}
				}()
				call()
			}()
		}
	}
}

// Property: area is linear in transistor count and monotone decreasing in
// density across design types at a fixed node.
func TestAreaLinearity(t *testing.T) {
	n := Default().MustGet(14)
	f := func(raw uint32) bool {
		nt := float64(raw%1_000_000+1) * 1e4
		a1 := n.Area(Logic, nt)
		a2 := n.Area(Logic, 2*nt)
		return math.Abs(a2-2*a1) < 1e-9*a2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Area of a fixed transistor budget must grow as the node gets older.
func TestAreaGrowsWithOlderNodes(t *testing.T) {
	db := Default()
	sizes := db.Sizes()
	const nt = 1e9
	for _, d := range DesignTypes {
		for i := 1; i < len(sizes); i++ {
			newer := db.MustGet(sizes[i-1]).Area(d, nt)
			older := db.MustGet(sizes[i]).Area(d, nt)
			if older <= newer {
				t.Errorf("%s area at %dnm (%.2f) should exceed at %dnm (%.2f)",
					d, sizes[i], older, sizes[i-1], newer)
			}
		}
	}
}

func TestParseDesignType(t *testing.T) {
	cases := map[string]DesignType{
		"logic": Logic, "digital": Logic,
		"memory": Memory, "mem": Memory, "sram": Memory,
		"analog": Analog, "io": Analog, "analog_io": Analog,
	}
	for s, want := range cases {
		got, err := ParseDesignType(s)
		if err != nil || got != want {
			t.Errorf("ParseDesignType(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseDesignType("fpga"); err == nil {
		t.Error("ParseDesignType(fpga) should fail")
	}
}

func TestDesignTypeString(t *testing.T) {
	if Logic.String() != "logic" || Memory.String() != "memory" || Analog.String() != "analog" {
		t.Error("DesignType.String() mismatch")
	}
	if !strings.Contains(DesignType(42).String(), "42") {
		t.Error("unknown DesignType should render its value")
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	base := defaultNodes[0] // 7nm, valid
	mutations := []struct {
		name   string
		mutate func(*Node)
	}{
		{"negative nm", func(n *Node) { n.Nm = -1 }},
		{"defect density low", func(n *Node) { n.DefectDensity = 0.01 }},
		{"defect density high", func(n *Node) { n.DefectDensity = 0.5 }},
		{"EPA high", func(n *Node) { n.EPA = 10 }},
		{"EPA low", func(n *Node) { n.EPA = 0.1 }},
		{"gas high", func(n *Node) { n.GasCFP = 0.9 }},
		{"material low", func(n *Node) { n.MaterialCFP = 0.0 }},
		{"eta_eq high", func(n *Node) { n.EquipEfficiency = 1.5 }},
		{"eta_EDA high", func(n *Node) { n.EDAProductivity = 2 }},
		{"vdd low", func(n *Node) { n.Vdd = 0.3 }},
		{"vdd high", func(n *Node) { n.Vdd = 2.5 }},
		{"EPLA RDL high", func(n *Node) { n.EPLARDL = 0.5 }},
		{"EPLA bridge low", func(n *Node) { n.EPLABridge = 0.01 }},
		{"wafer cost zero", func(n *Node) { n.WaferCostUSD = 0 }},
		{"zero logic density", func(n *Node) { n.Density[Logic] = 0 }},
		{"zero analog density", func(n *Node) { n.Density[Analog] = 0 }},
		{"density out of range", func(n *Node) { n.Density[Logic] = 500 }},
	}
	for _, m := range mutations {
		n := base
		m.mutate(&n)
		if err := n.Validate(); err == nil {
			t.Errorf("Validate() should reject %s", m.name)
		}
	}
}

// Validate runs on every evaluation's packaging node, so a valid node
// must pass without allocating, and a density failure still names its
// design type.
func TestValidateAllocationFree(t *testing.T) {
	n := defaultNodes[0]
	if allocs := testing.AllocsPerRun(100, func() {
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Validate of a valid node made %v allocations, want 0", allocs)
	}
	n.Density[Memory] = 500
	want := "tech: node 7nm: memory density = 500 outside Table I range [5, 150]"
	if err := n.Validate(); err == nil || err.Error() != want {
		t.Errorf("Validate() = %v, want %q", err, want)
	}
}

func TestNewDBRejectsDuplicates(t *testing.T) {
	if _, err := NewDB([]Node{defaultNodes[0], defaultNodes[0]}); err == nil {
		t.Error("NewDB should reject duplicate node sizes")
	}
}

func TestNewDBRejectsInvalid(t *testing.T) {
	bad := defaultNodes[0]
	bad.EPA = 99
	if _, err := NewDB([]Node{bad}); err == nil {
		t.Error("NewDB should propagate Validate errors")
	}
}

func TestAllNodesWithinTableI(t *testing.T) {
	for _, nm := range DefaultSizes() {
		if err := Default().MustGet(nm).Validate(); err != nil {
			t.Errorf("node %dnm fails Table I validation: %v", nm, err)
		}
	}
}

func TestSandboxResetRestoresAndMutates(t *testing.T) {
	src := Default()
	sb := src.NewSandbox()
	base := src.MustGet(7).DefectDensity

	db := sb.Reset(src.Sizes(), func(n *Node) { n.DefectDensity = 0.29 })
	if got := db.MustGet(7).DefectDensity; got != 0.29 {
		t.Fatalf("Reset mutation not applied: %g", got)
	}
	if src.MustGet(7).DefectDensity != base {
		t.Fatal("Reset mutated the source database")
	}
	// A second Reset must start from base values again, and densities
	// must be private copies.
	db = sb.Reset(src.Sizes(), func(n *Node) {
		n.DefectDensity *= 1.0
		n.Density[Logic] = n.Density[Logic] * 2
	})
	if got := db.MustGet(7).DefectDensity; got != base {
		t.Fatalf("Reset did not restore base values: %g, want %g", got, base)
	}
	if src.MustGet(7).Density[Logic] == db.MustGet(7).Density[Logic] {
		t.Fatal("sandbox densities alias the source database")
	}
	if db = sb.Reset(src.Sizes(), nil); db.MustGet(7).Density[Logic] != src.MustGet(7).Density[Logic] {
		t.Fatal("Reset did not restore density values")
	}
}

// Sandbox resets must reproduce Clone bit-for-bit under the same mutation.
func TestSandboxMatchesClone(t *testing.T) {
	src := Default()
	mutate := func(n *Node) {
		n.DefectDensity = Clamp(n.DefectDensity*1.17, 0.07, 0.3)
		n.EPA = Clamp(n.EPA*0.9, 0.8, 3.5)
	}
	cloned, err := src.Clone(mutate)
	if err != nil {
		t.Fatal(err)
	}
	sandboxed := src.NewSandbox().Reset(src.Sizes(), mutate)
	for _, nm := range src.Sizes() {
		c, s := cloned.MustGet(nm), sandboxed.MustGet(nm)
		if c.DefectDensity != s.DefectDensity || c.EPA != s.EPA || c.EDAProductivity != s.EDAProductivity {
			t.Fatalf("node %dnm: sandbox %+v diverges from clone %+v", nm, s, c)
		}
	}
}

// After a mutate that scales every density and scalar parameter, a
// Reset of every size with a nil mutate restores exactly Clone(nil), bit
// for bit in every field.
func TestSandboxResetRestoresClone(t *testing.T) {
	src := Default()
	sb := src.NewSandbox()
	sb.Reset(src.Sizes(), func(n *Node) {
		for d := range n.Density {
			n.Density[d] *= 1.5
		}
		n.DefectDensity *= 1.5
		n.EPA *= 1.5
		n.GasCFP *= 1.5
		n.MaterialCFP *= 1.5
		n.EquipEfficiency *= 1.5
		n.EDAProductivity *= 1.5
		n.Vdd *= 1.5
		n.EPLARDL *= 1.5
		n.EPLABridge *= 1.5
		n.WaferCostUSD *= 1.5
	})
	db := sb.Reset(src.Sizes(), nil)
	cloned, err := src.Clone(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, nm := range src.Sizes() {
		if got, want := nodeBits(db.MustGet(nm)), nodeBits(cloned.MustGet(nm)); !slices.Equal(got, want) {
			t.Errorf("node %dnm: reset %x, clone %x", nm, got, want)
		}
	}
}

// A Reset that lists some sizes resets and mutates exactly those nodes:
// the others keep the source's parameters, and an unknown size is
// ignored.
func TestSandboxResetListedOnly(t *testing.T) {
	src := Default()
	sb := src.NewSandbox()
	db := sb.Reset([]int{7, 14, 999}, func(n *Node) { n.EPA = 3.0 })
	for _, nm := range src.Sizes() {
		got, want := db.MustGet(nm).EPA, src.MustGet(nm).EPA
		if nm == 7 || nm == 14 {
			want = 3.0
		}
		if got != want {
			t.Errorf("node %dnm: EPA %g, want %g", nm, got, want)
		}
	}
	// A later Reset of the same sizes starts from the source again.
	db = sb.Reset([]int{7, 14}, nil)
	for _, nm := range src.Sizes() {
		if got, want := nodeBits(db.MustGet(nm)), nodeBits(src.MustGet(nm)); !slices.Equal(got, want) {
			t.Errorf("node %dnm: reset %x, source %x", nm, got, want)
		}
	}
}

// nodeBits lists every field of n as a word: ints as themselves, floats
// (and each density) as Float64bits.
func nodeBits(n *Node) []uint64 {
	var out []uint64
	v := reflect.ValueOf(n).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int:
			out = append(out, uint64(f.Int()))
		case reflect.Float64:
			out = append(out, math.Float64bits(f.Float()))
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				out = append(out, math.Float64bits(f.Index(j).Float()))
			}
		default:
			panic("nodeBits: no encoding for field " + v.Type().Field(i).Name)
		}
	}
	return out
}
