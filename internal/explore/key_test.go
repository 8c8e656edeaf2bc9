package explore

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/opcarbon"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// The plan key must be a pure content fingerprint: identical inputs
// agree across independent derivations, and any input a compiled plan
// depends on — system shape, node list, cost table, database parameters
// — perturbs it.
func TestPlanKeyStableAndSensitive(t *testing.T) {
	db := tech.Default()
	rng := rand.New(rand.NewSource(11))
	sys := testcases.Random(rng, db)
	nodes := []int{7, 10, 14}
	cp := cost.DefaultParams()

	key := func(s *core.System, d *tech.DB, ns []int, c cost.Params) string {
		t.Helper()
		k, err := PlanKey(s, d, ns, c)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	base := key(sys, db, nodes, cp)
	if again := key(sys, db, nodes, cp); again != base {
		t.Fatalf("same inputs, different keys: %s vs %s", base, again)
	}

	// System perturbation: one chiplet's transistor budget.
	mut := *sys
	mut.Chiplets = append([]core.Chiplet(nil), sys.Chiplets...)
	mut.Chiplets[0].Transistors *= 1.01
	if key(&mut, db, nodes, cp) == base {
		t.Error("chiplet perturbation did not change the key")
	}

	// Node-list perturbation: order matters (it is the sweep's radix
	// assignment, not a set).
	if key(sys, db, []int{10, 7, 14}, cp) == base {
		t.Error("node-order perturbation did not change the key")
	}

	// Cost-table perturbation.
	cp2 := cost.DefaultParams()
	cp2.BondUSDPerChiplet += 0.5
	if key(sys, db, nodes, cp2) == base {
		t.Error("cost perturbation did not change the key")
	}

	// Database version skew: clone with one defect density nudged.
	db2, err := db.Clone(func(n *tech.Node) {
		if n.Nm == 7 {
			n.DefectDensity *= 1.1
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if key(sys, db2, nodes, cp) == base {
		t.Error("database perturbation did not change the key")
	}
	// An untouched clone is the same version: same key.
	db3, err := db.Clone(nil)
	if err != nil {
		t.Fatal(err)
	}
	if key(sys, db3, nodes, cp) != base {
		t.Error("identical database clone changed the key")
	}
}

// The param and disaggregate keys share PlanKey's contract — stable
// across derivations, sensitive to system and database content — and
// the three families must never collide with each other (distinct
// prefixes, since a param plan and a disaggregation of the same system
// hash the same inputs).
func TestParamAndDisaggregateKeys(t *testing.T) {
	db := tech.Default()
	rng := rand.New(rand.NewSource(12))
	sys := testcases.Random(rng, db)

	pk, err := NewKeyer(db).ParamKey(sys)
	if err != nil {
		t.Fatal(err)
	}
	dk, err := NewKeyer(db).DisaggregateKey(sys)
	if err != nil {
		t.Fatal(err)
	}
	if pk2, _ := NewKeyer(db).ParamKey(sys); pk2 != pk {
		t.Fatalf("ParamKey unstable: %s vs %s", pk, pk2)
	}
	if dk2, _ := NewKeyer(db).DisaggregateKey(sys); dk2 != dk {
		t.Fatalf("DisaggregateKey unstable: %s vs %s", dk, dk2)
	}
	if pk == dk {
		t.Fatalf("param and disaggregate keys collide: %s", pk)
	}

	mut := *sys
	mut.Chiplets = append([]core.Chiplet(nil), sys.Chiplets...)
	mut.Chiplets[0].Transistors *= 1.01
	if mk, _ := NewKeyer(db).ParamKey(&mut); mk == pk {
		t.Error("system perturbation did not change ParamKey")
	}
	if mk, _ := NewKeyer(db).DisaggregateKey(&mut); mk == dk {
		t.Error("system perturbation did not change DisaggregateKey")
	}

	db2, err := db.Clone(func(n *tech.Node) {
		if n.Nm == 7 {
			n.DefectDensity *= 1.1
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if mk, _ := NewKeyer(db2).ParamKey(sys); mk == pk {
		t.Error("database perturbation did not change ParamKey")
	}
	if mk, _ := NewKeyer(db2).DisaggregateKey(sys); mk == dk {
		t.Error("database perturbation did not change DisaggregateKey")
	}
}

// mutation perturbs one leaf of a value reached from a root: apply
// takes a deep copy of the root and a direction (+1 or -1) for the
// numeric nudges.
type mutation struct {
	path  string
	apply func(root reflect.Value, dir int)
}

// leafMutations enumerates one mutation per exported leaf under v (the
// base value, reached from the root by at): a one-ulp nudge of every
// float, ±1 on every int and int-kinded enum, a flipped bool, a
// lengthened string, a string with its first or last byte changed, and
// nil for every non-nil pointer. Arrays are walked element by element,
// slices too and are also shortened; every map gets a nudge
// of each entry, an added and a deleted entry, and an entry moved to a
// new key. The walk is driven by reflection alone, so a field added to
// any keyed struct is perturbed here without a test edit.
func leafMutations(t *testing.T, v reflect.Value, path string, at func(reflect.Value) reflect.Value) []mutation {
	var out []mutation
	add := func(suffix string, apply func(reflect.Value, int)) {
		out = append(out, mutation{path + suffix, apply})
	}
	switch v.Kind() {
	case reflect.Float64:
		add("", func(r reflect.Value, dir int) {
			f := at(r)
			f.SetFloat(math.Nextafter(f.Float(), math.Inf(dir)))
		})
	case reflect.Int, reflect.Int64:
		add("", func(r reflect.Value, dir int) {
			f := at(r)
			f.SetInt(f.Int() + int64(dir))
		})
	case reflect.Bool:
		add("", func(r reflect.Value, _ int) {
			f := at(r)
			f.SetBool(!f.Bool())
		})
	case reflect.String:
		add("+x", func(r reflect.Value, _ int) {
			f := at(r)
			f.SetString(f.String() + "x")
		})
		// Same-length edits of the first and the last byte, which land
		// in a whole word and in the trailing partial word of most names.
		for _, i := range []int{0, v.Len() - 1} {
			if v.Len() == 0 {
				break
			}
			add(fmt.Sprintf("[%d]^1", i), func(r reflect.Value, _ int) {
				f := at(r)
				b := []byte(f.String())
				b[i] ^= 1
				f.SetString(string(b))
			})
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			sf := v.Type().Field(i)
			if !sf.IsExported() {
				continue
			}
			out = append(out, leafMutations(t, v.Field(i), path+"."+sf.Name,
				func(r reflect.Value) reflect.Value { return at(r).Field(i) })...)
		}
	case reflect.Pointer:
		if v.IsNil() {
			t.Fatalf("%s is nil in the base value: the walk cannot reach its fields", path)
		}
		add("=nil", func(r reflect.Value, _ int) {
			f := at(r)
			f.Set(reflect.Zero(f.Type()))
		})
		out = append(out, leafMutations(t, v.Elem(), path,
			func(r reflect.Value) reflect.Value { return at(r).Elem() })...)
	case reflect.Slice:
		if v.Len() == 0 {
			t.Fatalf("%s is empty in the base value: the walk cannot reach its elements", path)
		}
		add("[:len-1]", func(r reflect.Value, _ int) {
			f := at(r)
			f.Set(f.Slice(0, f.Len()-1))
		})
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = append(out, leafMutations(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i),
				func(r reflect.Value) reflect.Value { return at(r).Index(i) })...)
		}
	case reflect.Map:
		if v.Len() == 0 || v.Type().Elem().Kind() != reflect.Float64 {
			t.Fatalf("%s: the walk wants a non-empty map of float64", path)
		}
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int {
			if a.Kind() == reflect.String {
				return cmp.Compare(a.String(), b.String())
			}
			return cmp.Compare(a.Int(), b.Int())
		})
		for _, k := range keys {
			add(fmt.Sprintf("[%v]", k), func(r reflect.Value, dir int) {
				m := at(r)
				m.SetMapIndex(k, reflect.ValueOf(math.Nextafter(m.MapIndex(k).Float(), math.Inf(dir))))
			})
		}
		add(fmt.Sprintf("-[%v]", keys[0]), func(r reflect.Value, _ int) {
			at(r).SetMapIndex(keys[0], reflect.Value{})
		})
		fresh := reflect.New(v.Type().Key()).Elem()
		switch fresh.Kind() {
		case reflect.String:
			fresh.SetString(keys[len(keys)-1].String() + "x")
		default:
			fresh.SetInt(keys[len(keys)-1].Int() + 1)
		}
		add(fmt.Sprintf("+[%v]", fresh), func(r reflect.Value, _ int) {
			at(r).SetMapIndex(fresh, reflect.ValueOf(1.0))
		})
		last := keys[len(keys)-1]
		add(fmt.Sprintf("-[%v]+[%v]", last, fresh), func(r reflect.Value, _ int) {
			m := at(r)
			m.SetMapIndex(fresh, m.MapIndex(last))
			m.SetMapIndex(last, reflect.Value{})
		})
	default:
		t.Fatalf("%s: no perturbation for kind %s; teach leafMutations (and keyWriter) about it", path, v.Kind())
	}
	return out
}

// deepCopy copies v with fresh pointers, slices and maps throughout, so
// a mutation of the copy never reaches the original.
func deepCopy(v reflect.Value) reflect.Value {
	c := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			c.Set(reflect.New(v.Type().Elem()))
			c.Elem().Set(deepCopy(v.Elem()))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			c.Field(i).Set(deepCopy(v.Field(i)))
		}
	case reflect.Slice:
		if !v.IsNil() {
			c.Set(reflect.MakeSlice(v.Type(), v.Len(), v.Len()))
			for i := 0; i < v.Len(); i++ {
				c.Index(i).Set(deepCopy(v.Index(i)))
			}
		}
	case reflect.Map:
		if !v.IsNil() {
			c.Set(reflect.MakeMapWithSize(v.Type(), v.Len()))
			for it := v.MapRange(); it.Next(); {
				c.SetMapIndex(it.Key(), deepCopy(it.Value()))
			}
		}
	default:
		c.Set(v)
	}
	return c
}

func root(r reflect.Value) reflect.Value { return r }

// fullSystem is EPYC-8 with every nil-able pointer of the system set
// (the packaging node, the operating spec and both of its optional
// energy sources), so the field walk reaches every leaf.
func fullSystem(t *testing.T, d *tech.DB) *core.System {
	t.Helper()
	sys, err := testcases.EPYC(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Packaging.PackagingNode == nil {
		sys.Packaging.PackagingNode = d.MustGet(65)
	}
	sys.Operation.Elec = &opcarbon.Electrical{Vdd: 0.9, LeakA: 2, Activity: 0.2, CapF: 1e-8, FreqHz: 3e9}
	sys.Operation.Battery = &opcarbon.Battery{CapacityWh: 50, ChargesPerYear: 300, ChargerEfficiency: 0.9}
	return sys
}

// Every exported leaf of the key's inputs must reach the key: the walk
// perturbs each field of core.System (through the packaging node and
// both operating-spec pointers), of cost.Params and of every database
// node record, and asserts SweepKey moves (and, for system fields,
// ParamKey and DisaggregateKey). A field added to one of those
// structs without a keyWriter line fails here.
func TestKeyCoversEveryField(t *testing.T) {
	d := db()
	sys := fullSystem(t, d)
	nodes := []int{7, 10, 14}
	cp := cost.DefaultParams()
	ky := NewKeyer(d)
	sweepKey := func(ky *Keyer, s *core.System, c cost.Params) string {
		t.Helper()
		k, err := ky.SweepKey(s, nodes, c)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	systemKeys := func(s *core.System) [2]string {
		t.Helper()
		pk, err := ky.ParamKey(s)
		if err != nil {
			t.Fatal(err)
		}
		dk, err := ky.DisaggregateKey(s)
		if err != nil {
			t.Fatal(err)
		}
		return [2]string{pk, dk}
	}
	baseSweep, baseSystem := sweepKey(ky, sys, cp), systemKeys(sys)

	sysV := reflect.ValueOf(sys)
	if got := sweepKey(ky, deepCopy(sysV).Interface().(*core.System), cp); got != baseSweep {
		t.Fatalf("deep copy changed the key: %s vs %s", got, baseSweep)
	}
	muts := leafMutations(t, sysV.Elem(), "System", func(r reflect.Value) reflect.Value { return r.Elem() })
	for _, m := range muts {
		c := deepCopy(sysV)
		m.apply(c, 1)
		s := c.Interface().(*core.System)
		if sweepKey(ky, s, cp) == baseSweep {
			t.Errorf("perturbing %s did not change SweepKey", m.path)
		}
		if got := systemKeys(s); got[0] == baseSystem[0] || got[1] == baseSystem[1] {
			t.Errorf("perturbing %s left ParamKey or DisaggregateKey unchanged", m.path)
		}
	}

	cpV := reflect.ValueOf(cp)
	cpMuts := leafMutations(t, cpV, "cost.Params", root)
	for _, m := range cpMuts {
		c := deepCopy(cpV)
		m.apply(c, 1)
		if sweepKey(ky, sys, c.Interface().(cost.Params)) == baseSweep {
			t.Errorf("perturbing %s did not change SweepKey", m.path)
		}
	}

	// Database records: each field of the 7 nm node, nudged in whichever
	// direction keeps the clone inside the Table I ranges.
	n7 := reflect.ValueOf(d.MustGet(7)).Elem()
	checked := 0
	for _, m := range leafMutations(t, n7, "DB[7nm]", root) {
		var clone *tech.DB
		for _, dir := range []int{1, -1} {
			c, err := d.Clone(func(n *tech.Node) {
				if n.Nm == 7 {
					m.apply(reflect.ValueOf(n).Elem(), dir)
				}
			})
			if err == nil {
				clone = c
				break
			}
		}
		if clone == nil {
			t.Errorf("perturbing %s made no valid database in either direction", m.path)
			continue
		}
		checked++
		if sweepKey(NewKeyer(clone), sys, cp) == baseSweep {
			t.Errorf("perturbing %s did not change SweepKey", m.path)
		}
	}
	t.Logf("%d system, %d cost and %d node-record perturbations", len(muts), len(cpMuts), checked)
}

// Equal content gives equal keys, whatever the pointer aliasing, map
// construction order or nil-versus-empty maps — and in particular
// through the JSON round trip every ecoserve request takes.
func TestKeyEqualContent(t *testing.T) {
	d := db()
	ky := NewKeyer(d)
	nodes := []int{7, 10, 14}
	keys := func(s *core.System, cp cost.Params) [3]string {
		t.Helper()
		sk, err := ky.SweepKey(s, nodes, cp)
		if err != nil {
			t.Fatal(err)
		}
		pk, err := ky.ParamKey(s)
		if err != nil {
			t.Fatal(err)
		}
		dk, err := ky.DisaggregateKey(s)
		if err != nil {
			t.Fatal(err)
		}
		return [3]string{sk, pk, dk}
	}
	cp := cost.DefaultParams()
	sys := fullSystem(t, d)
	want := keys(sys, cp)

	// The packaging node aliased to the database's record versus a copy.
	aliased := *sys
	aliased.Packaging.PackagingNode = d.MustGet(65)
	copied := *sys
	n := *d.MustGet(65)
	copied.Packaging.PackagingNode = &n
	if a, c := keys(&aliased, cp), keys(&copied, cp); a != c {
		t.Errorf("aliased vs copied packaging node: %v vs %v", a, c)
	}

	// Nil versus empty cost maps.
	nilMaps, emptyMaps := cp, cp
	nilMaps.SubstrateUSDPerCM2, nilMaps.MaskSetUSD = nil, nil
	emptyMaps.SubstrateUSDPerCM2, emptyMaps.MaskSetUSD = map[string]float64{}, map[int]float64{}
	if a, b := keys(sys, nilMaps), keys(sys, emptyMaps); a != b {
		t.Errorf("nil vs empty cost maps: %v vs %v", a, b)
	}

	// Cost maps built in opposite insertion orders.
	reordered := cp
	reordered.SubstrateUSDPerCM2 = make(map[string]float64)
	reordered.MaskSetUSD = make(map[int]float64)
	for _, k := range slices.Backward(slices.Sorted(maps.Keys(cp.SubstrateUSDPerCM2))) {
		reordered.SubstrateUSDPerCM2[k] = cp.SubstrateUSDPerCM2[k]
	}
	for _, nm := range slices.Backward(d.Sizes()) {
		if v, ok := cp.MaskSetUSD[nm]; ok {
			reordered.MaskSetUSD[nm] = v
		}
	}
	if got := keys(sys, reordered); got != want {
		t.Errorf("reordered cost maps: %v vs %v", got, want)
	}

	// The JSON round trip of the paper's testcases.
	epyc, err := testcases.EPYC(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*core.System{sys, epyc, testcases.GA102(d, 7, 14, 10, false), testcases.A15(d, 7, 14, 10, false)} {
		buf, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back core.System
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatal(err)
		}
		if a, b := keys(s, cp), keys(&back, cp); a != b {
			t.Errorf("%s: JSON round trip changed the keys: %v vs %v", s.Name, a, b)
		}
	}
}
