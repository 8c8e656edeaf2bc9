package explore

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/engine"
	"ecochip/internal/kernel"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/testcases"
)

// withDuplicates copies a random system, appends 2-4 renamed copies of
// one of its chiplets and sets the packaging architecture. It returns
// the copy and the chiplet indices that must form a class (the source
// chiplet joins its copies unless it is chiplet 0).
func withDuplicates(rng *rand.Rand, s *core.System, arch pkgcarbon.Architecture, flexible bool) (*core.System, []int) {
	c := *s
	c.Chiplets = append([]core.Chiplet(nil), s.Chiplets...)
	src := rng.Intn(len(c.Chiplets))
	var class []int
	if src > 0 {
		class = append(class, src)
	}
	for k := 2 + rng.Intn(3); k > 0; k-- {
		dup := c.Chiplets[src]
		dup.Name = fmt.Sprintf("%s-dup%d", dup.Name, k)
		class = append(class, len(c.Chiplets))
		c.Chiplets = append(c.Chiplets, dup)
	}
	c.Packaging = pkgcarbon.DefaultParams(arch)
	c.Packaging.FlexibleFloorplan = flexible
	return &c, class
}

// randomNodes draws n candidate nodes from the mask-node set.
func randomNodes(rng *rand.Rand, n int) []int {
	perm := rng.Perm(len(testcases.MaskNodes))
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = testcases.MaskNodes[perm[i]]
	}
	return nodes
}

// orbitKey names the orbit of a node assignment under permutations
// within each class.
func orbitKey(nodes []int, classes [][]int) string {
	key := append([]int(nil), nodes...)
	for _, class := range classes {
		vals := make([]int, len(class))
		for i, ch := range class {
			vals[i] = key[ch]
		}
		sort.Ints(vals)
		for i, ch := range class {
			key[ch] = vals[i]
		}
	}
	return fmt.Sprint(key)
}

// Compile finds exactly the interchangeable chiplets of the paper's
// testcases: the seven CCDs beside CCD 0 on EPYC-8 (CCD 0 carries the
// fabric share), digital1-5 of the six-way GA102 digital split, and
// nothing on the heterogeneous 3-chiplet GA102.
func TestOrbitClasses(t *testing.T) {
	d := db()
	epyc8, err := testcases.EPYC(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	digital6, err := testcases.GA102DigitalOnly(d, 6, pkgcarbon.RDLFanout)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		sys     *core.System
		classes [][]int
		orbits  int
	}{
		{"epyc8", epyc8, [][]int{{1, 2, 3, 4, 5, 6, 7}}, 1920},
		{"ga102digital6", digital6, [][]int{{1, 2, 3, 4, 5}}, 224},
		{"ga102", testcases.GA102(d, 7, 14, 10, false), nil, 64},
	} {
		plan, err := Compile(tc.sys, d, []int{7, 10, 14, 22}, cost.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plan.classes, tc.classes) || plan.orbits != tc.orbits {
			t.Errorf("%s: classes %v with %d orbits, want %v with %d", tc.name, plan.classes, plan.orbits, tc.classes, tc.orbits)
		}
	}
}

// The orbit enumeration must visit every point of the space exactly
// once: representatives from orbitUnrank and orbitNext agree rank by
// rank, each is sorted within its classes, and the members of all
// orbits partition the output slots.
func TestOrbitEnumerationPartitionsSpace(t *testing.T) {
	for _, tc := range []struct {
		nc, r   int
		classes [][]int
	}{
		{3, 4, [][]int{{1, 2}}},
		{6, 3, [][]int{{1, 2}, {3, 4, 5}}},
		{6, 2, [][]int{{1, 3, 5}, {2, 4}}},
		{7, 4, [][]int{{2, 3, 4, 5, 6}}},
		{9, 4, [][]int{{1, 2, 3, 4, 5, 6, 7}}},
	} {
		p := &CompiledPlan{nc: tc.nc, r: tc.r, combos: 1}
		p.weight = make([]int, tc.nc)
		for i := tc.nc - 1; i >= 0; i-- {
			p.weight[i] = p.combos
			p.combos *= tc.r
		}
		p.setClasses(tc.classes)
		seen := make([]bool, p.combos)
		members := 0
		step := make([]int, p.nc)
		p.orbitUnrank(0, step)
		for rank := 0; rank < p.orbits; rank++ {
			if rank > 0 {
				p.orbitNext(step)
			}
			rep := make([]int, p.nc)
			p.orbitUnrank(rank, rep)
			if !reflect.DeepEqual(rep, step) {
				t.Fatalf("%+v rank %d: unrank %v, successor %v", tc, rank, rep, step)
			}
			for _, c := range p.classes {
				for i := 1; i < len(c); i++ {
					if rep[c[i-1]] > rep[c[i]] {
						t.Fatalf("%+v rank %d: representative %v not sorted in class %v", tc, rank, rep, c)
					}
				}
			}
			digits := append([]int(nil), rep...)
			for more := true; more; more = p.nextMember(digits) {
				slot := 0
				for i, d := range digits {
					slot += d * p.weight[i]
				}
				if seen[slot] {
					t.Fatalf("%+v: slot %d (%v) visited twice", tc, slot, digits)
				}
				seen[slot] = true
				members++
			}
			if !reflect.DeepEqual(digits, rep) {
				t.Fatalf("%+v rank %d: member walk ended at %v, not the representative %v", tc, rank, digits, rep)
			}
		}
		if members != p.combos {
			t.Fatalf("%+v: %d members over %d orbits, want %d points", tc, members, p.orbits, p.combos)
		}
	}
}

// Orbit invariance, the property the orbit path rests on: Compile
// finds exactly the duplicated chiplets, and across every packaging
// architecture, rigid and flexible, the points of one orbit share the package area bit for bit, and their carbon and cost differ
// by at most orbitEps/10^3 relative (in-order rounding only).
func TestOrbitInvarianceRandomized(t *testing.T) {
	d := db()
	cp := cost.DefaultParams()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20261017))
	const bound = orbitEps / 1e3
	checked, maxSpread := 0, 0.0
	for trial := 0; trial < 40; trial++ {
		arch := pkgcarbon.Architectures[trial%len(pkgcarbon.Architectures)]
		flexible := trial/len(pkgcarbon.Architectures)%2 == 1
		sys, class := withDuplicates(rng, testcases.Random(rng, d), arch, flexible)
		plan, err := Compile(sys, d, randomNodes(rng, 2+rng.Intn(2)), cp)
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(plan.classes, [][]int{class}) {
			t.Fatalf("trial %d: plan classes %v, want [%v]", trial, plan.classes, class)
		}
		points, err := plan.RunCtx(ctx)
		if err != nil {
			continue
		}
		type span struct {
			area     uint64
			min, max [3]float64
		}
		orbits := map[string]*span{}
		worst := 0.0
		for _, p := range points {
			vals := [3]float64{p.EmbodiedKg, p.TotalKg, p.CostUSD}
			key := orbitKey(p.Nodes, plan.classes)
			s, ok := orbits[key]
			if !ok {
				orbits[key] = &span{area: math.Float64bits(p.PackageAreaMM2), min: vals, max: vals}
				continue
			}
			if a := math.Float64bits(p.PackageAreaMM2); a != s.area {
				t.Fatalf("trial %d (%s, flexible=%v): orbit %s package area %x vs %x", trial, arch, flexible, key, a, s.area)
			}
			for j, v := range vals {
				s.min[j], s.max[j] = math.Min(s.min[j], v), math.Max(s.max[j], v)
				if spread := (s.max[j] - s.min[j]) / math.Abs(s.min[j]); spread > worst {
					worst = spread
				}
			}
		}
		if worst > bound {
			t.Fatalf("trial %d (%s, flexible=%v): in-orbit relative spread %.3g exceeds %.3g", trial, arch, flexible, worst, bound)
		}
		checked++
		maxSpread = math.Max(maxSpread, worst)
	}
	if checked < 30 {
		t.Fatalf("only %d of 40 trials evaluated cleanly", checked)
	}
	t.Logf("%d trials, largest in-orbit relative spread %.3g", checked, maxSpread)
}

// The orbit front must return ParetoFront(RunCtx(...)) bit for bit —
// Nodes and order included — for every 1-4-objective subset of the
// standard metrics at one and three workers whenever the plan takes
// the orbit path. A custom metric that reads Nodes keeps the
// full walk and its answer.
func TestOrbitFrontMatchesWalkRandomized(t *testing.T) {
	d := db()
	cp := cost.DefaultParams()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(16))
	standard := []Metric{ByEmbodied, ByTotal, ByCost, ByArea}
	orbitRuns := 0
	for trial := 0; trial < 20; trial++ {
		arch := pkgcarbon.Architectures[trial%len(pkgcarbon.Architectures)]
		flexible := trial%2 == 1
		sys, class := withDuplicates(rng, testcases.Random(rng, d), arch, flexible)
		// Three nodes for rigid floorplans up to six chiplets, two
		// otherwise: flexible shapes plan from scratch at every point.
		n := 3
		if flexible || len(sys.Chiplets) > 6 {
			n = 2
		}
		plan, err := Compile(sys, d, randomNodes(rng, n), cp)
		if err != nil {
			continue
		}
		points, err := plan.RunCtx(ctx)
		if err != nil {
			continue
		}
		check := func(label string, ms []Metric, wantOrbit bool) {
			t.Helper()
			want := ParetoFront(points, ms...)
			for _, workers := range []int{1, 3} {
				before := plan.Stats()
				got, total, err := plan.ParetoFrontCtx(ctx, ms, engine.WithWorkers(workers))
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, label, err)
				}
				after := plan.Stats()
				if total != plan.Combos() {
					t.Fatalf("trial %d %s: total %d, want %d", trial, label, total, plan.Combos())
				}
				// The walk starts one Gray walk per worker block; the
				// orbit path evaluates every point as a one-point walk.
				evaluated, inits := after.Points-before.Points, after.BlockInits-before.BlockInits
				if orbit := inits == evaluated; orbit != wantOrbit {
					t.Fatalf("trial %d %s: %d block inits for %d points of %d, orbit path = %v, want %v",
						trial, label, inits, evaluated, plan.Combos(), orbit, wantOrbit)
				} else if orbit {
					orbitRuns++
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d %s workers=%d: front of %d points, want %d", trial, label, workers, len(got), len(want))
				}
				for i := range want {
					if !pointsBitIdentical(got[i], want[i]) {
						t.Fatalf("trial %d %s workers=%d: front point %d\ngot  %+v\nwant %+v", trial, label, workers, i, got[i], want[i])
					}
				}
			}
		}
		symmetric := 2*plan.orbits < plan.Combos()
		for mask := 1; mask < 1<<len(standard); mask++ {
			var ms []Metric
			for j, m := range standard {
				if mask&(1<<j) != 0 {
					ms = append(ms, m)
				}
			}
			check(fmt.Sprintf("objectives %04b", mask), ms, symmetric)
		}
		// Cost first, then the node of one class member: members of an
		// orbit differ in it, so only the walk gives this front.
		byNode := func(p Point) float64 { return float64(p.Nodes[class[0]]) }
		check("custom node metric", []Metric{ByCost, byNode}, false)
	}
	if orbitRuns < 200 {
		t.Fatalf("only %d front calls took the orbit path", orbitRuns)
	}
}

// An orbit front counts as one walk of each scratch, so on a fresh plan
// it never touches the per-point package memo, and a repeat call on the
// warm plan returns the same bits. The first call is serial: in a
// parallel run one block may finish and pool its scratch before another
// block takes one, which then counts a second walk.
func TestOrbitFrontFreshPlanSkipsPackageMemo(t *testing.T) {
	d := db()
	sys, err := testcases.EPYC(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(sys, d, []int{7, 10, 14, 22}, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ms := []Metric{ByEmbodied, ByCost}
	first, _, err := plan.ParetoFrontCtx(ctx, ms, engine.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats()
	if st.PkgMemo != (kernel.PkgMemoStats{}) {
		t.Fatalf("fresh orbit front used the package memo: %+v", st.PkgMemo)
	}
	if st.Points <= uint64(plan.orbits) || st.Points >= uint64(plan.Combos())/100 {
		t.Fatalf("orbit front evaluated %d points; want just over the %d representatives", st.Points, plan.orbits)
	}
	if st.BlockInits != st.Points || st.GraySteps != 0 {
		t.Fatalf("orbit front stats %+v: every point is a one-point walk", st)
	}
	again, _, err := plan.ParetoFrontCtx(ctx, ms)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFront(t, first, again, "warm orbit front")
}
