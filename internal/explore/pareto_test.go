package explore

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// paretoFrontReference is the front before the pivot prefilter: the
// skyline sweep over all points for two objectives and the pairwise scan
// over all points otherwise. It is the oracle ParetoFront must match
// exactly — same points, same Nodes, same order.
func paretoFrontReference(points []Point, objectives ...Metric) []Point {
	if len(objectives) == 0 {
		panic("explore: ParetoFront needs at least one objective")
	}
	if len(objectives) == 2 {
		return skyline2(points, objectives[0], objectives[1])
	}
	var front []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if dominates(q, p, objectives) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.SliceStable(front, func(a, b int) bool {
		return objectives[0](front[a]) < objectives[0](front[b])
	})
	return front
}

// skyline2 computes the two-objective front in a single pass over the
// points sorted by (x asc, y asc): a point survives iff its y is
// strictly below every y seen at a strictly smaller x and it carries the
// minimal y of its own x group (equal (x, y) duplicates neither dominate
// each other nor anything new, so all of them survive).
func skyline2(points []Point, mx, my Metric) []Point {
	if len(points) == 0 {
		return nil
	}
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		xa, xb := mx(points[order[a]]), mx(points[order[b]])
		if xa != xb {
			return xa < xb
		}
		return my(points[order[a]]) < my(points[order[b]])
	})

	var front []Point
	bestY := 0.0
	haveBest := false
	for gi := 0; gi < len(order); {
		x := mx(points[order[gi]])
		groupMinY := my(points[order[gi]])
		// The group is sorted by y, so members tie on groupMinY only at
		// the group head; they survive iff the group min beats every
		// strictly-smaller-x y.
		if !haveBest || groupMinY < bestY {
			for gj := gi; gj < len(order) && mx(points[order[gj]]) == x && my(points[order[gj]]) == groupMinY; gj++ {
				front = append(front, points[order[gj]])
			}
			bestY = groupMinY
			haveBest = true
		}
		for gi < len(order) && mx(points[order[gi]]) == x {
			gi++
		}
	}
	return front
}

// dominates reports whether q dominates p: q <= p everywhere and q < p
// somewhere.
func dominates(q, p Point, objectives []Metric) bool {
	strictly := false
	for _, m := range objectives {
		qv, pv := m(q), m(p)
		if qv > pv {
			return false
		}
		if qv < pv {
			strictly = true
		}
	}
	return strictly
}

// paretoObjectiveSets is every non-empty subset of the standard
// objectives, plus repeated objectives.
func paretoObjectiveSets() [][]Metric {
	all := []Metric{ByEmbodied, ByTotal, ByCost, ByArea}
	var sets [][]Metric
	for mask := 1; mask < 1<<len(all); mask++ {
		var ms []Metric
		for j, m := range all {
			if mask&(1<<j) != 0 {
				ms = append(ms, m)
			}
		}
		sets = append(sets, ms)
	}
	return append(sets, []Metric{ByCost, ByCost}, []Metric{ByCost, ByArea, ByCost})
}

// paretoValues are the objective values the randomized and fuzz inputs
// draw from: small integers, so ties are common, signed zeros and
// infinities.
var paretoValues = []float64{0, math.Copysign(0, -1), 1, 2, 3, 4, -1, -2, math.Inf(1), math.Inf(-1)}

// randomParetoPoints draws n points of one input shape. Nodes holds each
// point's input position, so the comparison sees which duplicate won.
func randomParetoPoints(rng *rand.Rand, n, shape int) []Point {
	points := make([]Point, n)
	for i := range points {
		p := &points[i]
		p.Nodes = []int{i}
		switch shape {
		case 0: // small integers
			p.EmbodiedKg = float64(rng.Intn(6))
			p.TotalKg = float64(rng.Intn(6))
			p.CostUSD = float64(rng.Intn(6))
			p.PackageAreaMM2 = float64(rng.Intn(6))
		case 1: // small integers with signed zeros and infinities
			p.EmbodiedKg = paretoValues[rng.Intn(len(paretoValues))]
			p.TotalKg = paretoValues[rng.Intn(len(paretoValues))]
			p.CostUSD = paretoValues[rng.Intn(len(paretoValues))]
			p.PackageAreaMM2 = paretoValues[rng.Intn(len(paretoValues))]
		case 2: // all equal: every range is zero
			p.EmbodiedKg, p.TotalKg, p.CostUSD, p.PackageAreaMM2 = 3, 3, 3, 3
		case 3: // anti-diagonal: every point is on every front holding
			// embodied with total or cost
			p.EmbodiedKg = float64(i)
			p.TotalKg = -float64(i)
			p.CostUSD = float64(n - i)
			p.PackageAreaMM2 = float64(rng.Intn(3))
		default: // continuous values
			p.EmbodiedKg = rng.Float64()
			p.TotalKg = rng.NormFloat64()
			p.CostUSD = rng.ExpFloat64()
			p.PackageAreaMM2 = rng.Float64()
		}
		// Exact duplicates of earlier points, Nodes included.
		if i > 0 && rng.Intn(8) == 0 {
			*p = points[rng.Intn(i)]
		}
	}
	return points
}

// ParetoFront must return exactly the reference front — points, Nodes
// and order — on tie-heavy random inputs of sizes 0–300 under every
// 1–4-objective subset and repeated objectives.
func TestParetoFrontMatchesReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	sets := paretoObjectiveSets()
	sizes := []int{0, 1, 2, 3, 300}
	for len(sizes) < 60 {
		sizes = append(sizes, rng.Intn(301))
	}
	for _, n := range sizes {
		for shape := 0; shape <= 4; shape++ {
			points := randomParetoPoints(rng, n, shape)
			for s, ms := range sets {
				want := paretoFrontReference(points, ms...)
				if got := ParetoFront(points, ms...); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d shape=%d set=%d: front %v, want %v", n, shape, s, got, want)
				}
			}
		}
	}
	if ParetoFront(nil, ByEmbodied, ByCost, ByArea) != nil {
		t.Error("empty input should give a nil front")
	}
}

// FuzzParetoFront decodes the input into points over small integers,
// signed zeros and infinities — byte 0 picks the objective set, each
// following group of four bytes is one point — and checks ParetoFront
// against the reference.
func FuzzParetoFront(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{1, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1})
	f.Add([]byte{2, 8, 9, 0, 1, 9, 8, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{15, 2, 2, 3, 3, 2, 2, 3, 3, 4, 1, 5, 0})
	f.Add([]byte{16, 5, 4, 3, 2, 4, 5, 2, 3, 3, 3, 3, 3, 6, 7, 8, 9})
	sets := paretoObjectiveSets()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ms := sets[int(data[0])%len(sets)]
		data = data[1:]
		points := make([]Point, len(data)/4)
		for i := range points {
			v := func(j int) float64 { return paretoValues[int(data[4*i+j])%len(paretoValues)] }
			points[i] = Point{Nodes: []int{i}, EmbodiedKg: v(0), TotalKg: v(1), CostUSD: v(2), PackageAreaMM2: v(3)}
		}
		want := paretoFrontReference(points, ms...)
		if got := ParetoFront(points, ms...); !reflect.DeepEqual(got, want) {
			t.Fatalf("front %v, want %v", got, want)
		}
	})
}
