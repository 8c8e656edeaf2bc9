package explore

import (
	"context"
	"fmt"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/engine"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

func db() *tech.DB { return tech.Default() }

func sweep(t *testing.T) []Point {
	t.Helper()
	base := testcases.GA102(db(), 7, 14, 10, false)
	points, err := NodeSweep(base, db(), []int{7, 10, 14}, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return points
}

func TestNodeSweepEnumerates(t *testing.T) {
	points := sweep(t)
	if len(points) != 27 {
		t.Fatalf("3 nodes ^ 3 chiplets should give 27 points, got %d", len(points))
	}
	seen := map[string]bool{}
	for _, p := range points {
		if seen[p.Label()] {
			t.Errorf("duplicate point %s", p.Label())
		}
		seen[p.Label()] = true
		if p.EmbodiedKg <= 0 || p.TotalKg <= p.EmbodiedKg || p.CostUSD <= 0 || p.PackageAreaMM2 <= 0 {
			t.Errorf("implausible point %+v", p)
		}
	}
}

func TestNodeSweepErrors(t *testing.T) {
	base := testcases.GA102(db(), 7, 14, 10, false)
	if _, err := NodeSweep(base, db(), nil, cost.DefaultParams()); err == nil {
		t.Error("empty node list should fail")
	}
	// Blow the combination cap: 7 nodes ^ 10 chiplets.
	big, err := testcases.GA102Split(db(), 8, base.Packaging.Arch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NodeSweep(big, db(), db().Sizes(), cost.DefaultParams()); err == nil {
		t.Error("combination explosion should fail, not truncate")
	}
	// Invalid node propagates.
	if _, err := NodeSweep(base, db(), []int{7, 3}, cost.DefaultParams()); err == nil {
		t.Error("unsupported node should fail")
	}
}

// minBy returns the first point minimizing m.
func minBy(points []Point, m Metric) Point {
	best := points[0]
	for _, p := range points[1:] {
		if m(p) < m(best) {
			best = p
		}
	}
	return best
}

// The paper's Section V-A result must fall out of the sweep: the best
// embodied-carbon point is (7,14,10).
func TestBestMatchesPaper(t *testing.T) {
	points := sweep(t)
	best := minBy(points, ByEmbodied)
	if best.Label() != "[7 14 10]" {
		t.Errorf("best embodied point = %s, want [7 14 10]", best.Label())
	}
}

func TestParetoFrontProperties(t *testing.T) {
	points := sweep(t)
	front := ParetoFront(points, ByEmbodied, ByCost)
	if len(front) == 0 || len(front) > len(points) {
		t.Fatalf("front size %d implausible", len(front))
	}
	// No point in the front is dominated by any sweep point.
	for _, p := range front {
		for _, q := range points {
			if q.Label() == p.Label() {
				continue
			}
			if q.EmbodiedKg <= p.EmbodiedKg && q.CostUSD <= p.CostUSD &&
				(q.EmbodiedKg < p.EmbodiedKg || q.CostUSD < p.CostUSD) {
				t.Errorf("front point %s is dominated by %s", p.Label(), q.Label())
			}
		}
	}
	// Front is sorted by the first objective.
	for i := 1; i < len(front); i++ {
		if front[i].EmbodiedKg < front[i-1].EmbodiedKg {
			t.Error("front not sorted by first objective")
		}
	}
	// Both single-objective optima are on the front.
	bestEmb := minBy(points, ByEmbodied)
	bestCost := minBy(points, ByCost)
	var foundEmb, foundCost bool
	for _, p := range front {
		if p.Label() == bestEmb.Label() {
			foundEmb = true
		}
		if p.Label() == bestCost.Label() {
			foundCost = true
		}
	}
	if !foundEmb || !foundCost {
		t.Error("single-objective optima must be on the Pareto front")
	}
}

func TestParetoSingleObjective(t *testing.T) {
	points := sweep(t)
	front := ParetoFront(points, ByTotal)
	// With one objective the front is exactly the set of minima.
	best := minBy(points, ByTotal)
	for _, p := range front {
		if p.TotalKg != best.TotalKg {
			t.Errorf("single-objective front contains non-minimal point %s", p.Label())
		}
	}
}

func TestParetoPanicsWithoutObjectives(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ParetoFront without objectives should panic")
		}
	}()
	ParetoFront(sweep(t))
}

func TestByAreaMetric(t *testing.T) {
	points := sweep(t)
	best := minBy(points, ByArea)
	// All-advanced nodes minimize area.
	if best.Label() != "[7 7 7]" {
		t.Errorf("smallest-area point = %s, want [7 7 7]", best.Label())
	}
}

// nodeSweepSerialReference is the pre-engine implementation: a recursive
// walk evaluating one point at a time on one goroutine, pricing cost with
// a second evaluation. It is the byte-identity oracle for the engine path.
func nodeSweepSerialReference(base *core.System, d *tech.DB, nodes []int, cp cost.Params) ([]Point, error) {
	nc := len(base.Chiplets)
	var points []Point
	assign := make([]int, nc)
	var walk func(int) error
	walk = func(i int) error {
		if i == nc {
			picked := make([]int, nc)
			copy(picked, assign)
			s, err := base.WithNodes(picked...)
			if err != nil {
				return err
			}
			rep, err := s.Evaluate(d)
			if err != nil {
				return err
			}
			c, err := s.CostUSD(d, cp)
			if err != nil {
				return err
			}
			area := rep.Chiplets[0].AreaMM2
			if rep.Packaging != nil {
				area = rep.Packaging.PackageAreaMM2
			}
			points = append(points, Point{
				Nodes:          picked,
				EmbodiedKg:     rep.EmbodiedKg(),
				TotalKg:        rep.TotalKg(),
				CostUSD:        c.TotalUSD(),
				PackageAreaMM2: area,
			})
			return nil
		}
		for _, nm := range nodes {
			assign[i] = nm
			if err := walk(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	return points, nil
}

// The engine-backed sweep must return byte-identical points — same
// order, same floats — to the historical serial walk, at any worker
// count.
func TestNodeSweepMatchesSerialReference(t *testing.T) {
	d := db()
	base := testcases.GA102(d, 7, 14, 10, false)
	nodes := []int{7, 10, 14, 22}
	cp := cost.DefaultParams()
	want, err := nodeSweepSerialReference(base, d, nodes, cp)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		got, err := NodeSweepCtx(context.Background(), base, d, nodes, cp, engine.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Label() != want[i].Label() ||
				got[i].EmbodiedKg != want[i].EmbodiedKg ||
				got[i].TotalKg != want[i].TotalKg ||
				got[i].CostUSD != want[i].CostUSD ||
				got[i].PackageAreaMM2 != want[i].PackageAreaMM2 {
				t.Fatalf("workers=%d: point %d differs\nwant %+v\ngot  %+v", workers, i, want[i], got[i])
			}
		}
	}
}

func TestComboStreaming(t *testing.T) {
	// Decode order must be the recursive-walk order: chiplet 0 outermost.
	nodes := []int{7, 10}
	want := [][]int{{7, 7}, {7, 10}, {10, 7}, {10, 10}}
	for i, w := range want {
		got := combo(i, nodes, 2)
		if fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("combo(%d) = %v, want %v", i, got, w)
		}
	}
	if n, err := comboCount(make([]int, 10), 6); err != nil || n != 1_000_000 {
		t.Errorf("comboCount(10 nodes, 6) = %d, %v; want exactly the 1M cap", n, err)
	}
	if _, err := comboCount(make([]int, 10), 7); err == nil {
		t.Error("comboCount beyond the cap must error")
	}
	// 7 nodes over 6 chiplets (117,649 combos) exceeded the old 100k cap
	// and must now be admissible.
	if n, err := comboCount(make([]int, 7), 6); err != nil || n != 117_649 {
		t.Errorf("comboCount(7 nodes, 6) = %d, %v; want 117649 admissible", n, err)
	}
}

// generalScan is the O(n^2) dominance filter, kept as the oracle for the
// two-objective skyline path.
func generalScan(points []Point, objectives ...Metric) map[string]bool {
	kept := map[string]bool{}
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && dominates(q, p, objectives) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept[fmt.Sprintf("%s|%g|%g", p.Label(), objectives[0](p), objectives[1](p))] = true
		}
	}
	return kept
}

func TestSkylineMatchesGeneralScan(t *testing.T) {
	points := sweep(t)
	// Add adversarial shapes: exact duplicates, equal-x ties and an
	// equal-y tie chain.
	points = append(points, points[0], points[3])
	points = append(points,
		Point{Nodes: []int{901}, EmbodiedKg: points[1].EmbodiedKg, CostUSD: points[1].CostUSD / 2},
		Point{Nodes: []int{902}, EmbodiedKg: points[1].EmbodiedKg, CostUSD: points[1].CostUSD / 2},
		Point{Nodes: []int{903}, EmbodiedKg: points[1].EmbodiedKg * 2, CostUSD: points[1].CostUSD / 2},
	)
	front := ParetoFront(points, ByEmbodied, ByCost)
	want := generalScan(points, ByEmbodied, ByCost)
	if len(front) == 0 {
		t.Fatal("empty front")
	}
	got := map[string]bool{}
	for i, p := range front {
		got[fmt.Sprintf("%s|%g|%g", p.Label(), p.EmbodiedKg, p.CostUSD)] = true
		if i > 0 && front[i].EmbodiedKg < front[i-1].EmbodiedKg {
			t.Error("skyline front not sorted by first objective")
		}
	}
	if len(got) != len(want) {
		t.Fatalf("skyline kept %d distinct points, general scan kept %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("general-scan survivor %s missing from skyline front", k)
		}
	}
	if ParetoFront(nil, ByEmbodied, ByCost) != nil {
		t.Error("empty input should give empty front")
	}
}
