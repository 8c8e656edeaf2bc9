// Package explore implements the chiplet-disaggregation design-space
// exploration workflow of Section VI of the ECO-CHIP paper: enumerate
// candidate systems (technology-node assignments, chiplet counts,
// packaging choices), evaluate each on carbon, dollar cost, area and
// power, and reduce the space to a Pareto front so an architect can pick
// a design that "meets the latency, power, and area specifications while
// minimizing C_tot".
//
// All evaluation fans out through the internal/engine worker pool: node
// combinations are generated by index (a streaming mixed-radix decode,
// no recursive walk and no materialized combination list), evaluated in
// parallel, and returned in the exact order of the historical serial
// walk.
package explore

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/engine"
	"ecochip/internal/tech"
)

// Point is one evaluated design candidate.
type Point struct {
	// Nodes is the per-chiplet node assignment.
	Nodes []int
	// EmbodiedKg, TotalKg are the carbon metrics.
	EmbodiedKg, TotalKg float64
	// CostUSD is the per-part dollar cost.
	CostUSD float64
	// PackageAreaMM2 is the substrate/die footprint.
	PackageAreaMM2 float64
}

// Label identifies the candidate by its node tuple (e.g. "[7 14 10]").
// It is derived on demand rather than stored: a full-factorial sweep
// holds up to a million points and the common consumers (Pareto
// filtering) never read a label, so eager formatting was pure
// hot-path overhead.
func (p Point) Label() string { return fmt.Sprint(p.Nodes) }

// MaxCombinations bounds the exhaustive node sweep; beyond it NodeSweep
// returns an error rather than silently truncating the space. The batch
// engine streams combinations by index instead of materializing them, so
// the cap is a wall-clock guard, not a memory one.
const MaxCombinations = 1_000_000

// comboCount returns len(nodes)^nc with overflow protection against the
// cap; an empty node list is an error.
func comboCount(nodes []int, nc int) (int, error) {
	if len(nodes) == 0 {
		return 0, fmt.Errorf("explore: no candidate nodes")
	}
	r := len(nodes)
	combos := 1
	for i := 0; i < nc; i++ {
		combos *= r
		if combos > MaxCombinations {
			return 0, fmt.Errorf("explore: %d^%d combinations exceed the %d cap", r, nc, MaxCombinations)
		}
	}
	return combos, nil
}

// combo decodes combination idx into a per-chiplet node assignment.
// Chiplet 0 is the most significant digit, matching the order of the
// historical recursive walk (and therefore the historical point order).
func combo(idx int, nodes []int, nc int) []int {
	picked := make([]int, nc)
	for i := nc - 1; i >= 0; i-- {
		picked[i] = nodes[idx%len(nodes)]
		idx /= len(nodes)
	}
	return picked
}

// NodeSweep evaluates the base system under every combination of the
// candidate nodes across its chiplets (the Fig. 7 / Fig. 15(a) sweep),
// including the dollar-cost model.
func NodeSweep(base *core.System, db *tech.DB, nodes []int, cp cost.Params) ([]Point, error) {
	return NodeSweepCtx(context.Background(), base, db, nodes, cp)
}

// NodeSweepCtx is NodeSweep with cancellation and engine options
// (worker count, progress callback). It compiles the sweep into a dense
// per-(chiplet, node) table and evaluates it in Gray-code order (see
// Compile); a multi-chiplet monolith, which Compile rejects, takes
// NodeSweepPlanned's one-evaluation path. The points come in the
// historical serial-walk order, bit-identical to NodeSweepReference.
func NodeSweepCtx(ctx context.Context, base *core.System, db *tech.DB, nodes []int, cp cost.Params, opts ...engine.Option) ([]Point, error) {
	points, _, err := NodeSweepPlanned(ctx, base, db, nodes, cp, opts...)
	return points, err
}

// NodeSweepPlanned is NodeSweepCtx also returning the compiled plan the
// sweep ran on, so callers can surface plan statistics. The plan is nil
// for a multi-chiplet monolith (the paper's monolithic baselines), which
// Compile rejects: every block of a monolith sits on one die and so on
// one node, and the sweep evaluates that die once (see sweepMonolith).
func NodeSweepPlanned(ctx context.Context, base *core.System, db *tech.DB, nodes []int, cp cost.Params, opts ...engine.Option) ([]Point, *CompiledPlan, error) {
	if base.Monolithic && len(base.Chiplets) > 1 {
		points, err := sweepMonolith(ctx, base, db, nodes, cp, opts...)
		return points, nil, err
	}
	plan, err := Compile(base, db, nodes, cp)
	if err != nil {
		return nil, nil, err
	}
	points, err := plan.RunCtx(ctx, opts...)
	if err != nil {
		return nil, nil, err
	}
	return points, plan, nil
}

// sweepMonolith is the node sweep of a multi-chiplet monolith. A monolith
// validates only when all its blocks share one node, so a point succeeds
// only if its candidate digits all name the same node. In the serial walk
// order the first point puts every block on nodes[0], and the first mixed
// point is index k, the first k with nodes[k] != nodes[0]: every point
// before it is a copy of the first. So the sweep evaluates the first
// point once and fails with the first mixed point's error, or, when every
// candidate is the same node (e.g. [7, 7]), returns len(nodes)^nc copies
// of it — exactly what NodeSweepReference returns at one worker.
func sweepMonolith(ctx context.Context, base *core.System, db *tech.DB, nodes []int, cp cost.Params, opts ...engine.Option) ([]Point, error) {
	nc := len(base.Chiplets)
	combos, err := comboCount(nodes, nc)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	first, err := evaluate(base, db, combo(0, nodes, nc), cp)
	if err != nil {
		return nil, err
	}
	if k := slices.IndexFunc(nodes, func(n int) bool { return n != nodes[0] }); k >= 0 {
		// Validation rejects every mixed monolith, so this fails with the
		// reference's error.
		_, err := evaluate(base, db, combo(k, nodes, nc), cp)
		return nil, err
	}
	return engine.Run(ctx, combos, func(_ context.Context, i int) (Point, error) {
		pt := first
		pt.Nodes = combo(i, nodes, nc)
		return pt, nil
	}, opts...)
}

// NodeSweepReference is the uncompiled sweep: every point clones the
// system, re-validates it and re-evaluates every sub-model. It is the
// test oracle the compiled path and the monolith path are checked
// against, and the baseline the compiled path's speedup is measured
// against.
func NodeSweepReference(ctx context.Context, base *core.System, db *tech.DB, nodes []int, cp cost.Params, opts ...engine.Option) ([]Point, error) {
	nc := len(base.Chiplets)
	combos, err := comboCount(nodes, nc)
	if err != nil {
		return nil, err
	}
	return engine.Run(ctx, combos, func(_ context.Context, i int) (Point, error) {
		return evaluate(base, db, combo(i, nodes, nc), cp)
	}, opts...)
}

func evaluate(base *core.System, db *tech.DB, picked []int, cp cost.Params) (Point, error) {
	s, err := base.WithNodes(picked...)
	if err != nil {
		return Point{}, err
	}
	rep, err := s.Evaluate(db)
	if err != nil {
		return Point{}, err
	}
	c, err := s.CostForReport(db, rep, cp)
	if err != nil {
		return Point{}, err
	}
	area := rep.Chiplets[0].AreaMM2
	if rep.Packaging != nil {
		area = rep.Packaging.PackageAreaMM2
	}
	return Point{
		Nodes:          picked,
		EmbodiedKg:     rep.EmbodiedKg(),
		TotalKg:        rep.TotalKg(),
		CostUSD:        c.TotalUSD(),
		PackageAreaMM2: area,
	}, nil
}

// Metric extracts one objective value from a point; all objectives are
// minimized.
type Metric func(Point) float64

// Standard objectives.
var (
	// ByEmbodied minimizes embodied carbon.
	ByEmbodied Metric = func(p Point) float64 { return p.EmbodiedKg }
	// ByTotal minimizes total (lifetime) carbon.
	ByTotal Metric = func(p Point) float64 { return p.TotalKg }
	// ByCost minimizes dollar cost.
	ByCost Metric = func(p Point) float64 { return p.CostUSD }
	// ByArea minimizes package footprint.
	ByArea Metric = func(p Point) float64 { return p.PackageAreaMM2 }
)

// ParetoFront returns the subset of points not dominated under the given
// objectives (all minimized): a point is dominated if some other point is
// no worse in every objective and strictly better in at least one. The
// result is sorted by the first objective, ties kept in input order; for
// two objectives it is sorted by (first, second), ties in input order.
// Exact duplicates of a front point all survive. Inputs holding NaN are
// outside the contract; ±0 compare equal and ±Inf order as usual.
//
// Most of a large sweep is beaten by a handful of points, so the front
// is built in four passes. The first finds every objective's minimum
// (first occurrence) and range; the second picks the knee, the point
// with the least range-normalized objective sum. The third keeps, in
// input order, every point that no pivot — the knee or a minimum —
// dominates. Only the survivors reach the final pass: for two
// objectives a sort on (x, y, input index) and a skyline scan, otherwise
// the pairwise scan and a stable sort on the first objective. The
// filter is exact: the pivots are members of the set and dominance is
// transitive, so any survivor dominated in the full set is dominated by
// a front point, which survived too. In the worst case (no point
// filtered, e.g. an anti-diagonal) the final pass sees all n points:
// O(n log n) for two objectives, O(n²) otherwise.
func ParetoFront(points []Point, objectives ...Metric) []Point {
	if len(objectives) == 0 {
		panic("explore: ParetoFront needs at least one objective")
	}
	if len(points) == 0 {
		return nil
	}
	idx, vals := pivotFilter(points, objectives)
	var keep []int
	if len(objectives) == 2 {
		keep = skyline2Keys(idx, vals)
	} else {
		keep = pairwiseFront(idx, vals, len(objectives))
	}
	front := make([]Point, len(keep))
	for f, i := range keep {
		front[f] = points[i]
	}
	return front
}

// pivotFilter returns, in input order, the indices of the points that
// neither the knee nor any objective's first minimum dominates, with
// their objective values (k per survivor, flat). It reads each point's
// objective values three times, so the standard metrics are read by
// field (see objectiveReader) instead of through a call that copies the
// point.
func pivotFilter(points []Point, objectives []Metric) (idx []int, vals []float64) {
	k := len(objectives)
	obj := newObjectiveReader(objectives)
	v := make([]float64, k)
	lo, hi := make([]float64, k), make([]float64, k)
	argmin := make([]int, k)
	for i := range points {
		obj.read(&points[i], v)
		for j, x := range v {
			if i == 0 || x < lo[j] {
				lo[j], argmin[j] = x, i
			}
			if i == 0 || x > hi[j] {
				hi[j] = x
			}
		}
	}
	// A zero or infinite range contributes nothing to the knee score, so
	// every score is finite and the knee is always a member.
	span := make([]float64, k)
	for j := range span {
		if r := hi[j] - lo[j]; r > 0 && !math.IsInf(r, 1) {
			span[j] = r
		}
	}
	knee, best := 0, math.Inf(1)
	for i := range points {
		obj.read(&points[i], v)
		score := 0.0
		for j, x := range v {
			if span[j] != 0 {
				score += (x - lo[j]) / span[j]
			}
		}
		if score < best {
			knee, best = i, score
		}
	}

	pivotIdx := append(argmin, knee)
	slices.Sort(pivotIdx)
	pivotIdx = slices.Compact(pivotIdx)
	pivots := make([]float64, len(pivotIdx)*k)
	for q, i := range pivotIdx {
		obj.read(&points[i], pivots[q*k:(q+1)*k])
	}
	for i := range points {
		obj.read(&points[i], v)
		dominated := false
		for q := 0; q < len(pivots) && !dominated; q += k {
			dominated = dominatesVals(pivots[q:q+k], v)
		}
		if !dominated {
			idx = append(idx, i)
			vals = append(vals, v...)
		}
	}
	return idx, vals
}

// objectiveReader reads a point's objective values: ByEmbodied, ByTotal,
// ByCost and ByArea (recognized by code pointer, as the orbit path
// does) straight from the point's fields, any other Metric through a
// call. The values, and so every comparison made on them, are the
// metric's own.
type objectiveReader struct {
	fields     []int // standardField of each objective
	objectives []Metric
}

func newObjectiveReader(objectives []Metric) objectiveReader {
	fields := make([]int, len(objectives))
	for j, m := range objectives {
		fields[j] = standardField(m)
	}
	return objectiveReader{fields: fields, objectives: objectives}
}

// read writes the objective values of p into v.
func (o objectiveReader) read(p *Point, v []float64) {
	for j, f := range o.fields {
		switch f {
		case 0:
			v[j] = p.EmbodiedKg
		case 1:
			v[j] = p.TotalKg
		case 2:
			v[j] = p.CostUSD
		case 3:
			v[j] = p.PackageAreaMM2
		default:
			v[j] = o.objectives[j](*p)
		}
	}
}

// skyline2Keys is the two-objective final pass over the survivors idx
// with flat values vals. It sorts (x, y, index) keys, a total order
// equal to a stable (x, y) sort of the input, then scans them once: a
// point survives iff its y is strictly below every y seen at a strictly
// smaller x and it carries the minimal y of its own x group (equal
// (x, y) duplicates neither dominate each other nor anything new, so
// all of them survive). It returns the front's input indices in order.
func skyline2Keys(idx []int, vals []float64) []int {
	type key struct {
		x, y float64
		i    int
	}
	keys := make([]key, len(idx))
	for s, i := range idx {
		keys[s] = key{vals[2*s], vals[2*s+1], i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.x, b.x), cmp.Compare(a.y, b.y), cmp.Compare(a.i, b.i))
	})

	var front []int
	bestY := 0.0
	haveBest := false
	for g := 0; g < len(keys); {
		x, groupMinY := keys[g].x, keys[g].y
		// The group is sorted by y, so members tie on groupMinY only at
		// the group head; they survive iff the group min beats every
		// strictly-smaller-x y.
		if !haveBest || groupMinY < bestY {
			for h := g; h < len(keys) && keys[h].x == x && keys[h].y == groupMinY; h++ {
				front = append(front, keys[h].i)
			}
			bestY = groupMinY
			haveBest = true
		}
		for g < len(keys) && keys[g].x == x {
			g++
		}
	}
	return front
}

// pairwiseFront is the final pass for k != 2 objectives over the
// survivors idx with flat values vals: every survivor that no other
// survivor dominates, stably sorted by the first objective. It returns
// the front's input indices in order.
func pairwiseFront(idx []int, vals []float64, k int) []int {
	var front []int
	for a := range idx {
		dominated := false
		for b := range idx {
			if a != b && dominatesVals(vals[b*k:(b+1)*k], vals[a*k:(a+1)*k]) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, a)
		}
	}
	slices.SortStableFunc(front, func(a, b int) int { return cmp.Compare(vals[a*k], vals[b*k]) })
	for f, a := range front {
		front[f] = idx[a]
	}
	return front
}

// dominatesVals reports whether objective values q dominate p: q <= p
// everywhere and q < p somewhere.
func dominatesVals(q, p []float64) bool {
	strictly := false
	for j, qv := range q {
		if qv > p[j] {
			return false
		}
		if qv < p[j] {
			strictly = true
		}
	}
	return strictly
}
