package explore

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sync"

	"ecochip/internal/core"
	"ecochip/internal/engine"
	"ecochip/internal/kernel"
)

// This file implements orbits of node assignments: the orbit path of a
// barrier Pareto front and the orbit rank that keys a walk's package
// memo. Chiplets i, j >= 1 are interchangeable when their
// descriptions match except for the name and their table rows are
// bit-equal at every candidate node: swapping their nodes yields the
// same design. (Chiplet 0 never is: it alone carries the fabric's design
// share, keyed by its node.) An orbit is the set of node assignments
// that are permutations of one another within each class of
// interchangeable chiplets.
//
// Members of an orbit package the same multiset of chiplet areas, so
// they agree bit for bit on package area, on the architecture's package
// carbon including the attach term, and on assembly yield; only the
// routing fold (router/PHY carbon and power, summed in chiplet order)
// and the carbon and cost sums depend on the order, and those differ
// only by the rounding of summing the same terms in a different order
// (measured at <= 3.7e-16 relative). The walk relies on the first
// claim for its bits: a point whose orbit the scratch has already
// estimated serves those three terms from the package memo and re-folds
// only the routing, in chiplet order (see packagePoint in plan.go).
// TestOrbitTableMatchesReferencePerArchitecture pins it for every
// architecture, with and without flexible floorplans, and the
// randomized sweep equivalence tests on random class twins.
//
// A barrier front needs only part of the walk. One representative per
// orbit is evaluated, exactly as EvalPoint would, and the
// representatives are folded into a skyline. An orbit is pruned when a
// skyline member Q beats its representative R by the relative margin
// orbitEps in every objective: every member P of the orbit lies within
// the rounding spread of R, so Q strictly dominates P. Every member of
// each surviving orbit is then evaluated exactly and folded through the
// same slot-ordered final pass as the full walk, so ties and duplicates
// resolve identically and the front keeps the walk's bits.

// orbitEps is the relative margin by which a skyline member must beat
// an orbit's representative in every objective to prune the orbit. It
// is ~10^6 times the in-orbit spread, so it only buys safety; the
// orbit-invariance property test holds that spread below orbitEps/10^3.
const orbitEps = 1e-9

// standardMetrics are the code pointers of the objectives that read only
// orbit-invariant point fields, indexed as objectiveReader.read reads
// their fields. Any other Metric may read Nodes, which differ across an
// orbit, so it keeps the full walk.
var standardMetrics = [...]uintptr{
	metricPtr(ByEmbodied), metricPtr(ByTotal), metricPtr(ByCost), metricPtr(ByArea),
}

func metricPtr(m Metric) uintptr { return reflect.ValueOf(m).Pointer() }

// standardField returns m's index in standardMetrics, or -1 for a
// custom metric.
func standardField(m Metric) int { return slices.Index(standardMetrics[:], metricPtr(m)) }

// orbitClasses returns the classes (of size >= 2) of interchangeable
// chiplets of a multi-die table, each in ascending chiplet order.
func orbitClasses(t *kernel.Table) [][]int {
	nc := len(t.Base.Chiplets)
	var classes [][]int
	taken := make([]bool, nc)
	for i := 1; i < nc; i++ {
		if taken[i] {
			continue
		}
		class := []int{i}
		for j := i + 1; j < nc; j++ {
			if !taken[j] && interchangeable(t, i, j) {
				class = append(class, j)
				taken[j] = true
			}
		}
		if len(class) > 1 {
			classes = append(classes, class)
		}
	}
	return classes
}

// interchangeable reports whether chiplets i and j have equal
// descriptions apart from the name and bit-equal table rows.
func interchangeable(t *kernel.Table, i, j int) bool {
	a, b := t.Base.Chiplets[i], t.Base.Chiplets[j]
	a.Name, b.Name = "", ""
	if a != b {
		return false
	}
	for d := range t.Nodes {
		if !sameCell(&t.Cells[i][d], &t.Cells[j][d]) ||
			math.Float64bits(t.DieUSD[i][d]) != math.Float64bits(t.DieUSD[j][d]) {
			return false
		}
	}
	return true
}

func sameCell(a, b *core.DieCell) bool {
	return a.Node == b.Node &&
		math.Float64bits(a.AreaMM2) == math.Float64bits(b.AreaMM2) &&
		math.Float64bits(a.Yield) == math.Float64bits(b.Yield) &&
		math.Float64bits(a.MfgKg) == math.Float64bits(b.MfgKg) &&
		math.Float64bits(a.WastageKg) == math.Float64bits(b.WastageKg) &&
		math.Float64bits(a.DesignKgTotal) == math.Float64bits(b.DesignKgTotal) &&
		math.Float64bits(a.DesignKgAmortized) == math.Float64bits(b.DesignKgAmortized) &&
		math.Float64bits(a.NREKg) == math.Float64bits(b.NREKg)
}

// multisets returns the number of size-s multisets over r values.
func multisets(r, s int) int {
	n := 1
	for i := 1; i <= s; i++ {
		n = n * (r - 1 + i) / i
	}
	return n
}

// setClasses records the plan's classes of interchangeable chiplets, the
// chiplets outside them and the orbit count, and precomputes the tables
// the walk maintains its orbit rank with.
func (p *CompiledPlan) setClasses(classes [][]int) {
	p.classes = classes
	p.classOf = make([]int, p.nc)
	p.keyWeight = make([]int, p.nc)
	for i := range p.classOf {
		p.classOf[i] = -1
	}
	// Weights run from the rank's least significant digit, the last
	// class's, to its most significant, the first free chiplet's (see
	// orbitUnrank).
	p.orbits = 1
	size := 0 // the largest class
	for c := len(classes) - 1; c >= 0; c-- {
		for _, i := range classes[c] {
			p.classOf[i], p.keyWeight[i] = c, p.orbits
		}
		p.orbits *= multisets(p.r, len(classes[c]))
		size = max(size, len(classes[c]))
	}
	for i := 0; i < p.nc; i++ {
		if p.classOf[i] < 0 {
			p.free = append(p.free, i)
		}
	}
	for f := len(p.free) - 1; f >= 0; f-- {
		p.keyWeight[p.free[f]] = p.orbits
		p.orbits *= p.r
	}
	// rankSkip[rest*r+v] counts the non-decreasing sequences of rest+1
	// positions over [0, r) whose first value lies below v: the ranks a
	// class position with rest positions after it skips by holding v
	// instead of 0.
	p.rankSkip = make([]int, size*p.r)
	for rest := 0; rest < size; rest++ {
		row := p.rankSkip[rest*p.r : (rest+1)*p.r]
		for v := 1; v < p.r; v++ {
			row[v] = row[v-1] + multisets(p.r-(v-1), rest)
		}
	}
}

// useOrbits reports whether a barrier front under objectives takes the
// orbit path: the plan has a class, every objective is standard, and
// there are fewer than half as many orbits as points.
func (p *CompiledPlan) useOrbits(objectives []Metric) bool {
	if len(p.classes) == 0 || 2*p.orbits >= p.combos {
		return false
	}
	for _, m := range objectives {
		if standardField(m) < 0 {
			return false
		}
	}
	return true
}

// Orbits are ranked in mixed radix: the chiplets outside every class
// (radix r each, most significant first) then the classes (one digit per
// class, radix multisets(r, size)). A representative carries its class
// digits in non-decreasing chiplet order, and a class digit is the rank
// of that sequence in lexicographic order.

// orbitUnrank writes the representative of orbit rank into digits.
func (p *CompiledPlan) orbitUnrank(rank int, digits []int) {
	for c := len(p.classes) - 1; c >= 0; c-- {
		class := p.classes[c]
		m := multisets(p.r, len(class))
		sub := rank % m
		rank /= m
		lo := 0
		for i, ch := range class {
			rest := len(class) - 1 - i
			for v := lo; ; v++ {
				// Sequences of the remaining positions over [v, r).
				if n := multisets(p.r-v, rest); sub >= n {
					sub -= n
					continue
				}
				digits[ch], lo = v, v
				break
			}
		}
	}
	for f := len(p.free) - 1; f >= 0; f-- {
		digits[p.free[f]] = rank % p.r
		rank /= p.r
	}
}

// The walk keeps the orbit rank of its current point in its scratch,
// the key of the package memo: the inverse of orbitUnrank,
// maintained per Gray step. For each class it tallies below[v], the
// members whose digit lies below v. A class digit is then the sum, over
// the positions i of the class's sorted digit sequence s, of
// rankSkip[rest_i][s_i] − rankSkip[rest_i][s_{i−1}] (rest_i positions
// follow i, s_{−1} = 0): the sequences orbitUnrank skips at position i.

// initOrbit rebuilds the scratch's class tallies and orbit rank from its
// digits: O(nc + r) per class.
func (p *CompiledPlan) initOrbit(sc *blockScratch) {
	clear(sc.below)
	sc.orbit = 0
	for i, d := range sc.digits {
		if c := p.classOf[i]; c >= 0 {
			sc.below[c*(p.r+1)+d+1]++ // a count; prefix-summed below
		} else {
			sc.orbit += d * p.keyWeight[i]
		}
	}
	for c, class := range p.classes {
		below := sc.below[c*(p.r+1) : (c+1)*(p.r+1)]
		rank, lo := 0, 0
		for v := 0; v < p.r; v++ {
			// below[v] is summed; below[v+1] still counts digit v. A run
			// of v starts at sorted position below[v].
			if below[v+1] > 0 {
				row := p.rankSkip[(len(class)-1-below[v])*p.r:]
				rank += row[v] - row[lo]
				lo = v
			}
			below[v+1] += below[v]
		}
		sc.orbit += rank * p.keyWeight[class[0]]
	}
}

// stepOrbit updates the tallies and orbit rank for a Gray step that
// moved chiplet j from digit old to d = old±1, in O(1). A class's
// sorted sequence changes at one position i — its last old on a step
// up, its first on a step down — and only the rank terms of positions i
// and i+1 read s_i.
func (p *CompiledPlan) stepOrbit(sc *blockScratch, j, old, d int) {
	c := p.classOf[j]
	if c < 0 {
		sc.orbit += (d - old) * p.keyWeight[j]
		return
	}
	below := sc.below[c*(p.r+1) : (c+1)*(p.r+1)]
	var i int
	if d > old {
		below[d]--
		i = below[d]
	} else {
		i = below[old]
		below[old]++
	}
	rest := len(p.classes[c]) - 1 - i
	row := p.rankSkip[rest*p.r:]
	delta := row[d] - row[old]
	if rest > 0 {
		row = p.rankSkip[(rest-1)*p.r:]
		delta -= row[d] - row[old]
	}
	sc.orbit += delta * p.keyWeight[j]
}

// orbitNext steps digits from one representative to the next rank's.
func (p *CompiledPlan) orbitNext(digits []int) {
	for c := len(p.classes) - 1; c >= 0; c-- {
		class := p.classes[c]
		// Lexicographic successor of a non-decreasing sequence: bump the
		// last entry below r-1 and level the tail up to it.
		for i := len(class) - 1; i >= 0; i-- {
			if v := digits[class[i]] + 1; v < p.r {
				for _, ch := range class[i:] {
					digits[ch] = v
				}
				return
			}
		}
		for _, ch := range class {
			digits[ch] = 0
		}
	}
	for f := len(p.free) - 1; f >= 0; f-- {
		i := p.free[f]
		if digits[i]++; digits[i] < p.r {
			return
		}
		digits[i] = 0
	}
}

// nextMember steps digits to the orbit's next member: the next distinct
// permutation of the last class, carrying into earlier classes when a
// class wraps back to its sorted order. It returns false after the last
// member, with digits back at the representative.
func (p *CompiledPlan) nextMember(digits []int) bool {
	for c := len(p.classes) - 1; c >= 0; c-- {
		if nextPermutation(digits, p.classes[c]) {
			return true
		}
	}
	return false
}

// nextPermutation rearranges digits at positions idx into their next
// lexicographic permutation, or back to ascending order (returning
// false) after the last one. Equal digits yield each distinct
// arrangement once.
func nextPermutation(digits, idx []int) bool {
	i := len(idx) - 2
	for i >= 0 && digits[idx[i]] >= digits[idx[i+1]] {
		i--
	}
	if i >= 0 {
		j := len(idx) - 1
		for digits[idx[j]] <= digits[idx[i]] {
			j--
		}
		digits[idx[i]], digits[idx[j]] = digits[idx[j]], digits[idx[i]]
	}
	for a, b := i+1, len(idx)-1; a < b; a, b = a+1, b-1 {
		digits[idx[a]], digits[idx[b]] = digits[idx[b]], digits[idx[a]]
	}
	return i >= 0
}

// evalDigits evaluates the point with Gray digits digits into sc.pt as
// a one-point walk at its sequence index (the EvalPoint shape) and
// returns its output slot. It marks the orbit rank unknown, so the
// point bypasses the package memo.
func (p *CompiledPlan) evalDigits(sc *blockScratch, digits []int) (int, error) {
	out := p.initAt(sc, p.grayIndex(digits))
	sc.orbit = -1
	return out, p.evalInto(sc, &sc.pt)
}

// orbitFront is the barrier front of ParetoFrontCtx on the orbit path.
// Every point it evaluates bypasses the package memo (evalDigits), so a
// fresh plan's orbit front leaves the memo unallocated at any worker
// count: its representatives are distinct orbits by construction, so a
// lookup could never hit, and the members of the orbits that survive
// pruning are few. The engine's progress callback counts
// representatives against the orbit count.
func (p *CompiledPlan) orbitFront(ctx context.Context, objectives []Metric, opts []engine.Option) ([]Point, error) {
	k := len(objectives)
	var mu sync.Mutex
	reps := newBlockFront(k)
	repVals := make([]float64, p.orbits*k) // each representative's objective values, by orbit rank
	err := engine.RunBlocks(ctx, p.orbits, func(ctx context.Context, lo, hi int, tick func()) error {
		sc, err := p.getScratch()
		if err != nil {
			return err
		}
		defer p.putScratch(sc)
		local := newBlockFront(k)
		digits := make([]int, p.nc)
		p.orbitUnrank(lo, digits)
		for rank := lo; rank < hi; rank++ {
			if rank > lo {
				p.orbitNext(digits)
			}
			if (rank-lo)&63 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if _, err := p.evalDigits(sc, digits); err != nil {
				return err
			}
			// The skyline keys representatives by orbit rank (they are
			// never materialized); add leaves the point's objective
			// values in local.vals.
			local.add(rank, &sc.pt, objectives)
			copy(repVals[rank*k:], local.vals)
			tick()
		}
		sc.blockInits += uint64(hi - lo)
		sc.points += uint64(hi - lo)
		mu.Lock()
		reps.merge(local)
		mu.Unlock()
		return nil
	}, opts...)
	if err != nil {
		return nil, err
	}

	var live []int
	for rank := 0; rank < p.orbits; rank++ {
		if !reps.prunes(repVals[rank*k : (rank+1)*k]) {
			live = append(live, rank)
		}
	}

	members := newBlockFront(k)
	err = engine.RunBlocks(ctx, len(live), func(ctx context.Context, lo, hi int, _ func()) error {
		sc, err := p.getScratch()
		if err != nil {
			return err
		}
		defer p.putScratch(sc)
		local := newBlockFront(k)
		digits := make([]int, p.nc)
		n := 0
		for _, rank := range live[lo:hi] {
			if err := ctx.Err(); err != nil {
				return err
			}
			p.orbitUnrank(rank, digits)
			for more := true; more; more = p.nextMember(digits) {
				out, err := p.evalDigits(sc, digits)
				if err != nil {
					return err
				}
				local.add(out, &sc.pt, objectives)
				n++
			}
		}
		sc.blockInits += uint64(n)
		sc.points += uint64(n)
		mu.Lock()
		members.merge(local)
		mu.Unlock()
		return nil
	}, append(opts[:len(opts):len(opts)], engine.WithProgress(nil))...)
	if err != nil {
		return nil, err
	}
	return p.frontOf(members.entries, objectives), nil
}

// prunes reports whether a front member beats the representative values
// r by the margin orbitEps: q_j <= r_j(1-orbitEps) in every objective
// and < in at least one. A representative with a non-finite or
// non-positive value is never pruned.
func (f *blockFront) prunes(r []float64) bool {
	for _, v := range r {
		if !(v > 0) || math.IsInf(v, 1) {
			return false
		}
	}
	for e := range f.entries {
		q := f.objs[e*f.k : (e+1)*f.k]
		beats, strictly := true, false
		for j, v := range r {
			bound := v * (1 - orbitEps)
			if !(q[j] <= bound) {
				beats = false
				break
			}
			strictly = strictly || q[j] < bound
		}
		if beats && strictly {
			return true
		}
	}
	return false
}
