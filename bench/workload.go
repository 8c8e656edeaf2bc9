package main

import (
	"context"
	"math"
	"math/rand"
	"sync"

	"ecochip/internal/explore"
)

// workload is one named set of inputs the benchmark drives through the
// same public package calls a shipped binary makes.
type workload struct {
	name string
	why  string
	// clients is the closed-loop caller count: each waits for its reply
	// before sending the next operation. It never exceeds nproc on the
	// 2-vCPU reference machine.
	clients int
	// p99Floor reports whether latency_p99_ms is a valid tail for this
	// workload: at least 1,000 samples per run, so ten lie beyond it.
	p99Floor bool
	// parallelOps reports whether one operation fans out over the
	// engine's workers (one per GOMAXPROCS), as sweeps do; a serve-mix
	// request runs on one goroutine. The host-speed probe runs on as many
	// threads as one operation keeps busy.
	parallelOps bool
	setup       func(ctx context.Context, traced bool) (instance, error)
}

// instance is one set-up workload: servers started, plans warm.
type instance interface {
	// catalogue is every input the workload can issue; each has a golden
	// hash.
	catalogue() []item
	// deal returns the operations of one cycle of the seeded schedule,
	// each a list of catalogue indices. A cycle holds the workload's mix
	// in its exact proportions, so the seed moves order and picks, not
	// the mix.
	deal(rng *rand.Rand, seed int64, cycle int) [][]int
	// layers derives the workload's per-layer metrics from a traced
	// phase and its own outside-in probes.
	layers(ctx context.Context, tr *tracer) (map[string]metric, error)
	close() error
}

// item is one catalogue input. run issues it and returns a fold that
// feeds every float of the result to a hasher; the fold runs after the
// latency clock stops.
type item struct {
	key string
	run func(ctx context.Context, ot *opTrace) (fold, error)
}

type fold func(h *hasher)

// deck deals operations from seeded cycles to any number of clients.
type deck struct {
	mu    sync.Mutex
	rng   *rand.Rand
	seed  int64
	cycle int
	queue [][]int
	deal  func(rng *rand.Rand, seed int64, cycle int) [][]int
}

func newDeck(inst instance, seed int64) *deck {
	return &deck{rng: rand.New(rand.NewSource(seed)), seed: seed, deal: inst.deal}
}

func (d *deck) draw() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.queue) == 0 {
		d.queue = d.deal(d.rng, d.seed, d.cycle)
		d.cycle++
	}
	op := d.queue[0]
	d.queue = d.queue[1:]
	return op
}

// shuffled returns ops in a seeded random order.
func shuffled(rng *rand.Rand, ops [][]int) [][]int {
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// singles wraps each catalogue index as a one-item operation.
func singles(ix ...int) [][]int {
	ops := make([][]int, len(ix))
	for i, x := range ix {
		ops[i] = []int{x}
	}
	return ops
}

// hasher is FNV-1a over 64-bit words: each float enters as its
// Float64bits, so a golden hash pins every bit of a result.
type hasher struct{ h uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newHasher() *hasher { return &hasher{h: fnvOffset} }

func (h *hasher) word(w uint64) {
	h.h ^= w
	h.h *= fnvPrime
}

func (h *hasher) float(fs ...float64) {
	for _, f := range fs {
		h.word(math.Float64bits(f))
	}
}

// points folds each point's node assignment as well as its metrics, so
// right numbers attached to the wrong design do not match.
func (h *hasher) points(pts []explore.Point) {
	h.word(uint64(len(pts)))
	for i := range pts {
		p := &pts[i]
		h.word(uint64(len(p.Nodes)))
		for _, n := range p.Nodes {
			h.word(uint64(n))
		}
		h.float(p.EmbodiedKg, p.TotalKg, p.CostUSD, p.PackageAreaMM2)
	}
}

// text folds a string byte by byte (experiment tables are formatted
// text, not floats).
func (h *hasher) text(s string) {
	for i := 0; i < len(s); i++ {
		h.h ^= uint64(s[i])
		h.h *= fnvPrime
	}
	h.word(uint64(len(s)))
}

// Objective pairs of the sweep fronts: the ecodse default first.
var objectivePairs = []struct {
	name string
	objs []explore.Metric
}{
	{"embodied-cost", []explore.Metric{explore.ByEmbodied, explore.ByCost}},
	{"total-cost", []explore.Metric{explore.ByTotal, explore.ByCost}},
	{"embodied-area", []explore.Metric{explore.ByEmbodied, explore.ByArea}},
}
