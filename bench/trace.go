package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function (spans inside the program are not recorded). The
// op's root span has id 0 and parent -1.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opTrace holds the spans of one operation. Its methods are safe for
// concurrent use (lease spans arrive from coordinator goroutines) and
// no-ops on a nil receiver, so untraced runs pass nil.
type opTrace struct {
	epoch time.Time
	op    int
	mu    sync.Mutex
	spans []span
}

// begin opens a span under parent and returns its id.
func (o *opTrace) begin(name string, parent int) int {
	if o == nil {
		return -1
	}
	now := time.Since(o.epoch).Nanoseconds()
	o.mu.Lock()
	defer o.mu.Unlock()
	id := len(o.spans)
	o.spans = append(o.spans, span{Name: name, Op: o.op, ID: id, Parent: parent, Start: now})
	return id
}

func (o *opTrace) end(id int) {
	if o == nil {
		return
	}
	now := time.Since(o.epoch).Nanoseconds()
	o.mu.Lock()
	o.spans[id].End = now
	o.mu.Unlock()
}

// record adds an already-timed span under parent.
func (o *opTrace) record(name string, parent int, start, end time.Time) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.spans = append(o.spans, span{Name: name, Op: o.op, ID: len(o.spans), Parent: parent,
		Start: start.Sub(o.epoch).Nanoseconds(), End: end.Sub(o.epoch).Nanoseconds()})
	o.mu.Unlock()
}

// call times fn as a child of the op's root span.
func (o *opTrace) call(name string, fn func() error) error {
	id := o.begin(name, 0)
	err := fn()
	o.end(id)
	return err
}

// spanStats aggregates every span of one name.
type spanStats struct {
	count       int
	total, self time.Duration
}

// maxKeptSpans bounds the spans written to a trace file; aggregates
// cover every span.
const maxKeptSpans = 50_000

// tracer aggregates the operations of one traced phase.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	nextOp  int
	ops     int
	wall    time.Duration // sum of root spans
	covered time.Duration // sum of the union of each root's children
	names   map[string]*spanStats
	kept    []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), names: map[string]*spanStats{}}
}

// newOp opens an operation and its root span.
func (t *tracer) newOp() *opTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	op := t.nextOp
	t.nextOp++
	t.mu.Unlock()
	o := &opTrace{epoch: t.epoch, op: op}
	o.begin("op", -1)
	return o
}

// finish closes the op's root span and folds its spans into the
// aggregates: each span's self time is its duration minus the union of
// its children, and the op's coverage is the union of the root's
// children over the root's duration.
func (t *tracer) finish(o *opTrace) {
	if o == nil {
		return
	}
	o.end(0)
	o.mu.Lock()
	spans := append([]span(nil), o.spans...)
	o.mu.Unlock()

	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	root := spans[0]
	t.wall += time.Duration(root.End - root.Start)
	t.covered += time.Duration(union(children[0], root.Start, root.End))
	for _, s := range spans {
		st := t.names[s.Name]
		if st == nil {
			st = &spanStats{}
			t.names[s.Name] = st
		}
		d := s.End - s.Start
		st.count++
		st.total += time.Duration(d)
		st.self += time.Duration(d - union(children[s.ID], s.Start, s.End))
	}
	if len(t.kept)+len(spans) <= maxKeptSpans {
		t.kept = append(t.kept, spans...)
	}
}

// union returns the length of the union of the spans' intervals
// clipped to [lo, hi].
func union(ss []span, lo, hi int64) int64 {
	if len(ss) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ss))
	for _, s := range ss {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// mean returns the mean duration of the named spans (0 if none).
func (t *tracer) mean(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.names[name]
	if st == nil || st.count == 0 {
		return 0
	}
	return st.total / time.Duration(st.count)
}

// coverage is the share of op wall time the root's children cover.
func (t *tracer) coverage() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wall == 0 {
		return 0
	}
	return float64(t.covered) / float64(t.wall)
}

// report prints each layer's self time per op and share of op wall
// time, and the children's coverage of the op.
func (t *tracer) report(w io.Writer, workload string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ops == 0 {
		return
	}
	names := make([]string, 0, len(t.names))
	for n := range t.names {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return t.names[names[i]].self > t.names[names[j]].self })
	fmt.Fprintf(w, "trace %s: %d ops, child spans cover %.1f%% of op wall time\n",
		workload, t.ops, 100*float64(t.covered)/float64(t.wall))
	fmt.Fprintf(w, "  %-40s %10s %14s %14s %8s\n", "span", "calls/op", "mean_us", "self_us/op", "self%")
	for _, n := range names {
		st := t.names[n]
		fmt.Fprintf(w, "  %-40s %10.2f %14.2f %14.2f %7.2f%%\n", n,
			float64(st.count)/float64(t.ops),
			float64(st.total.Microseconds())/float64(st.count),
			float64(st.self.Nanoseconds())/1e3/float64(t.ops),
			100*float64(st.self)/float64(t.wall))
	}
}

// write saves the kept spans as bench/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	t.mu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Ops      int    `json:"ops"`
		Spans    []span `json:"spans"`
	}{workload, t.ops, t.kept}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
