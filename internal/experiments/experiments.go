// Package experiments contains one runner per figure of the ECO-CHIP
// paper's evaluation (Sections V and VI). Each runner regenerates the
// figure's underlying data series as a report.Table, exactly like the
// artifact scripts (fig7.py, fig9.py, ...) of the released tool print the
// raw data behind each plot.
//
// The Registry maps experiment ids ("fig2a", "fig7c", ...) to runners so
// the ecoexp CLI and the benchmark harness can enumerate them.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"ecochip/internal/core"
	"ecochip/internal/engine"
	"ecochip/internal/report"
	"ecochip/internal/tech"
)

// Runner regenerates one figure's data. Experiments whose inner loops
// run on the batch engine honor the Options; the rest ignore them.
type Runner func(db *tech.DB, o Options) (*report.Table, error)

var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// plain adapts a figure runner without analysis knobs to a Runner.
func plain(f func(db *tech.DB) (*report.Table, error)) Runner {
	return func(db *tech.DB, _ Options) (*report.Table, error) { return f(db) }
}

// IDs returns all experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Options tunes how analysis-engine-backed experiments evaluate; the
// zero value is the default evaluation.
type Options struct {
	// Workers caps the evaluation workers (0 = GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives (done, total) evaluation ticks.
	Progress func(done, total int)
	// StatsTo, when non-nil, receives one line of compiled-plan
	// statistics after each analysis run.
	StatsTo io.Writer
}

// engineOpts translates the options into batch-engine options.
func (o Options) engineOpts() []engine.Option {
	opts := []engine.Option{engine.WithWorkers(o.Workers)}
	if o.Progress != nil {
		opts = append(opts, engine.WithProgress(o.Progress))
	}
	return opts
}

// RunWith executes the experiment with the given id under o; the table
// is the same whatever the options.
func RunWith(id string, db *tech.DB, o Options) (*report.Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return r(db, o)
}

// RunAll executes every registered experiment and returns the tables in
// id order.
func RunAll(db *tech.DB) ([]*report.Table, error) {
	return RunAllCtx(context.Background(), db)
}

// RunAllCtx is RunAll with cancellation and engine options. The figure
// runners are independent of each other (each builds its own systems
// against the shared read-only database), so they fan out across the
// batch engine while the output order stays the sorted id order. The
// options and cancellation apply to this fan-out across figures — a
// cancelled context stops figures that have not started; figures
// already running manage their own inner evaluation engines and run to
// completion.
func RunAllCtx(ctx context.Context, db *tech.DB, opts ...engine.Option) ([]*report.Table, error) {
	ids := IDs()
	return engine.Run(ctx, len(ids), func(_ context.Context, i int) (*report.Table, error) {
		t, err := RunWith(ids[i], db, Options{})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", ids[i], err)
		}
		return t, nil
	}, opts...)
}

// evaluateAll batch-evaluates a slice of systems across the worker pool
// — the common inner loop of the per-figure tuple sweeps.
func evaluateAll(db *tech.DB, systems []*core.System) ([]*core.Report, error) {
	return engine.EvaluateBatch(context.Background(), db, systems)
}

// nodeTuples is the technology-combination sweep of Fig. 7: the first
// entry is the 7 nm monolith, the rest are (digital, memory, analog)
// chiplet node assignments.
type nodeTuple struct {
	digital, memory, analog int
	monolithic              bool
}

func (nt nodeTuple) label() string {
	if nt.monolithic {
		return fmt.Sprintf("(%d,%d,%d)-mono", nt.digital, nt.memory, nt.analog)
	}
	return fmt.Sprintf("(%d,%d,%d)", nt.digital, nt.memory, nt.analog)
}

var fig7Tuples = []nodeTuple{
	{7, 7, 7, true},
	{7, 7, 7, false},
	{7, 10, 10, false},
	{7, 10, 14, false},
	{7, 14, 10, false},
	{7, 14, 14, false},
	{10, 10, 10, false},
	{10, 14, 14, false},
	{14, 14, 14, false},
}
