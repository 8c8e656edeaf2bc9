// Package engine is the shared parallel batch-evaluation backend of the
// Section VI analysis workflows. Every sweep, sensitivity study, Monte
// Carlo run and figure runner reduces to the same shape of work — "apply
// a pure evaluation to N independent design points" — and this package
// runs that shape across a worker pool with:
//
//   - index-addressed results: point i's result lands in slot i
//     regardless of worker scheduling, so parallel output is
//     byte-identical to the serial walk; workers claim short runs of
//     consecutive indices, so light points pay one claim per run,
//   - context cancellation with fail-fast error collection (the lowest
//     observed failing index wins), and
//   - an optional progress callback for long-running CLI sweeps.
//
// Compiled plans (internal/kernel, internal/explore) run on top of this
// pool: RunScratchRelease carries their per-worker scratch arenas
// (packaging estimators, sandbox databases, operational-term memos) and
// releases each one's counters when its worker finishes, and RunBlocks
// hands Gray-code walkers the contiguous index ranges their incremental
// evaluation depends on.
package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"ecochip/internal/core"
	"ecochip/internal/tech"
)

// Options configures a batch run; build one from Option values.
type Options struct {
	workers  int
	progress func(done, total int)
}

// Option mutates Options.
type Option func(*Options)

// WithWorkers sets the worker count. Zero or negative selects
// GOMAXPROCS; one gives a serial run (useful as a reference in tests).
func WithWorkers(n int) Option { return func(o *Options) { o.workers = n } }

// WithProgress registers a callback invoked after every completed point
// with (completed, total). Calls are serialized; done is monotonically
// increasing.
func WithProgress(fn func(done, total int)) Option { return func(o *Options) { o.progress = fn } }

func buildOptions(opts []Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

func (o *Options) workerCount(n int) int {
	w := o.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// indexedErr pairs a task error with its point index so fail-fast error
// reporting prefers the earliest failure observed: among the errors
// that actually surfaced before cancellation stopped the batch, the
// lowest index wins.
type indexedErr struct {
	index int
	err   error
}

// Run evaluates fn(ctx, i) for i in [0, n) across the worker
// pool and returns the results index-addressed. On the first task error
// the context handed to the tasks is cancelled and the batch fails
// fast, returning the lowest-index error observed (cancellation may
// skip a lower-index point that would also have failed, so which error
// surfaces can depend on scheduling — only successful results are
// guaranteed scheduling-independent); a cancelled parent context
// returns ctx.Err(). A panic inside a task is recovered into a
// *PanicError (point index + stack) and fails the batch like any task
// error, so one poisoned evaluation cannot take down a long-lived
// serving process.
func Run[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error), opts ...Option) ([]T, error) {
	return RunScratchRelease(ctx, n,
		func() (struct{}, error) { return struct{}{}, nil }, nil,
		func(ctx context.Context, i int, _ struct{}) (T, error) { return fn(ctx, i) },
		opts...)
}

// RunScratchRelease is Run for evaluators that carry per-worker scratch
// state — reusable report buffers, packaging estimators, floorplan
// arenas — that is too expensive to rebuild per point and must not be
// shared across goroutines. newScratch runs once on each worker
// goroutine before it claims work; fn then receives the worker's
// scratch for every point it evaluates. Each worker's scratch is handed
// to release when the worker finishes (whether the batch succeeded,
// failed or was cancelled), so its counters fold into their owner
// (kernel.ParamPlan.Fold) or it returns to a step-spanning pool
// (kernel.ScratchPool) that keeps its retained state warm for the next
// batch. A nil release is ignored.
//
// Workers claim runs of consecutive indices (see runLen) and check for
// cancellation once per run, so a failure or a cancelled context stops
// each worker within the run it holds; a failure stops its own worker
// at once, and the lowest failing index observed still wins.
func RunScratchRelease[T, S any](ctx context.Context, n int, newScratch func() (S, error), release func(S), fn func(ctx context.Context, i int, scratch S) (T, error), opts ...Option) ([]T, error) {
	o := buildOptions(opts)
	results := make([]T, n)
	if n == 0 {
		return results, ctx.Err()
	}
	workers := o.workerCount(n)

	if workers == 1 {
		// Serial runs stay on the caller's goroutine: no spawn, no
		// derived context, and — decisive for searches that issue many
		// small batches — no per-batch stack regrowth for recursive
		// evaluators. Results and error selection are trivially
		// identical to the one-worker pool.
		scratch, err := safeScratch(newScratch)
		if err != nil {
			return nil, err
		}
		if release != nil {
			defer release(scratch)
		}
		run := runLen(n, 1)
		for lo := 0; lo < n; lo += run {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for i := lo; i < min(lo+run, n); i++ {
				res, err := safeCall(ctx, i, scratch, fn)
				if err != nil {
					return nil, err
				}
				results[i] = res
				if o.progress != nil {
					o.progress(i+1, n)
				}
			}
		}
		return results, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	pool := newPool(cancel, o.progress, n)
	run := runLen(n, workers)
	var next atomic.Int64 // next unclaimed index

	pool.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer pool.wg.Done()
			scratch, err := safeScratch(newScratch)
			if err != nil {
				// A scratch failure poisons the whole run: report it
				// ahead of any task error.
				pool.fail(-1, err)
				return
			}
			if release != nil {
				defer release(scratch)
			}
			for {
				lo := int(next.Add(int64(run))) - run
				if lo >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					return
				}
				for i := lo; i < min(lo+run, n); i++ {
					res, err := safeCall(ctx, i, scratch, fn)
					if err != nil {
						pool.fail(i, err)
						return
					}
					results[i] = res
					pool.step()
				}
			}
		}()
	}
	pool.wg.Wait()

	if err := pool.err(ctx); err != nil {
		return nil, err
	}
	return results, nil
}

// claimsPerWorker is how many runs of indices a worker claims, on
// average, in one batch (see runLen).
const claimsPerWorker = 16

// runLen is the number of consecutive indices a worker of
// RunScratchRelease claims at once: one atomic add and one ctx.Err per
// run, and adjacent result slots written by one worker. A run is a
// claimsPerWorker-th of a worker's fair share, so a long batch of light
// points (Monte Carlo samples) claims rarely, while a short batch of
// heavy points (ecoexp's 32 figures) still claims one index at a time
// and keeps its balance.
func runLen(n, workers int) int {
	return max(1, n/(workers*claimsPerWorker))
}

// RunBlocks partitions [0, n) into one contiguous block per worker and
// invokes fn once per block. It exists for evaluators whose cost
// structure rewards locality — a Gray-code sweep walk is cheap only
// while successive indices stay adjacent, which per-index work stealing
// would destroy. fn must call tick() once per completed point (it feeds
// the WithProgress callback) and should poll ctx between points. A
// block error cancels the run; the error of the lowest-starting failed
// block wins, and fn returns of the cancellation cause itself (the
// derived ctx's Err) are not recorded as failures. A panic inside fn is
// recovered into a *PanicError carrying the block range and stack.
func RunBlocks(ctx context.Context, n int, fn func(ctx context.Context, lo, hi int, tick func()) error, opts ...Option) error {
	o := buildOptions(opts)
	if n == 0 {
		return ctx.Err()
	}
	workers := o.workerCount(n)

	if workers == 1 {
		// Serial walks stay on the caller's goroutine (see the
		// RunScratchRelease serial path for the rationale).
		done := 0
		tick := func() {
			if o.progress != nil {
				done++
				o.progress(done, n)
			}
		}
		return safeBlock(ctx, 0, n, tick, fn)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	pool := newPool(cancel, o.progress, n)
	pool.wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		go func() {
			defer pool.wg.Done()
			if err := safeBlock(ctx, lo, hi, pool.step, fn); err != nil {
				// Only this run's own cancellation is benign to swallow
				// (another block already failed, or the parent was
				// cancelled — pool.err reports the cause). An error that
				// merely wraps a context sentinel from elsewhere (e.g. an
				// evaluator's inner timeout) must still fail the run, or
				// it would return success with unfilled result slots.
				if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
					return
				}
				pool.fail(lo, err)
			}
		}()
	}
	pool.wg.Wait()
	return pool.err(ctx)
}

// pool is the shared bookkeeping of one batch run: fail-fast error
// selection and serialized progress.
type pool struct {
	cancel   context.CancelFunc
	progress func(done, total int)
	total    int

	mu       sync.Mutex // guards firstErr and done
	firstErr *indexedErr
	done     int
	wg       sync.WaitGroup
}

func newPool(cancel context.CancelFunc, progress func(done, total int), total int) *pool {
	return &pool{cancel: cancel, progress: progress, total: total}
}

func (p *pool) fail(i int, err error) {
	p.mu.Lock()
	if p.firstErr == nil || i < p.firstErr.index {
		p.firstErr = &indexedErr{i, err}
	}
	p.mu.Unlock()
	p.cancel()
}

func (p *pool) step() {
	if p.progress == nil {
		return
	}
	// The callback runs under the mutex so invocations are serialized
	// and done is strictly increasing, as WithProgress promises.
	p.mu.Lock()
	p.done++
	p.progress(p.done, p.total)
	p.mu.Unlock()
}

func (p *pool) err(ctx context.Context) error {
	if p.firstErr != nil {
		return p.firstErr.err
	}
	return ctx.Err()
}

// EvaluateBatch evaluates every system against the database across the
// worker pool. results[i] is systems[i].Evaluate(db) — the same call, so
// the output is byte-identical to evaluating the systems in order.
func EvaluateBatch(ctx context.Context, db *tech.DB, systems []*core.System, opts ...Option) ([]*core.Report, error) {
	return Run(ctx, len(systems), func(_ context.Context, i int) (*core.Report, error) {
		return systems[i].Evaluate(db)
	}, opts...)
}
