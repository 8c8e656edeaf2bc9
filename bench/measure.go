package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase is the outcome of one closed-loop measured phase.
type phase struct {
	ops, failed int
	// lat holds each operation's latency scaled to the reference host
	// speed by the probes around it (see probe.go).
	lat []time.Duration
	// wall excludes the pauses for the probes; wall and cpu are raw.
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	speed hostSpeed
	// rssMiB is the process's peak RSS when the phase ended.
	rssMiB float64
}

// sample is one operation's raw latency and the offset of its midpoint
// from the start of the phase.
type sample struct{ lat, mid time.Duration }

// sampleBlock is the capacity of one block of a sampleLog.
const sampleBlock = 4096

// sampleLog stores a phase's samples in fixed-size blocks: a fast
// workload records hundreds of thousands, and a growing slice would copy
// them and leave garbage that moves the run's peak RSS with its
// operation count.
type sampleLog struct{ blocks [][]sample }

func (l *sampleLog) add(s sample) {
	if n := len(l.blocks); n == 0 || len(l.blocks[n-1]) == sampleBlock {
		l.blocks = append(l.blocks, make([]sample, 0, sampleBlock))
	}
	b := &l.blocks[len(l.blocks)-1]
	*b = append(*b, s)
}

// maxReportedErrors bounds the failure messages printed per phase.
const maxReportedErrors = 5

// runPhase drives the instance for dur with the workload's closed-loop
// clients: each draws its next operation from the deck only after the
// previous one completed. An operation's latency is the time spent in
// its items' calls; checking results against the goldens happens after
// the clock stops. A failed call or a golden mismatch fails the
// operation.
func runPhase(ctx context.Context, w *workload, inst instance, d *deck, dur time.Duration, gold goldens, tr *tracer, log io.Writer) phase {
	items := inst.catalogue()
	var mu sync.Mutex
	var ph phase
	reported := 0
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		ph.failed++
		if reported < maxReportedErrors {
			reported++
			fmt.Fprintf(log, "%s: operation failed: %v\n", w.name, err)
		}
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	threads := 1
	if w.parallelOps {
		threads = runtime.GOMAXPROCS(0)
	}
	pr := startProber(threads, start)

	logs := make([]sampleLog, w.clients)
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				pr.gate.RLock()
				began := time.Since(start)
				l, err := runOp(ctx, items, d.draw(), gold, w.name, tr)
				pr.gate.RUnlock()
				logs[c].add(sample{l, began + l/2})
				if err != nil {
					fail(err)
				}
			}
		}()
	}
	wg.Wait()
	speed, paused := pr.finish()
	ph.wall = time.Since(start) - paused
	ph.speed = speed
	ph.cpu = cpuTime() - cpu0
	ph.rssMiB = peakRSSMiB()
	runtime.ReadMemStats(&ms1)
	ph.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	for _, l := range logs {
		for _, b := range l.blocks {
			for _, x := range b {
				ph.lat = append(ph.lat, time.Duration(float64(x.lat)*speed.scaleAt(x.mid)))
			}
		}
	}
	ph.ops = len(ph.lat)
	return ph
}

// runOp issues one operation's items in order, then checks each result
// against its golden hash.
func runOp(ctx context.Context, items []item, op []int, gold goldens, workload string, tr *tracer) (time.Duration, error) {
	ot := tr.newOp()
	folds := make([]fold, 0, len(op))
	var lat time.Duration
	var err error
	for _, ix := range op {
		t0 := time.Now()
		f, e := items[ix].run(ctx, ot)
		lat += time.Since(t0)
		if e != nil {
			err = fmt.Errorf("%s: %w", items[ix].key, e)
			break
		}
		folds = append(folds, f)
	}
	tr.finish(ot)
	if err != nil {
		return lat, err
	}
	for i, f := range folds {
		if err := gold.check(workload, items[op[i]].key, f); err != nil {
			return lat, err
		}
	}
	return lat, nil
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// percentile returns the nearest-rank p-quantile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// sampleFloors are the least samples a percentile needs so that at
// least ten lie beyond it.
var sampleFloors = map[string]int{"latency_p90_ms": 100, "latency_p99_ms": 1000}

// endToEnd derives the end-to-end metrics of a measured phase, its
// timings scaled to the reference host speed. It returns an error naming
// any percentile below its sample floor.
func endToEnd(w *workload, ph phase, setup time.Duration) (map[string]metric, error) {
	sorted := append([]time.Duration(nil), ph.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := max(ph.ops, 1)
	k := ph.speed.overall
	m := map[string]metric{
		"setup_s":         {k * setup.Seconds(), "s"},
		"ops_per_s":       {float64(ph.ops) / ph.wall.Seconds() / k, "1/s"},
		"latency_p50_ms":  {ms(percentile(sorted, 0.50)), "ms"},
		"latency_p90_ms":  {ms(percentile(sorted, 0.90)), "ms"},
		"latency_p99_ms":  {ms(percentile(sorted, 0.99)), "ms"},
		"cpu_ms_per_op":   {k * ms(ph.cpu) / float64(n), "ms"},
		"alloc_kb_per_op": {float64(ph.alloc) / 1024 / float64(n), "KiB"},
		"rss_peak_mb":     {ph.rssMiB, "MiB"},
		"success_rate":    {float64(ph.ops-ph.failed) / float64(n), "ratio"},
	}
	if ph.ops < sampleFloors["latency_p90_ms"] {
		return m, fmt.Errorf("%d samples, below the %d-sample floor of latency_p90_ms", ph.ops, sampleFloors["latency_p90_ms"])
	}
	if w.p99Floor && ph.ops < sampleFloors["latency_p99_ms"] {
		return m, fmt.Errorf("%d samples, below the %d-sample floor of latency_p99_ms", ph.ops, sampleFloors["latency_p99_ms"])
	}
	return m, nil
}

// quartileValues returns the first quartile, median and third quartile
// by the exclusive method of Python's statistics.quantiles(values, n=4).
func quartileValues(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
