package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The reference machine's speed drifts with its neighbours' load: within
// a quarter of an hour the same sweep operation ran anywhere from 1× to
// 2.3× its fastest time, in stretches of seconds, CPU time per operation
// included, which the guest's steal time does not account for, and the
// guest exposes no hardware counters. No run length averages that away.
// So every probeEvery the clients of a measured phase pause at an
// operation boundary and the benchmark times probeLoop, a fixed loop of
// its own that calls no code of the program: once on one thread and, for
// a workload whose operations fan out over every CPU, once more on every
// CPU at the same time. Each timing is then scaled by
//
//	(probeRefUS / one)^probeExponent × (one / all)
//
// where one and all are median probe times, all taken as one for a
// workload whose operations run on one goroutine. The first factor
// follows the speed of a thread: the workloads slowed down more steeply
// than the loop, their CPU time per operation going as the loop's time
// to a power between 1.8 and 2.5 over forty runs (correlation 0.98 to
// 0.99), hence the exponent. The second follows the share of the CPUs
// the host actually gives at once, which bounds an operation that keeps
// them all busy: with one of two CPUs taken away, the loop on both takes
// twice as long as on one, and so does such an operation.
//
// The medians are those of the probes within probeWindow of an
// operation for its latency, and of all the run's probes for its
// throughput, CPU time and set-up. A metric then reads what it would on
// a host where the loop takes probeRefUS and every CPU is free. The
// probes run while the clients are paused, so a change to the program
// does not move them, except through work the program keeps doing in the
// background, such as a garbage collection in progress.
const (
	probeEvery    = 100 * time.Millisecond
	probeWindow   = 500 * time.Millisecond
	probeRefUS    = 500.0
	probeExponent = 2.0
)

// probeSample is one probe: when it started, measured from the start of
// the phase, and how long the loop took on one thread and on every
// thread at once (zero when not run).
type probeSample struct{ at, one, all time.Duration }

// prober pauses a phase's clients and probes the host every probeEvery.
// Clients hold gate for reading while they run an operation.
type prober struct {
	gate sync.RWMutex
	// threads is the thread count of the second loop; 1 skips it.
	threads    int
	start      time.Time
	stop, done chan struct{}
	// Written by the probe goroutine only, read after done is closed.
	samples []probeSample
	paused  time.Duration
}

func startProber(threads int, start time.Time) *prober {
	p := &prober{threads: threads, start: start, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tk := time.NewTicker(probeEvery)
		defer tk.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tk.C:
			}
			p.gate.Lock()
			t0 := time.Now()
			s := probeSample{at: t0.Sub(p.start), one: timeLoops(1)}
			if p.threads > 1 {
				s.all = timeLoops(p.threads)
			}
			p.paused += time.Since(t0)
			p.gate.Unlock()
			p.samples = append(p.samples, s)
		}
	}()
	return p
}

// finish stops the probes and returns the phase's host speed and the
// wall time the clients spent paused for them.
func (p *prober) finish() (hostSpeed, time.Duration) {
	close(p.stop)
	<-p.done
	return newHostSpeed(p.samples), p.paused
}

// hostSpeed holds a phase's probes in time order and, for each, the
// scale factor of the probes within probeWindow of it.
type hostSpeed struct {
	at    []time.Duration
	scale []float64
	// overall is the scale factor of all the phase's probes; oneUS is
	// its median single-thread probe time.
	overall, oneUS float64
}

func newHostSpeed(samples []probeSample) hostSpeed {
	one := make([]float64, len(samples))
	all := make([]float64, len(samples))
	for i, s := range samples {
		one[i] = float64(s.one.Nanoseconds()) / 1e3
		all[i] = float64(s.all.Nanoseconds()) / 1e3
	}
	h := hostSpeed{overall: scaleOf(one, all), oneUS: probeRefUS}
	if len(one) > 0 {
		h.oneUS = median(one)
	}
	lo, hi := 0, 0
	for _, s := range samples {
		for samples[lo].at < s.at-probeWindow {
			lo++
		}
		for hi < len(samples) && samples[hi].at <= s.at+probeWindow {
			hi++
		}
		h.at = append(h.at, s.at)
		h.scale = append(h.scale, scaleOf(one[lo:hi], all[lo:hi]))
	}
	return h
}

// scaleOf is the scale factor of a set of probes, 1 if there are none.
func scaleOf(one, all []float64) float64 {
	if len(one) == 0 {
		return 1
	}
	m := median(one)
	k := math.Pow(probeRefUS/m, probeExponent)
	if a := median(all); a > 0 {
		k *= m / a
	}
	return k
}

// scaleAt is the scale factor of a time measured around offset t: that
// of the probe nearest to t.
func (h hostSpeed) scaleAt(t time.Duration) float64 {
	if len(h.at) == 0 {
		return h.overall
	}
	i := sort.Search(len(h.at), func(i int) bool { return h.at[i] >= t })
	if i == len(h.at) || (i > 0 && t-h.at[i-1] < h.at[i]-t) {
		i--
	}
	return h.scale[i]
}

// probeSink keeps the loops' results live.
var probeSink uint64

// timeLoops runs probeLoop on n goroutines at once and returns the time
// until the last one finished.
func timeLoops(n int) time.Duration {
	out := make([]uint64, n)
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[g] = probeLoop(uint64(g + 1))
		}()
	}
	wg.Wait()
	took := time.Since(t0)
	for _, v := range out {
		probeSink += v
	}
	return took
}

// probeLoop is a fixed integer loop over a 32 KiB table, about 500 µs on
// the reference machine.
func probeLoop(seed uint64) uint64 {
	var table [4096]uint64
	x := seed
	for i := 0; i < 300_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		table[x>>52] += x
	}
	return table[x>>52]
}
