// Package health is the per-replica health fabric of the shard layer:
// a small state machine driven by a circuit breaker plus an EWMA
// latency tracker, shared by every lease goroutine that drives the
// same replica.
//
// Each replica moves through
//
//	Healthy ──failure──▶ Degraded ──breaker trips──▶ Quarantined
//	   ▲                    │                            │ probe due
//	   │                    ▼                            ▼
//	   └──probe succeeds── HalfOpen ◀────one lease────────┘
//
// The breaker trips on either of two signals: TripAfter consecutive
// failures, or a windowed error rate of at least TripRate over the
// last Window outcomes (once MinSamples outcomes exist — a single
// early failure must not condemn a replica). A quarantined replica
// receives no leases until its probe interval lapses; the first caller
// of Allow then claims the half-open slot and carries exactly one
// probe lease. A successful probe closes the breaker (Healthy, full
// reset); a failed one re-quarantines with a doubled interval, and
// MaxProbes consecutive probe failures mark the tracker exhausted so
// the caller can retire the replica for the run instead of probing a
// corpse forever.
//
// The tracker also maintains an EWMA of successful lease latencies —
// the adaptive baseline the coordinator's hedging compares outstanding
// leases against. All methods take explicit timestamps so callers (and
// tests) control the clock; the zero Config is usable.
package health

import (
	"fmt"
	"sync"
	"time"
)

// State is a replica's current health classification.
type State uint8

const (
	// Healthy replicas take leases freely.
	Healthy State = iota
	// Degraded replicas have recent failures below the trip threshold;
	// they still take leases, but one more bad streak quarantines them.
	Degraded
	// Quarantined replicas take no leases until their probe interval
	// lapses.
	Quarantined
	// HalfOpen marks a quarantined replica with its single probe lease
	// in flight: success closes the breaker, failure re-quarantines.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	case HalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("health.State(%d)", uint8(s))
}

// Config tunes a Tracker. The zero value selects every default.
type Config struct {
	// TripAfter is the consecutive-failure count that opens the breaker
	// (default 4).
	TripAfter int
	// Window is the ring of recent lease outcomes the error-rate signal
	// looks at (default 16).
	Window int
	// MinSamples is the least outcomes the window must hold before the
	// error-rate signal may trip (default 8).
	MinSamples int
	// TripRate is the windowed error rate in [0,1] that opens the
	// breaker (default 0.5).
	TripRate float64
	// ProbeAfter is the first quarantine interval before a half-open
	// probe (default 250ms); it doubles per consecutive failed probe up
	// to ProbeAfterMax (default 8×ProbeAfter).
	ProbeAfter    time.Duration
	ProbeAfterMax time.Duration
	// MaxProbes is the consecutive failed half-open probes after which
	// the tracker reports Exhausted (default 2).
	MaxProbes int
	// Alpha is the EWMA smoothing factor for lease latency in (0,1]
	// (default 0.3).
	Alpha float64
}

func (c Config) withDefaults() Config {
	if c.TripAfter <= 0 {
		c.TripAfter = 4
	}
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.TripRate <= 0 || c.TripRate > 1 {
		c.TripRate = 0.5
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = 250 * time.Millisecond
	}
	if c.ProbeAfterMax <= 0 {
		c.ProbeAfterMax = 8 * c.ProbeAfter
	}
	if c.MaxProbes <= 0 {
		c.MaxProbes = 2
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	return c
}

// Counters is a snapshot of a tracker's transition counters.
type Counters struct {
	// Successes / Failures count recorded lease outcomes.
	Successes, Failures uint64
	// Trips counts breaker openings (any state → Quarantined).
	Trips uint64
	// Probes counts half-open entries (Quarantined → HalfOpen).
	Probes uint64
	// Closes counts probe successes (HalfOpen → Healthy).
	Closes uint64
}

// Add folds another snapshot into c (fabric-level aggregation).
func (c *Counters) Add(o Counters) {
	c.Successes += o.Successes
	c.Failures += o.Failures
	c.Trips += o.Trips
	c.Probes += o.Probes
	c.Closes += o.Closes
}

// Tracker is one replica's health state. Safe for concurrent use by
// every lease goroutine driving the replica (pipelined transports
// share one tracker).
type Tracker struct {
	cfg Config

	mu           sync.Mutex
	state        State
	consecFails  int
	failedProbes int
	probeDue     time.Time // Quarantined: earliest half-open entry
	retired      bool

	// windowed outcomes: ring of booleans (true = failure)
	ring  []bool
	ringN int // filled entries
	ringI int // next write index

	ewma lat

	counters Counters
}

// lat is an EWMA over latency samples in nanoseconds.
type lat struct {
	v       float64
	samples uint64
}

func (l *lat) observe(alpha float64, d time.Duration) {
	if d < 0 {
		d = 0
	}
	if l.samples == 0 {
		l.v = float64(d)
	} else {
		l.v = alpha*float64(d) + (1-alpha)*l.v
	}
	l.samples++
}

// New returns a tracker over cfg (zero value = defaults), starting
// Healthy.
func New(cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	return &Tracker{cfg: cfg, ring: make([]bool, cfg.Window)}
}

// State reports the current classification.
func (t *Tracker) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// EWMA reports the smoothed successful-lease latency (0 until the
// first success).
func (t *Tracker) EWMA() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ewma.samples == 0 {
		return 0
	}
	return time.Duration(t.ewma.v)
}

// ConsecutiveFailures reports the current failure streak — the
// caller's backoff exponent.
func (t *Tracker) ConsecutiveFailures() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.consecFails
}

// Counters snapshots the transition counters.
func (t *Tracker) Counters() Counters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters
}

// Exhausted reports whether MaxProbes consecutive half-open probes
// failed — the signal to retire the replica rather than keep probing.
func (t *Tracker) Exhausted() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failedProbes >= t.cfg.MaxProbes
}

// Retire marks the tracker retired and reports whether this call was
// the first to do so — the once-guard that keeps several lease
// goroutines sharing one tracker from multiply counting the loss.
func (t *Tracker) Retire() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.retired {
		return false
	}
	t.retired = true
	return true
}

// AbandonProbe returns a claimed half-open slot unused: the caller got
// no lease to probe with (run over, transport removed), or its probe
// lease lost a hedge race and was cancelled. The tracker
// re-quarantines with the probe immediately due again, and the claim
// is uncounted — an abandoned probe is not an attempt.
func (t *Tracker) AbandonProbe(now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != HalfOpen {
		return
	}
	t.state = Quarantined
	t.probeDue = now
	if t.counters.Probes > 0 {
		t.counters.Probes--
	}
}

// Reset clears the per-run retirement budget — the failed-probe count
// and the retire guard — while keeping the breaker state, window and
// EWMA. A replica retired in one run is probed afresh by the next
// instead of staying dead forever.
func (t *Tracker) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failedProbes = 0
	t.retired = false
	if t.state == HalfOpen {
		// A probe claimed by a previous run's drive goroutine resolves
		// nowhere now; make the slot claimable again.
		t.state = Quarantined
	}
}

// Allow reports whether the replica may take a lease now. Healthy and
// Degraded replicas always may; a Quarantined replica may only once
// its probe interval lapsed, and the first allowed caller claims the
// single half-open probe slot (concurrent callers are held off until
// the probe resolves). When refused, wait is the suggested sleep
// before asking again.
func (t *Tracker) Allow(now time.Time) (ok bool, wait time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch t.state {
	case Healthy, Degraded:
		return true, 0
	case HalfOpen:
		// A probe is already in flight; wait for it to resolve.
		return false, t.cfg.ProbeAfter
	default: // Quarantined
		if now.Before(t.probeDue) {
			return false, t.probeDue.Sub(now)
		}
		t.state = HalfOpen
		t.counters.Probes++
		return true, 0
	}
}

// Success records a completed lease and its latency: the EWMA absorbs
// the sample, the failure streak resets, a half-open probe closes the
// breaker, and a degraded replica recovers once the windowed error
// rate falls back under the trip threshold.
func (t *Tracker) Success(now time.Time, latency time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters.Successes++
	t.ewma.observe(t.cfg.Alpha, latency)
	t.push(false)
	t.consecFails = 0
	switch t.state {
	case HalfOpen:
		t.state = Healthy
		t.counters.Closes++
		t.failedProbes = 0
		t.resetWindow()
	case Degraded:
		if t.errorRate() < t.cfg.TripRate {
			t.state = Healthy
		}
	case Quarantined:
		// A lease granted before the trip landed after it; credit the
		// outcome but let the quarantine stand — probes decide re-entry.
	}
}

// Failure records a failed (or expired) lease outcome and reports
// whether this failure tripped the breaker (a state transition into
// Quarantined). A failed half-open probe re-quarantines with a doubled
// interval.
func (t *Tracker) Failure(now time.Time) (tripped bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters.Failures++
	t.push(true)
	t.consecFails++
	switch t.state {
	case HalfOpen:
		t.failedProbes++
		t.quarantineLocked(now)
		return true
	case Quarantined:
		return false
	}
	if t.consecFails >= t.cfg.TripAfter ||
		(t.ringN >= t.cfg.MinSamples && t.errorRate() >= t.cfg.TripRate) {
		t.quarantineLocked(now)
		return true
	}
	t.state = Degraded
	return false
}

// quarantineLocked opens the breaker: the probe interval doubles per
// consecutive failed probe, capped at ProbeAfterMax.
func (t *Tracker) quarantineLocked(now time.Time) {
	t.state = Quarantined
	t.counters.Trips++
	iv := t.cfg.ProbeAfter
	for i := 0; i < t.failedProbes && iv < t.cfg.ProbeAfterMax; i++ {
		iv *= 2
	}
	if iv > t.cfg.ProbeAfterMax {
		iv = t.cfg.ProbeAfterMax
	}
	t.probeDue = now.Add(iv)
}

func (t *Tracker) push(failure bool) {
	t.ring[t.ringI] = failure
	t.ringI = (t.ringI + 1) % len(t.ring)
	if t.ringN < len(t.ring) {
		t.ringN++
	}
}

func (t *Tracker) resetWindow() {
	t.ringN, t.ringI = 0, 0
}

// errorRate is the failure fraction of the filled window (0 when
// empty). Caller holds mu.
func (t *Tracker) errorRate() float64 {
	if t.ringN == 0 {
		return 0
	}
	fails := 0
	for i := 0; i < t.ringN; i++ {
		if t.ring[i] {
			fails++
		}
	}
	return float64(fails) / float64(t.ringN)
}

// Ewma is a standalone concurrency-safe EWMA over durations — the
// coordinator's cross-replica lease-latency baseline for hedging.
type Ewma struct {
	mu    sync.Mutex
	alpha float64
	l     lat
}

// NewEwma returns an EWMA with the given smoothing factor (out-of-range
// values select the default 0.3).
func NewEwma(alpha float64) *Ewma {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	return &Ewma{alpha: alpha}
}

// Observe folds one latency sample in.
func (e *Ewma) Observe(d time.Duration) {
	e.mu.Lock()
	e.l.observe(e.alpha, d)
	e.mu.Unlock()
}

// Value reports the current smoothed latency (0 before any sample).
func (e *Ewma) Value() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.l.samples == 0 {
		return 0
	}
	return time.Duration(e.l.v)
}

// Samples reports how many observations the EWMA absorbed.
func (e *Ewma) Samples() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.l.samples
}
