package main

import (
	"math"
	"testing"
	"time"
)

// TestHostSpeedScalesByNearbyProbes checks that an operation is scaled by
// the probes around it, not by those of another stretch of the run, and
// that losing a CPU scales a parallel workload by the loss alone.
func TestHostSpeedScalesByNearbyProbes(t *testing.T) {
	const us = time.Microsecond
	var samples []probeSample
	for i := 0; i < 60; i++ {
		s := probeSample{at: time.Duration(i) * probeEvery, one: 500 * us, all: 500 * us} // reference
		switch {
		case i >= 40:
			s.all = 1000 * us // one of the CPUs taken away
		case i >= 20:
			s.one, s.all = 1000*us, 1000*us // every thread at half speed
		}
		samples = append(samples, s)
	}
	h := newHostSpeed(samples)
	for _, c := range []struct {
		at   time.Duration
		want float64
	}{
		{0, 1},
		{500 * time.Millisecond, 1},
		{3 * time.Second, math.Pow(0.5, probeExponent)},
		{5 * time.Second, 0.5},
		{time.Hour, 0.5},
	} {
		if got := h.scaleAt(c.at); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("scaleAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	// Median probes of the whole phase: one 500 us, all 1000 us.
	if got := h.overall; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("overall = %v, want 0.5", got)
	}
	if got := newHostSpeed(nil).scaleAt(time.Second); got != 1 {
		t.Errorf("a phase without probes scales by %v, want 1", got)
	}
}
