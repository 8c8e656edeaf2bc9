package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"ecochip/internal/explore"
	"ecochip/internal/tech"
)

// A saturated family sheds: with one stream slot held open by a
// blocked consumer, the next stream request queues out and fails with
// the typed overload error, while the held request still completes.
func TestAdmissionShedsWhenSaturated(t *testing.T) {
	db := tech.Default()
	sys := ga102(t, db)
	srv := NewServer(db, Config{MaxInflight: 1, QueueTimeout: 10 * time.Millisecond})
	req := &SweepRequest{System: sys, Nodes: ga102Nodes, Objectives: []string{"embodied", "cost"}}

	unblock := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := srv.StreamFront(context.Background(), req, func(explore.FrontSnapshot) error {
			<-unblock
			return nil
		})
		done <- err
	}()

	// Wait for the stream to actually hold its slot (the first snapshot
	// blocks inside emit).
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Admission.Streams.Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream request never occupied its admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := srv.StreamFront(context.Background(), req, func(explore.FrontSnapshot) error { return nil })
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated stream = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("saturated stream error %T, want *OverloadError", err)
	}
	if oe.Family != "stream" || oe.Limit != 1 || oe.RetryAfter < time.Second {
		t.Errorf("overload error = %+v, want family stream, limit 1, retry >= 1s", oe)
	}

	// Families are independent: the sweep gate is untouched.
	if _, err := srv.Sweep(context.Background(), &SweepRequest{System: sys, Nodes: ga102Nodes}); err != nil {
		t.Fatalf("sweep during stream saturation: %v", err)
	}

	close(unblock)
	if err := <-done; err != nil {
		t.Fatalf("held stream: %v", err)
	}
	st := srv.Stats().Admission
	if st.Streams.Shed != 1 || st.Streams.Admitted != 1 {
		t.Errorf("stream gate stats = %+v, want 1 admitted / 1 shed", st.Streams)
	}
	if st.Streams.Inflight != 0 {
		t.Errorf("%d in flight after completion, want 0", st.Streams.Inflight)
	}
}

// A caller that gives up while queued gets its own context error, not
// an overload verdict — and is not counted as shed.
func TestAdmissionQueuedCallerCancel(t *testing.T) {
	g := newGate("sweep", 1, time.Hour)
	release, err := g.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := g.acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled queue wait = %v, want DeadlineExceeded", err)
	}
	if st := g.stats(); st.Shed != 0 {
		t.Errorf("stats = %+v, want no shed for a caller-side cancel", st)
	}
}

// Negative MaxInflight disables admission entirely.
func TestAdmissionDisabled(t *testing.T) {
	g := newGate("sweep", -1, 0)
	for i := 0; i < 200; i++ {
		release, err := g.acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer release()
	}
	if st := g.stats(); st.Shed != 0 || st.Admitted != 0 {
		t.Errorf("disabled gate stats = %+v, want all zero", st)
	}
}

func TestRetryAfterRounding(t *testing.T) {
	for _, tc := range []struct {
		timeout time.Duration
		want    time.Duration
	}{
		{0, time.Second},
		{100 * time.Millisecond, time.Second},
		{time.Second, time.Second},
		{1500 * time.Millisecond, 2 * time.Second},
	} {
		if got := retryAfter(tc.timeout); got != tc.want {
			t.Errorf("retryAfter(%v) = %v, want %v", tc.timeout, got, tc.want)
		}
	}
}

// The HTTP mapping: a shed request is a 429 carrying Retry-After in
// whole seconds, and saturation of one family leaves the others
// serving.
func TestHandlerOverloadIs429(t *testing.T) {
	db := tech.Default()
	sys := ga102(t, db)
	srv := NewServer(db, Config{MaxInflight: 1, QueueTimeout: 5 * time.Millisecond})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	// Saturate the sweep family directly (white-box: same gate the
	// handler consults) so the HTTP arrival finds no slot.
	release, err := srv.admit.sweep.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", &SweepRequest{System: sys, Nodes: ga102Nodes})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated sweep status = %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()

	// The what-if family is unaffected (its own gate): a validation
	// error, not a shed.
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/whatif", &WhatIfRequest{System: sys})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("what-if during sweep saturation = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	release()
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/sweep", &SweepRequest{System: sys, Nodes: ga102Nodes})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release sweep status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	if st := srv.Stats().Admission; st.Sweeps.Shed != 1 {
		t.Errorf("sweep gate stats = %+v, want exactly the one shed", st.Sweeps)
	}
}
