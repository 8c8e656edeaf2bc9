package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"ecochip/internal/cost"
	"ecochip/internal/explore"
	"ecochip/internal/serve"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// startServer runs the binary's serve loop on a loopback port and
// returns its base URL; shutdown (and its error) is checked on cleanup.
func startServer(t *testing.T, cfg serve.Config) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		done <- run(ctx, "127.0.0.1:0", cfg, &out, func(addr string) { addrc <- addr })
	}()
	var addr string
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("server exited before binding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not bind")
	}
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("shutdown: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("server did not shut down")
		}
		if !strings.Contains(out.String(), addr) {
			t.Errorf("banner %q does not announce %s", out.String(), addr)
		}
	})
	return "http://" + addr
}

func post[T any](t *testing.T, url string, body any) *T {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: status %d (%s)", url, resp.StatusCode, e["error"])
	}
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// The served answers must carry the exact bits of the facade-level
// reference paths (compiled sweep, direct evaluation, one-shot
// disaggregation).
func TestEcoserveSmoke(t *testing.T) {
	db := tech.Default()
	sys := testcases.GA102(db, 7, 14, 10, false)
	nodes := []int{7, 10, 14}
	base := startServer(t, serve.Config{})

	// Sweep vs the compiled plan.
	plan, err := explore.Compile(sys, db, nodes, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sweep := post[serve.SweepResponse](t, base+"/v1/sweep", &serve.SweepRequest{System: sys, Nodes: nodes})
	if len(sweep.Points) != len(want) {
		t.Fatalf("sweep: %d points, want %d", len(sweep.Points), len(want))
	}
	for i := range want {
		if math.Float64bits(sweep.Points[i].EmbodiedKg) != math.Float64bits(want[i].EmbodiedKg) ||
			math.Float64bits(sweep.Points[i].CostUSD) != math.Float64bits(want[i].CostUSD) {
			t.Fatalf("sweep point %d diverged: %+v vs %+v", i, sweep.Points[i], want[i])
		}
	}

	// What-if swap vs the matching sweep point.
	swapTo := 10
	wi := post[serve.WhatIfResponse](t, base+"/v1/whatif", &serve.WhatIfRequest{
		System: sys, Nodes: nodes, Swap: map[string]int{sys.Chiplets[0].Name: swapTo},
	})
	if wi.Point == nil {
		t.Fatalf("what-if carried no point: %+v", wi)
	}
	assignment := []int{swapTo, sys.Chiplets[1].NodeNm, sys.Chiplets[2].NodeNm}
	found := false
	for _, p := range want {
		if fmt.Sprint(p.Nodes) == fmt.Sprint(assignment) {
			found = true
			if math.Float64bits(p.TotalKg) != math.Float64bits(wi.Point.TotalKg) {
				t.Fatalf("swap point diverged: %+v vs %+v", wi.Point, p)
			}
		}
	}
	if !found {
		t.Fatalf("assignment %v absent from reference sweep", assignment)
	}

	// Disaggregation vs the one-shot explore entry point.
	epyc, err := testcases.EPYC(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantPlan, err := explore.DisaggregateCtx(context.Background(), epyc, db)
	if err != nil {
		t.Fatal(err)
	}
	dis := post[serve.DisaggregateResponse](t, base+"/v1/disaggregate", &serve.DisaggregateRequest{System: epyc})
	if math.Float64bits(dis.EmbodiedKg) != math.Float64bits(wantPlan.EmbodiedKg) || dis.Steps != wantPlan.Steps {
		t.Fatalf("disaggregate diverged: %+v vs %+v", dis, wantPlan)
	}

	// Stats reflect one compile per family.
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Sweeps.Builds != 1 || stats.Disaggregates.Builds != 1 {
		t.Fatalf("stats = %+v, want one sweep and one disaggregate build", stats)
	}
}

func TestEcoserveBadAddr(t *testing.T) {
	err := run(context.Background(), "256.256.256.256:99999", serve.Config{}, &bytes.Buffer{}, nil)
	if err == nil {
		t.Fatal("bad address accepted")
	}
}

// A client that stalls mid-header is disconnected once
// readHeaderTimeout passes, not held open indefinitely.
func TestEcoserveStalledHeaderCutOff(t *testing.T) {
	t.Parallel()
	base := startServer(t, serve.Config{})
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/sweep HTTP/1.1\r\nHost: ecoserve\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept the stalled connection open: %v", err)
	}
	if elapsed := time.Since(start); elapsed < readHeaderTimeout-time.Second {
		t.Errorf("connection closed after %v, before the %v header timeout", elapsed, readHeaderTimeout)
	}
}
