package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"ecochip/internal/shard"
	"ecochip/internal/shard/netx"
	"ecochip/internal/tech"
)

// startReplica runs an in-process netx replica server on an ephemeral
// port, returning its address and a stop func that drains it.
func startReplica(t *testing.T) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- netx.ListenAndServe(ctx, "127.0.0.1:0", shard.NewCatalog(), tech.Default(),
			netx.Options{DrainTimeout: 5 * time.Second}, func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("replica server: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("replica server never came up")
	}
	stop := func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("replica server: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("replica server did not drain")
		}
	}
	return addr, stop
}

// The TCP-sharded sweep path (-shard-connect against in-process
// replica daemons, pipelined leases) must print the exact table of the
// in-process engine path, and -progress must surface the shard
// protocol, wire and package-memo counters.
func TestRunSweepConnectedMatchesEngine(t *testing.T) {
	dir := exampleDir(t)
	var plain strings.Builder
	if err := run(dir, cfgFor("sweep"), &plain, nil); err != nil {
		t.Fatal(err)
	}

	addr1, stop1 := startReplica(t)
	defer stop1()
	addr2, stop2 := startReplica(t)
	defer stop2()

	cfg := cfgFor("sweep")
	cfg.shardConnect = addr1 + "," + addr2
	cfg.shardPipeline = 2
	cfg.progress = true
	var out, stats strings.Builder
	if err := run(dir, cfg, &out, &stats); err != nil {
		t.Fatal(err)
	}
	if out.String() != plain.String() {
		t.Errorf("connected and engine sweeps diverge:\n%s\nvs\n%s", out.String(), plain.String())
	}
	if !strings.Contains(stats.String(), "shard:") || !strings.Contains(stats.String(), "leases granted") {
		t.Errorf("connected progress run missing shard statistics:\n%s", stats.String())
	}
	if !strings.Contains(stats.String(), "wire:") || !strings.Contains(stats.String(), "dials") {
		t.Errorf("connected progress run missing wire statistics:\n%s", stats.String())
	}
	if !strings.Contains(stats.String(), "package memo:") {
		t.Errorf("connected progress run missing package-memo statistics:\n%s", stats.String())
	}
}

// An empty -shard-connect address list must be rejected up front.
func TestRunSweepConnectedFlagConflicts(t *testing.T) {
	dir := exampleDir(t)

	cfg := cfgFor("sweep")
	cfg.shardConnect = " , "
	if err := run(dir, cfg, nil, nil); err == nil || !strings.Contains(err.Error(), "no replica addresses") {
		t.Errorf("empty -shard-connect: err = %v, want the empty-list error", err)
	}
}

// A dead replica address must not break the sweep: the coordinator
// falls back to the local walk and the table stays identical.
func TestRunSweepConnectedDeadReplicaFallsBack(t *testing.T) {
	dir := exampleDir(t)
	var plain strings.Builder
	if err := run(dir, cfgFor("sweep"), &plain, nil); err != nil {
		t.Fatal(err)
	}
	cfg := cfgFor("sweep")
	cfg.shardConnect = "127.0.0.1:1" // reserved port: connection refused
	var out, stats strings.Builder
	if err := run(dir, cfg, &out, &stats); err != nil {
		t.Fatal(err)
	}
	if out.String() != plain.String() {
		t.Errorf("fallback sweep diverges from engine path:\n%s\nvs\n%s", out.String(), plain.String())
	}
}
