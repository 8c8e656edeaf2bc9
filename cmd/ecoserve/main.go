// Command ecoserve is the long-lived what-if server: an HTTP/JSON
// front end over content-keyed compiled-plan caches.
//
//	ecoserve -addr 127.0.0.1:8080
//
// Endpoints (all bodies JSON):
//
//	POST /v1/sweep         node sweep (or its Pareto front with
//	                       "objectives") of the posted system
//	POST /v1/whatif        one what-if: a node swap answered off the
//	                       warm sweep plan, or an area/volume
//	                       perturbation answered off the warm
//	                       parameter plan
//	POST /v1/disaggregate  greedy disaggregation of the posted system
//	POST /v1/sweep/stream  front mode as NDJSON: one line per
//	                       tightening front snapshot (every 512
//	                       points the warm plan's walk covers), then
//	                       the result
//	GET  /v1/stats         plan-cache counters
//
// The first request for a (system, db-version) shape compiles its plan
// — once, however many clients race for it — and every later request
// with the same content hash runs warm, bit-identical to the cold
// path. -plan-cache bounds the resident plans per family; evicted
// shapes recompile on demand. -workers caps the evaluation workers of
// one request, streamed fronts included.
//
// Each request family admits at most -max-inflight concurrent requests;
// arrivals past the bound queue for -queue-timeout, then are shed with
// a 429 and a Retry-After header, so a thundering herd degrades into
// bounded latency plus explicit backpressure instead of memory growth.
// Request bodies over 1 MiB are refused with a 413, a client that has
// not sent its request headers within 5s is disconnected, and keep-alive
// connections idle for 60s are closed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ecochip/internal/serve"
	"ecochip/internal/tech"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	planCache := flag.Int("plan-cache", 0, "resident compiled plans per family (0 = default 64, negative = unbounded)")
	workers := flag.Int("workers", 0, "evaluation workers per request (0 = all CPUs)")
	maxInflight := flag.Int("max-inflight", 0, "concurrent requests admitted per family before shedding with 429 (0 = default 64, negative = unbounded)")
	queueTimeout := flag.Duration("queue-timeout", 0, "how long an over-bound request may queue for a slot before shedding (0 = default 100ms)")
	flag.Parse()

	cfg := serve.Config{
		PlanCacheSize: *planCache,
		Workers:       *workers,
		MaxInflight:   *maxInflight,
		QueueTimeout:  *queueTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *addr, cfg, os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "ecoserve:", err)
		os.Exit(1)
	}
}

// Connection timeouts of the HTTP server.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 60 * time.Second
)

// run binds addr, announces the bound address on out (and via ready,
// when non-nil), and serves until ctx is cancelled — then shuts down
// gracefully. Split from main so tests drive the full binary path
// in-process on a loopback port.
func run(ctx context.Context, addr string, cfg serve.Config, out io.Writer, ready func(addr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	fmt.Fprintf(out, "ecoserve listening on http://%s\n", bound)
	if ready != nil {
		ready(bound)
	}

	srv := serve.NewServer(tech.Default(), cfg)
	hs := &http.Server{
		Handler:           serve.Handler(srv),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(shutdownCtx)
	case err := <-errc:
		return err
	}
}
