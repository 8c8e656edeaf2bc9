// Command ecoreplica is the shard replica daemon: a stateless worker
// that executes leased block ranges of compiled sweeps for remote
// coordinators (ecodse -shard-connect) over the binary frame protocol.
//
//	ecoreplica -listen :9444
//
// Coordinators ship each sweep's content (system, node list, cost
// parameters) once per connection; the replica compiles the plan
// locally against its own tech database and echoes the derived content
// key, so a coordinator/replica database skew surfaces as a typed key
// mismatch instead of silently divergent results. Compiled plans stay
// resident in a catalog bounded by -plans (LRU eviction; evicted plans
// recompile on the next lease).
//
// SIGINT/SIGTERM shut the daemon down gracefully: it stops accepting,
// refuses new leases, finishes streaming the in-flight ones (bounded by
// -drain, abandoned leases logged), and exits.
// -auth-token sets a shared secret every coordinator must present at
// registration.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ecochip/internal/shard"
	"ecochip/internal/shard/netx"
	"ecochip/internal/tech"
)

func main() {
	addr := flag.String("listen", "127.0.0.1:9444", "listen address (host:port; port 0 picks a free port)")
	plans := flag.Int("plans", 0, "resident compiled plans (0 = unbounded, else LRU-evicted)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight leases")
	token := flag.String("auth-token", "", "shared secret coordinators must present to register (empty = no auth)")
	verbose := flag.Bool("verbose", false, "log transport events to stderr")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *addr, *plans, *drain, *token, *verbose, os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "ecoreplica:", err)
		os.Exit(1)
	}
}

// run is the testable core of main: serve until ctx is cancelled, then
// drain and return. ready, when non-nil, receives the bound address
// once listening (port 0 resolution for tests).
func run(ctx context.Context, addr string, plans int, drain time.Duration, token string, verbose bool, out io.Writer, ready func(addr string)) error {
	opts := netx.Options{DrainTimeout: drain, AuthToken: token}
	if verbose {
		opts.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	} else {
		// Abandoned leases are operator-actionable (work was lost at
		// shutdown), so they surface even without -verbose.
		opts.Logf = func(format string, args ...any) {
			if strings.Contains(format, "abandoning lease") {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
	}
	cat := shard.NewCatalogCap(plans)
	announce := func(bound string) {
		fmt.Fprintf(out, "ecoreplica listening on %s\n", bound)
		if ready != nil {
			ready(bound)
		}
	}
	if err := netx.ListenAndServe(ctx, addr, cat, tech.Default(), opts, announce); err != nil {
		return err
	}
	fmt.Fprintln(out, "ecoreplica: drained, exiting")
	return nil
}
