// Command ecodse runs the Section VI design-space-exploration workflows
// on a JSON design directory:
//
//	ecodse --design_dir testcases/GA102 --mode sweep    # node sweep + Pareto front
//	ecodse --design_dir testcases/GA102 --mode tornado  # sensitivity analysis
//	ecodse --design_dir testcases/GA102 --mode group    # block-grouping optimizer
//	ecodse --design_dir testcases/GA102 --mode mc       # Monte Carlo uncertainty
//
// The sweep mode needs a node_list.txt in the design directory. Sweeps
// run on a compiled plan (precomputed die tables + Gray-code walk), the
// tornado/mc analyses run on a compiled parameter plan (base point
// tabulated once, perturbations recomputing only their dirty
// sub-models), and the group mode runs the greedy disaggregation search
// on step-spanning retained state (memoized merged-die cells, pooled
// scratches).
// -shard-connect shards the sweep across ecoreplica daemons over TCP.
// -cpuprofile / -memprofile write pprof profiles of the run, and
// -progress reports compiled-plan statistics after the result.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ecochip/internal/config"
	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/engine"
	"ecochip/internal/explore"
	"ecochip/internal/report"
	"ecochip/internal/sensitivity"
	"ecochip/internal/shard"
	"ecochip/internal/shard/netx"
	"ecochip/internal/tech"
	"ecochip/internal/uncertainty"
)

func main() {
	designDir := flag.String("design_dir", "", "directory with architecture.json etc. (required)")
	mode := flag.String("mode", "sweep", "sweep | tornado | group | mc")
	rel := flag.Float64("rel", 0.25, "tornado: relative perturbation")
	samples := flag.Int("samples", 500, "mc: Monte Carlo sample count")
	seed := flag.Int64("seed", 2024, "mc: random seed")
	parallel := flag.Int("parallel", 0, "evaluation workers (0 = all CPUs, 1 = serial)")
	progress := flag.Bool("progress", false, "print sweep progress and evaluation statistics to stderr")
	shardConnect := flag.String("shard-connect", "", "sweep: comma-separated ecoreplica addresses (host:port,...) to shard the compiled plan across over TCP")
	shardPipeline := flag.Int("shard-pipeline", 1, "sweep: leases kept in flight per -shard-connect replica connection")
	authToken := flag.String("auth-token", "", "sweep: shared secret presented to -shard-connect replicas at registration")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if *designDir == "" {
		fmt.Fprintln(os.Stderr, "usage: ecodse --design_dir <dir> --mode sweep|tornado|group|mc")
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecodse:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ecodse:", err)
			os.Exit(1)
		}
	}

	cfg := runConfig{
		mode:     *mode,
		rel:      *rel,
		samples:  *samples,
		seed:     *seed,
		workers:  *parallel,
		progress: *progress,

		shardConnect:  *shardConnect,
		shardPipeline: *shardPipeline,
		authToken:     *authToken,
	}
	err := run(*designDir, cfg, os.Stdout, os.Stderr)

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		if perr := writeHeapProfile(*memprofile); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecodse:", err)
		os.Exit(1)
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize the final live set
	return pprof.WriteHeapProfile(f)
}

// runConfig bundles the CLI knobs of one invocation.
type runConfig struct {
	mode     string
	rel      float64
	samples  int
	seed     int64
	workers  int
	progress bool

	// shardConnect routes the sweep over TCP to remote ecoreplica
	// daemons; shardPipeline is the number of lease slots per
	// connection (in-flight leases multiplexed over one socket).
	shardConnect  string
	shardPipeline int
	// authToken is the shared secret -shard-connect replicas require at
	// registration (ecoreplica -auth-token).
	authToken string
}

func run(designDir string, cfg runConfig, w, statsW io.Writer) error {
	db := tech.Default()
	system, nodes, err := config.LoadSystem(designDir, db)
	if err != nil {
		return err
	}

	opts := []engine.Option{engine.WithWorkers(cfg.workers)}
	ctx := context.Background()
	switch cfg.mode {
	case "sweep":
		return runSweep(ctx, w, statsW, system, db, nodes, cfg, opts)
	case "tornado":
		return runTornado(ctx, w, statsW, system, db, cfg, opts)
	case "mc":
		return runMC(ctx, w, statsW, system, db, cfg, opts)
	case "group":
		return runGroup(ctx, w, statsW, system, db, cfg, opts)
	default:
		return fmt.Errorf("unknown mode %q", cfg.mode)
	}
}

// withProgress appends the -progress reporter to opts when cfg asks for
// it. The reporter prints "done/total unit", where unit names what the
// engine's total counts in this mode.
func withProgress(opts []engine.Option, cfg runConfig, statsW io.Writer, unit func(total int) string) []engine.Option {
	if !cfg.progress {
		return opts
	}
	return append(opts[:len(opts):len(opts)], engine.WithProgress(func(done, total int) {
		if done%1000 == 0 || done == total {
			fmt.Fprintf(statsW, "\r%d/%d %s", done, total, unit(total))
			if done == total {
				fmt.Fprintln(statsW)
			}
		}
	}))
}

// counts returns a unit function that always names noun.
func counts(noun string) func(int) string { return func(int) string { return noun } }

// runSweep prints the embodied/cost Pareto front of the node sweep. A
// local sweep of a non-monolith folds the front on the compiled plan
// without materializing the points (ParetoFrontCtx, whose front is the
// one ParetoFront returns over every point); on a plan with
// interchangeable chiplets that fold evaluates one member per orbit.
// Multi-chiplet monoliths and -shard-connect sweeps materialize the
// points and fold them afterwards.
//
// Under -progress, three counts describe one sweep. The header's
// candidates are every node combination. The engine line counts points
// on a walk, but orbits (one representative each) on the orbit fold.
// The compiled-plan line counts the points evaluated, which on the
// orbit path is the representatives plus the members of the orbits
// that survive pruning, below the candidate count; the package memo
// reads 0 hits, 0 misses there: the orbit fold bypasses it.
func runSweep(ctx context.Context, w, statsW io.Writer, system *core.System, db *tech.DB, nodes []int, cfg runConfig, opts []engine.Option) error {
	if len(nodes) == 0 {
		return fmt.Errorf("sweep mode needs node_list.txt in the design directory")
	}
	cp := cost.DefaultParams()

	var front []explore.Point
	var candidates int
	var plan *explore.CompiledPlan
	var co *shard.Coordinator
	var err error
	switch {
	case cfg.shardConnect != "":
		var points []explore.Point
		if points, plan, co, err = runConnectedSweep(ctx, statsW, system, db, nodes, cp, cfg); err != nil {
			return err
		}
		front, candidates = explore.ParetoFront(points, explore.ByEmbodied, explore.ByCost), len(points)
	case system.Monolithic && len(system.Chiplets) > 1:
		// NodeSweepPlanned evaluates a multi-chiplet monolith's single
		// die without compiling a plan: there are no plan statistics.
		var points []explore.Point
		if points, _, err = explore.NodeSweepPlanned(ctx, system, db, nodes, cp, withProgress(opts, cfg, statsW, counts("points"))...); err != nil {
			return err
		}
		front, candidates = explore.ParetoFront(points, explore.ByEmbodied, explore.ByCost), len(points)
	default:
		if plan, err = explore.Compile(system, db, nodes, cp); err != nil {
			return err
		}
		// The orbit fold reports progress against the orbit count, which
		// is below the candidate count whenever the fold is taken.
		combos := plan.Combos()
		unit := func(total int) string {
			if total < combos {
				return "orbits"
			}
			return "points"
		}
		if front, _, err = plan.ParetoFrontCtx(ctx, []explore.Metric{explore.ByEmbodied, explore.ByCost}, withProgress(opts, cfg, statsW, unit)...); err != nil {
			return err
		}
		candidates = combos
	}

	t := report.New(fmt.Sprintf("carbon-cost Pareto front (%d of %d candidates)", len(front), candidates), "",
		"nodes", "cemb_kg", "ctot_kg", "cost_usd", "area_mm2")
	for _, p := range front {
		t.AddRow(p.Label(), report.F(p.EmbodiedKg), report.F(p.TotalKg), report.F(p.CostUSD), report.F(p.PackageAreaMM2))
	}
	if err := t.Fprint(w); err != nil {
		return err
	}
	if cfg.progress && plan != nil {
		s := plan.Stats()
		fmt.Fprintf(statsW, "compiled plan: %d points from %d table cells, %d gray steps, %d block inits\n",
			s.Points, s.TableCells, s.GraySteps, s.BlockInits)
		fmt.Fprintf(statsW, "package memo: %d hits, %d misses (%d collision recomputes), %d fills, %d forced evictions\n",
			s.PkgMemo.Hits, s.PkgMemo.Misses, s.PkgMemo.Collisions, s.PkgMemo.Fills, s.PkgMemo.Evictions)
		if fp := s.Floorplan; fp.Plans() > 0 {
			fmt.Fprintln(statsW, fp)
		}
		if co != nil {
			fmt.Fprintln(statsW, co.Stats())
		}
	}
	return nil
}

// runConnectedSweep shards the compiled sweep across remote ecoreplica
// daemons over TCP: the sweep registers in a local catalog (the
// fallback path and the plan the points reassemble into) and in a
// netx registry whose content each connection ships once, replicas
// re-derive the content key from their own tech db, and leased block
// ranges stream back as binary frames. shardPipeline > 1 hands each
// client to the coordinator that many times, keeping that many leases
// in flight per socket.
func runConnectedSweep(ctx context.Context, statsW io.Writer, system *core.System, db *tech.DB, nodes []int, cp cost.Params, cfg runConfig) ([]explore.Point, *explore.CompiledPlan, *shard.Coordinator, error) {
	addrs := strings.Split(cfg.shardConnect, ",")
	pipeline := cfg.shardPipeline
	if pipeline < 1 {
		pipeline = 1
	}
	cat := shard.NewCatalog()
	key, err := cat.RegisterSweep(system, db, nodes, cp)
	if err != nil {
		return nil, nil, nil, err
	}
	plan, err := cat.Plan(key)
	if err != nil {
		return nil, nil, nil, err
	}
	reg := netx.NewRegistry()
	if _, err := reg.AddSweep(system, db, nodes, cp); err != nil {
		return nil, nil, nil, err
	}
	var transports []shard.Transport
	for _, addr := range addrs {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		cl := netx.DialTransport(addr, reg, netx.Options{AuthToken: cfg.authToken})
		defer cl.Close()
		for i := 0; i < pipeline; i++ {
			transports = append(transports, cl)
		}
	}
	if len(transports) == 0 {
		return nil, nil, nil, fmt.Errorf("-shard-connect: no replica addresses in %q", cfg.shardConnect)
	}
	sc := shard.Config{Seed: cfg.seed}
	if statsW != nil {
		sc.Logf = func(format string, args ...any) { fmt.Fprintf(statsW, format+"\n", args...) }
	}
	co := shard.NewCoordinator(plan, key, transports, sc)
	points, err := co.Sweep(ctx)
	return points, plan, co, err
}

func runTornado(ctx context.Context, w, statsW io.Writer, system *core.System, db *tech.DB, cfg runConfig, opts []engine.Option) error {
	results, plan, err := sensitivity.TornadoPlanned(ctx, system, db, cfg.rel, withProgress(opts, cfg, statsW, counts("evaluations"))...)
	if err != nil {
		return err
	}
	t := report.New(fmt.Sprintf("sensitivity tornado (+/-%.0f%%)", cfg.rel*100), "",
		"factor", "low_kg", "base_kg", "high_kg", "swing_kg")
	for _, r := range results {
		t.AddRow(r.Factor, report.F(r.LowKg), report.F(r.BaseKg), report.F(r.HighKg), report.F(r.Swing()))
	}
	if err := t.Fprint(w); err != nil {
		return err
	}
	if cfg.progress {
		fmt.Fprintln(statsW, plan.Stats())
	}
	return nil
}

func runGroup(ctx context.Context, w, statsW io.Writer, system *core.System, db *tech.DB, cfg runConfig, opts []engine.Option) error {
	plan, err := explore.DisaggregateCtx(ctx, system, db, withProgress(opts, cfg, statsW, counts("candidates"))...)
	if err != nil {
		return err
	}
	t := report.New("block grouping plan", "", "group", "blocks")
	for i, g := range plan.Groups {
		t.AddRow(fmt.Sprintf("chiplet%d", i), fmt.Sprint(g))
	}
	if err := t.Fprint(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "embodied carbon: %.2f kg (from %.2f kg, %d merges)\n",
		plan.EmbodiedKg, plan.InitialKg, plan.Steps); err != nil {
		return err
	}
	if cfg.progress {
		fmt.Fprintln(statsW, plan.Stats)
	}
	return nil
}

func runMC(ctx context.Context, w, statsW io.Writer, system *core.System, db *tech.DB, cfg runConfig, opts []engine.Option) error {
	d, plan, err := uncertainty.RunPlanned(ctx, system, db, uncertainty.DefaultSpread(), cfg.samples, cfg.seed, withProgress(opts, cfg, statsW, counts("samples"))...)
	if err != nil {
		return err
	}
	t := report.New(fmt.Sprintf("embodied-carbon uncertainty (%d samples, seed %d)", cfg.samples, cfg.seed), "",
		"p5_kg", "p50_kg", "mean_kg", "p95_kg", "relative_spread")
	t.AddRow(report.F(d.P5Kg), report.F(d.P50Kg), report.F(d.MeanKg), report.F(d.P95Kg), report.F(d.RelativeSpread()))
	if err := t.Fprint(w); err != nil {
		return err
	}
	if cfg.progress {
		fmt.Fprintln(statsW, plan.Stats())
	}
	return nil
}
