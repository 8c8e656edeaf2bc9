package ecochip

// Benchmark harness: one testing.B per table/figure of the paper's
// evaluation. Each benchmark regenerates the figure's full data series
// through the experiment registry, so
//
//	go test -bench=. -benchmem
//
// is the Go equivalent of the artifact's run_all.sh. On the first
// iteration of each benchmark the table is printed once under -v via
// b.Log, so benchmark runs double as a raw-data dump.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ecochip/internal/explore"
	"ecochip/internal/floorplan"
	"ecochip/internal/sensitivity"
	"ecochip/internal/serve"
	"ecochip/internal/shard"
	"ecochip/internal/shard/netx"
	"ecochip/internal/uncertainty"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	db := DefaultDB()
	tbl, err := Experiments(id, db)
	if err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + tbl.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Experiments(id, db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2a regenerates Fig. 2(a): manufacturing CFP vs die area.
func BenchmarkFig2a(b *testing.B) { benchExperiment(b, "fig2a") }

// BenchmarkFig2b regenerates Fig. 2(b): monolithic vs 4-chiplet GA102.
func BenchmarkFig2b(b *testing.B) { benchExperiment(b, "fig2b") }

// BenchmarkFig3b regenerates Fig. 3(b): wafer-periphery wastage effect.
func BenchmarkFig3b(b *testing.B) { benchExperiment(b, "fig3b") }

// BenchmarkFig6a regenerates Fig. 6(a): defect density vs node.
func BenchmarkFig6a(b *testing.B) { benchExperiment(b, "fig6a") }

// BenchmarkFig6b regenerates Fig. 6(b): total CFP vs defect density.
func BenchmarkFig6b(b *testing.B) { benchExperiment(b, "fig6b") }

// BenchmarkFig7a regenerates Fig. 7(a): C_mfg + C_HI per node tuple.
func BenchmarkFig7a(b *testing.B) { benchExperiment(b, "fig7a") }

// BenchmarkFig7b regenerates Fig. 7(b): single-SP&R design CFP per tuple.
func BenchmarkFig7b(b *testing.B) { benchExperiment(b, "fig7b") }

// BenchmarkFig7c regenerates Fig. 7(c): embodied CFP vs the ACT baseline.
func BenchmarkFig7c(b *testing.B) { benchExperiment(b, "fig7c") }

// BenchmarkFig7d regenerates Fig. 7(d): total CFP split per tuple.
func BenchmarkFig7d(b *testing.B) { benchExperiment(b, "fig7d") }

// BenchmarkFig8a regenerates Fig. 8(a): EMR vs its monolith.
func BenchmarkFig8a(b *testing.B) { benchExperiment(b, "fig8a") }

// BenchmarkFig8b regenerates Fig. 8(b): A15 vs its monolith.
func BenchmarkFig8b(b *testing.B) { benchExperiment(b, "fig8b") }

// BenchmarkFig9 regenerates Fig. 9: C_HI of five packaging architectures.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Fig. 10: C_mfg vs C_HI across chiplet counts.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11a regenerates Fig. 11(a): C_HI vs RDL layer count.
func BenchmarkFig11a(b *testing.B) { benchExperiment(b, "fig11a") }

// BenchmarkFig11b regenerates Fig. 11(b): C_HI vs EMIB bridge range.
func BenchmarkFig11b(b *testing.B) { benchExperiment(b, "fig11b") }

// BenchmarkFig11c regenerates Fig. 11(c): C_HI vs interposer node.
func BenchmarkFig11c(b *testing.B) { benchExperiment(b, "fig11c") }

// BenchmarkFig11d regenerates Fig. 11(d): C_HI vs TSV pitch.
func BenchmarkFig11d(b *testing.B) { benchExperiment(b, "fig11d") }

// BenchmarkFig12a regenerates Fig. 12(a): design CFP vs reuse ratio.
func BenchmarkFig12a(b *testing.B) { benchExperiment(b, "fig12a") }

// BenchmarkFig12b regenerates Fig. 12(b): GA102 C_tot vs ratio x lifetime.
func BenchmarkFig12b(b *testing.B) { benchExperiment(b, "fig12b") }

// BenchmarkFig12c regenerates Fig. 12(c): A15 C_tot vs ratio x lifetime.
func BenchmarkFig12c(b *testing.B) { benchExperiment(b, "fig12c") }

// BenchmarkFig12d regenerates Fig. 12(d): EMR C_tot vs ratio x lifetime.
func BenchmarkFig12d(b *testing.B) { benchExperiment(b, "fig12d") }

// BenchmarkFig13 regenerates Fig. 13: AR/VR carbon-delay/power/area.
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14 regenerates Fig. 14: GA102 carbon-power/area products.
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15a regenerates Fig. 15(a): dollar cost per node tuple.
func BenchmarkFig15a(b *testing.B) { benchExperiment(b, "fig15a") }

// BenchmarkFig15b regenerates Fig. 15(b): dollar cost vs chiplet count.
func BenchmarkFig15b(b *testing.B) { benchExperiment(b, "fig15b") }

// BenchmarkTableI regenerates Table I: the input-parameter database.
func BenchmarkTableI(b *testing.B) { benchExperiment(b, "tbl1") }

// BenchmarkExtTornado regenerates the extension sensitivity study.
func BenchmarkExtTornado(b *testing.B) { benchExperiment(b, "ext-tornado") }

// BenchmarkExtPareto regenerates the carbon-cost Pareto front.
func BenchmarkExtPareto(b *testing.B) { benchExperiment(b, "ext-pareto") }

// BenchmarkExtNoC regenerates the NoC scaling table.
func BenchmarkExtNoC(b *testing.B) { benchExperiment(b, "ext-noc") }

// BenchmarkExtNRE regenerates the mask-carbon amortization table.
func BenchmarkExtNRE(b *testing.B) { benchExperiment(b, "ext-nre") }

// BenchmarkExtValidation regenerates the Section VII sanity check.
func BenchmarkExtValidation(b *testing.B) { benchExperiment(b, "ext-validation") }

// BenchmarkExtUncertainty regenerates the Monte Carlo uncertainty study.
func BenchmarkExtUncertainty(b *testing.B) { benchExperiment(b, "ext-uncertainty") }

// BenchmarkEvaluateGA102 measures a single full-system evaluation — the
// unit of work inside every experiment.
func BenchmarkEvaluateGA102(b *testing.B) {
	db := DefaultDB()
	s := GA102(db, 7, 14, 10, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Evaluate(db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNodeExploration measures the 27-combination design-space sweep
// the ecochip CLI performs for a 3-chiplet system.
func BenchmarkNodeExploration(b *testing.B) {
	db := DefaultDB()
	base := GA102(db, 7, 14, 10, false)
	nodes := []int{7, 10, 14}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range nodes {
			for _, m := range nodes {
				for _, a := range nodes {
					s, err := base.WithNodes(d, m, a)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := s.Evaluate(db); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

// sweepBenchNodes is the node-candidate list of the NodeSweep benchmark
// pair: 5 nodes over the 3-chiplet GA102 = 125 design points.
var sweepBenchNodes = []int{7, 10, 14, 22, 28}

// BenchmarkNodeSweepSerial measures the pre-engine reference path: the
// serial one-point-at-a-time walk the seed's explore.NodeSweep ran, with
// the dollar-cost model re-evaluating each system (the historical
// behavior of System.CostUSD).
func BenchmarkNodeSweepSerial(b *testing.B) {
	db := DefaultDB()
	base := GA102(db, 7, 14, 10, false)
	cp := DefaultCostParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var points []DesignPoint
		var walk func(assign []int, depth int) error
		walk = func(assign []int, depth int) error {
			if depth == len(base.Chiplets) {
				picked := append([]int(nil), assign...)
				s, err := base.WithNodes(picked...)
				if err != nil {
					return err
				}
				rep, err := s.Evaluate(db)
				if err != nil {
					return err
				}
				c, err := s.CostUSD(db, cp)
				if err != nil {
					return err
				}
				points = append(points, DesignPoint{
					Nodes: picked, EmbodiedKg: rep.EmbodiedKg(), TotalKg: rep.TotalKg(),
					CostUSD: c.TotalUSD(),
				})
				return nil
			}
			for _, nm := range sweepBenchNodes {
				assign[depth] = nm
				if err := walk(assign, depth+1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(make([]int, len(base.Chiplets)), 0); err != nil {
			b.Fatal(err)
		}
		if len(points) != 125 {
			b.Fatalf("expected 125 points, got %d", len(points))
		}
	}
}

// BenchmarkNodeSweepParallel measures the same 125-point sweep through
// the uncompiled batch-engine path: worker-pool fan-out of one full
// evaluation and cost pricing per point (the baseline the compiled plan
// is measured against).
func BenchmarkNodeSweepParallel(b *testing.B) {
	db := DefaultDB()
	base := GA102(db, 7, 14, 10, false)
	cp := DefaultCostParams()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := explore.NodeSweepReference(ctx, base, db, sweepBenchNodes, cp)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 125 {
			b.Fatalf("expected 125 points, got %d", len(points))
		}
	}
}

// BenchmarkNodeSweepCompiled measures the 125-point sweep through the
// compiled plan — the NodeSweepCtx production path — including the
// per-call Compile cost, at the same worker count as the parallel
// baseline.
func BenchmarkNodeSweepCompiled(b *testing.B) {
	db := DefaultDB()
	base := GA102(db, 7, 14, 10, false)
	cp := DefaultCostParams()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := NodeSweepCtx(ctx, base, db, sweepBenchNodes, cp)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 125 {
			b.Fatalf("expected 125 points, got %d", len(points))
		}
	}
}

// BenchmarkNodeSweepCompiledReuse measures sweep re-execution on an
// already-compiled plan (the repeated-run shape of interactive tools and
// servers: compile once, run per request).
func BenchmarkNodeSweepCompiledReuse(b *testing.B) {
	db := DefaultDB()
	base := GA102(db, 7, 14, 10, false)
	plan, err := CompileNodeSweep(base, db, sweepBenchNodes, DefaultCostParams())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := plan.RunCtx(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 125 {
			b.Fatalf("expected 125 points, got %d", len(points))
		}
	}
}

// BenchmarkShardLoopback measures the same 125-point sweep through the
// fault-tolerant shard coordinator over three in-process loopback
// replicas (lease grants, per-block streaming, mixed-radix
// reassembly): the lease-protocol overhead on top of
// BenchmarkNodeSweepCompiledReuse.
func BenchmarkShardLoopback(b *testing.B) {
	db := DefaultDB()
	base := GA102(db, 7, 14, 10, false)
	cat := shard.NewCatalog()
	key, err := cat.RegisterSweep(base, db, sweepBenchNodes, DefaultCostParams())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := cat.Plan(key)
	if err != nil {
		b.Fatal(err)
	}
	transports := []shard.Transport{shard.NewReplica(cat), shard.NewReplica(cat), shard.NewReplica(cat)}
	ctx := context.Background()
	// LeaseBlocks 8 lets one lease span the sweep's 8 blocks, so the
	// TCP twin below (same config) measures framing cost rather than
	// lease round-trip count.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co := shard.NewCoordinator(plan, key, transports, shard.Config{BlockSize: 16, LeaseBlocks: 8})
		points, err := co.Sweep(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 125 {
			b.Fatalf("expected 125 points, got %d", len(points))
		}
	}
}

// BenchmarkShardTCPLoopback measures the same 125-point sweep through
// the shard coordinator over three replica servers on real TCP sockets
// (binary frames, content-keyed plan registration, per-block result
// streaming): the network-transport overhead on top of
// BenchmarkShardLoopback. The servers and clients persist across
// iterations — the steady serving state — so per-iteration cost is
// frames, not dials.
func BenchmarkShardTCPLoopback(b *testing.B) {
	db := DefaultDB()
	base := GA102(db, 7, 14, 10, false)
	cat := shard.NewCatalog()
	key, err := cat.RegisterSweep(base, db, sweepBenchNodes, DefaultCostParams())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := cat.Plan(key)
	if err != nil {
		b.Fatal(err)
	}
	reg := netx.NewRegistry()
	if _, err := reg.AddSweep(base, db, sweepBenchNodes, DefaultCostParams()); err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	transports := make([]shard.Transport, 3)
	for i := range transports {
		ready := make(chan string, 1)
		go func() {
			err := netx.ListenAndServe(ctx, "127.0.0.1:0", shard.NewCatalog(), db, netx.Options{}, func(addr string) { ready <- addr })
			if err != nil {
				b.Error(err)
			}
		}()
		cl := netx.DialTransport(<-ready, reg, netx.Options{})
		defer cl.Close()
		transports[i] = cl
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co := shard.NewCoordinator(plan, key, transports, shard.Config{BlockSize: 16, LeaseBlocks: 8})
		points, err := co.Sweep(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 125 {
			b.Fatalf("expected 125 points, got %d", len(points))
		}
	}
}

// BenchmarkShardHedgedSweep measures the 125-point sweep through the
// shard coordinator with the health fabric fully armed over a healthy
// replica pool: per-replica breaker tracking, lease-latency EWMA
// updates, and a hedge timer on every grant — none of which fires,
// because no one straggles. The delta against BenchmarkShardLoopback
// is the price of arming straggler mitigation when it is not needed
// (it should be ~free; the 20% CI gate pins that).
func BenchmarkShardHedgedSweep(b *testing.B) {
	db := DefaultDB()
	base := GA102(db, 7, 14, 10, false)
	cat := shard.NewCatalog()
	key, err := cat.RegisterSweep(base, db, sweepBenchNodes, DefaultCostParams())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := cat.Plan(key)
	if err != nil {
		b.Fatal(err)
	}
	transports := []shard.Transport{shard.NewReplica(cat), shard.NewReplica(cat), shard.NewReplica(cat)}
	// LeaseBlocks 1 arms one hedge timer per block — the worst case for
	// the hedging machinery's bookkeeping.
	cfg := shard.Config{BlockSize: 16, LeaseBlocks: 1, HedgeMin: time.Millisecond, Seed: 1}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co := shard.NewCoordinator(plan, key, transports, cfg)
		points, err := co.Sweep(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 125 {
			b.Fatalf("expected 125 points, got %d", len(points))
		}
	}
}

// BenchmarkNodeSweepWalkFront measures the streaming-front path on an
// already-compiled plan: the 125-point sweep folded to its carbon-cost
// Pareto front inside the walk, never materializing the point slice (the
// serving shape of front-only queries).
func BenchmarkNodeSweepWalkFront(b *testing.B) {
	db := DefaultDB()
	base := GA102(db, 7, 14, 10, false)
	plan, err := CompileNodeSweep(base, db, sweepBenchNodes, DefaultCostParams())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		front, total, err := plan.ParetoFrontCtx(ctx, []SweepMetric{SweepByEmbodied, SweepByCost})
		if err != nil {
			b.Fatal(err)
		}
		if total != 125 || len(front) == 0 {
			b.Fatalf("unexpected front: %d of %d", len(front), total)
		}
	}
}

// BenchmarkNodeSweepWalkFrontEPYC8 measures a fresh front query on the
// paper's reuse case: compile the 8-CCD EPYC over four nodes (262,144
// points) and fold its carbon-cost front. The seven CCDs beside CCD 0
// are interchangeable, so the front comes from the 1,920 orbits of node
// assignments instead of the full walk.
func BenchmarkNodeSweepWalkFrontEPYC8(b *testing.B) {
	db := DefaultDB()
	base, err := EPYC(db, 8)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := CompileNodeSweep(base, db, []int{7, 10, 14, 22}, DefaultCostParams())
		if err != nil {
			b.Fatal(err)
		}
		front, total, err := plan.ParetoFrontCtx(ctx, []SweepMetric{SweepByEmbodied, SweepByCost})
		if err != nil {
			b.Fatal(err)
		}
		if total != 262144 || len(front) != 14 {
			b.Fatalf("unexpected front: %d of %d, want 14 of 262144", len(front), total)
		}
	}
}

// BenchmarkParetoFrontEPYC8 measures ParetoFront over a materialized
// sweep, the call ecodse -mode sweep makes after NodeSweepPlanned: the
// 8-CCD EPYC over four nodes (262,144 points) is evaluated once, and
// only the front of the point slice is timed, for the carbon-cost pair
// and the three-objective carbon-cost-area front.
func BenchmarkParetoFrontEPYC8(b *testing.B) {
	db := DefaultDB()
	base, err := EPYC(db, 8)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := CompileNodeSweep(base, db, []int{7, 10, 14, 22}, DefaultCostParams())
	if err != nil {
		b.Fatal(err)
	}
	points, err := plan.RunCtx(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name       string
		objectives []SweepMetric
		want       int
	}{
		{"embodied-cost", []SweepMetric{SweepByEmbodied, SweepByCost}, 14},
		{"embodied-cost-area", []SweepMetric{SweepByEmbodied, SweepByCost, SweepByArea}, 79},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if front := ParetoFront(points, c.objectives...); len(front) != c.want {
					b.Fatalf("front has %d points, want %d", len(front), c.want)
				}
			}
		})
	}
}

// BenchmarkNodeSweepMaterializeEPYC8 measures ecodse -mode sweep at EPYC
// scale: compile the 8-CCD EPYC over four nodes, evaluate all 262,144
// points into a slice (NodeSweepCtx, the NodeSweepPlanned path) and
// reduce them to the carbon-cost front. The fresh walk serves most
// points' package terms from its orbit-keyed package memo, and
// ParetoFront reads the standard objectives by field.
func BenchmarkNodeSweepMaterializeEPYC8(b *testing.B) {
	db := DefaultDB()
	base, err := EPYC(db, 8)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := NodeSweepCtx(ctx, base, db, []int{7, 10, 14, 22}, DefaultCostParams())
		if err != nil {
			b.Fatal(err)
		}
		if front := ParetoFront(points, SweepByEmbodied, SweepByCost); len(points) != 262144 || len(front) != 14 {
			b.Fatalf("unexpected front: %d of %d, want 14 of 262144", len(front), len(points))
		}
	}
}

// BenchmarkNodeSweepIncremental measures the full streaming walk of an
// already-compiled plan (no front reduction, no point slice): the raw
// per-point cost of the incremental evaluation stack — Gray odometer,
// orbit-keyed package memo, retained floorplan tree, communication slot
// cache — on the 4-chiplet × 5-node (625-point) GA102 split.
func BenchmarkNodeSweepIncremental(b *testing.B) {
	db := DefaultDB()
	base, err := GA102Split(db, 2, RDLFanout)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := CompileNodeSweep(base, db, sweepBenchNodes, DefaultCostParams())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Walk calls visit from every worker at once.
		var points atomic.Int64
		err := plan.Walk(ctx, func(idx int, pt *DesignPoint) error {
			points.Add(1)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if n := points.Load(); n != 625 {
			b.Fatalf("expected 625 points, got %d", n)
		}
	}
	b.StopTimer()
	// Every walked point is served by the package memo or planned once.
	s := plan.Stats()
	if s.Floorplan.Plans()+s.PkgMemo.Hits != s.Points {
		b.Fatalf("%d floorplans + %d package-memo hits != %d points", s.Floorplan.Plans(), s.PkgMemo.Hits, s.Points)
	}
}

// BenchmarkFloorplanIncremental measures the floorplan tree's PlanDims
// with one changed area at the EPYC chiplet count (9 dies): the
// floorplan cost of a compiled sweep's package-memo miss, one re-sort
// and one layout.
func BenchmarkFloorplanIncremental(b *testing.B) {
	areas := []float64{512, 300, 200, 140, 100, 70, 50, 35, 25}
	blocks := make([]floorplan.Block, len(areas))
	for i, a := range areas {
		blocks[i] = floorplan.Block{Name: fmt.Sprintf("d%d", i), AreaMM2: a}
	}
	var tr floorplan.Tree
	if _, err := tr.PlanDims(blocks, 0.5); err != nil {
		b.Fatal(err)
	}
	// Perturbing the smallest block keeps the sorted order, and an area
	// that never recurs changes the plan, so each iteration measures
	// one layout of an unchanged order.
	last := len(areas) - 1
	base := areas[last]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blocks[last].AreaMM2 = base + float64(i+1)*1e-9
		if _, err := tr.PlanDims(blocks, 0.5); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := tr.Stats; s.Fallbacks != uint64(b.N) {
		b.Fatalf("every call should lay out once: %+v", s)
	}
}

// benchDisaggSystem builds the EPYC-scale (10-die) fine-grained system
// of the Disaggregate benchmark pair: 8 mergeable logic slivers around
// a memory and an analog die, a multi-step greedy trajectory.
func benchDisaggSystem(db *TechDB) *System {
	ref := db.MustGet(7)
	var chiplets []Chiplet
	for i := 0; i < 8; i++ {
		chiplets = append(chiplets, BlockFromArea(
			fmt.Sprintf("logic%c", 'a'+i), Logic, 3, ref, 7))
	}
	chiplets = append(chiplets,
		BlockFromArea("memory", Memory, 60, db.MustGet(14), 14),
		BlockFromArea("analog", Analog, 30, db.MustGet(10), 10),
	)
	return &System{
		Name:      "disagg-bench",
		Chiplets:  chiplets,
		Packaging: DefaultPackaging(RDLFanout),
		Mfg:       DefaultMfgParams(),
		Design:    DefaultDesignParams(),
	}
}

// BenchmarkDisaggregate measures the compiled greedy block-to-chiplet
// disaggregation search at EPYC scale (10 dies): every greedy step's
// candidate merges evaluated on the step-spanning state — memoized
// merged-die cells and pooled worker scratches whose retained floorplan
// trees each candidate rebuilds.
func BenchmarkDisaggregate(b *testing.B) {
	db := DefaultDB()
	base := benchDisaggSystem(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := DisaggregateCtx(context.Background(), base, db)
		if err != nil {
			b.Fatal(err)
		}
		if plan.Steps == 0 {
			b.Fatal("expected a multi-step search")
		}
	}
	b.StopTimer()
}

// BenchmarkDisaggregateReference measures the evaluate-per-candidate
// oracle on the same search — the bit-identity baseline every compiled
// trajectory is pinned against.
func BenchmarkDisaggregateReference(b *testing.B) {
	db := DefaultDB()
	base := benchDisaggSystem(db)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := explore.DisaggregateReference(ctx, base, db); err != nil {
			b.Fatal(err)
		}
	}
}

// benchServerSystem builds the 9-die EPYC-class server testcase the
// tornado / Monte Carlo benchmark pairs analyze — the multi-chiplet
// shape where sensitivity and uncertainty studies are actually run, and
// where the per-evaluation floorplan the compiled plans avoid dominates
// the uncompiled cost.
func benchServerSystem(b *testing.B, db *TechDB) *System {
	b.Helper()
	s, err := EPYC(db, 8)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTornadoUncompiled measures the tornado sensitivity analysis
// through the PR 1 memo-cache path: a full evaluation per perturbed
// point (the baseline the compiled parameter plan is measured against).
func BenchmarkTornadoUncompiled(b *testing.B) {
	db := DefaultDB()
	base := benchServerSystem(b, db)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := sensitivity.TornadoReference(ctx, base, db, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 7 {
			b.Fatalf("expected 7 factors, got %d", len(results))
		}
	}
}

// BenchmarkTornadoCompiled measures the same analysis on a compiled
// parameter plan — the TornadoCtx production path — including the
// per-call compile cost, at the same worker count.
func BenchmarkTornadoCompiled(b *testing.B) {
	db := DefaultDB()
	base := benchServerSystem(b, db)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := TornadoCtx(ctx, base, db, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 7 {
			b.Fatalf("expected 7 factors, got %d", len(results))
		}
	}
}

// mcBenchSamples sizes the Monte Carlo benchmark pair: enough samples
// that per-sample costs dominate the fixed setup.
const mcBenchSamples = 200

// BenchmarkMonteCarloUncompiled measures the uncertainty analysis
// through the PR 1 memo-cache path: every sample clones the technology
// database and runs a full evaluation (the cache cannot help across
// samples — cloned nodes never repeat as keys).
func BenchmarkMonteCarloUncompiled(b *testing.B) {
	db := DefaultDB()
	base := benchServerSystem(b, db)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := uncertainty.RunReference(ctx, base, db, uncertainty.DefaultSpread(), mcBenchSamples, 2024)
		if err != nil {
			b.Fatal(err)
		}
		if d.Samples != mcBenchSamples {
			b.Fatalf("expected %d samples, got %d", mcBenchSamples, d.Samples)
		}
	}
}

// BenchmarkMonteCarloCompiled measures the same sampling on a compiled
// parameter plan — the UncertaintyCtx production path — including the
// per-call compile cost, at the same worker count.
func BenchmarkMonteCarloCompiled(b *testing.B) {
	db := DefaultDB()
	base := benchServerSystem(b, db)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := UncertaintyCtx(ctx, base, db, mcBenchSamples, 2024)
		if err != nil {
			b.Fatal(err)
		}
		if d.Samples != mcBenchSamples {
			b.Fatalf("expected %d samples, got %d", mcBenchSamples, d.Samples)
		}
	}
}

// BenchmarkEvaluateBatch measures raw batch evaluation (no cost model)
// of the 625-system 4-chiplet x 5-node full factorial.
func BenchmarkEvaluateBatch(b *testing.B) {
	db := DefaultDB()
	base, err := GA102Split(db, 2, RDLFanout)
	if err != nil {
		b.Fatal(err)
	}
	var systems []*System
	for _, n0 := range sweepBenchNodes {
		for _, n1 := range sweepBenchNodes {
			for _, n2 := range sweepBenchNodes {
				for _, n3 := range sweepBenchNodes {
					s, err := base.WithNodes(n0, n1, n2, n3)
					if err != nil {
						b.Fatal(err)
					}
					systems = append(systems, s)
				}
			}
		}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvaluateBatch(ctx, db, systems); err != nil {
			b.Fatal(err)
		}
	}
}

// serveBenchSetup builds the EPYC-scale what-if workload: the full
// 8-CCD system and a 3-node candidate list (3^9 = 19683 combos), plus
// the swap request the serve benchmarks answer.
func serveBenchSetup(b *testing.B) (*TechDB, *serve.SweepRequest, *serve.WhatIfRequest) {
	b.Helper()
	db := DefaultDB()
	sys, err := EPYC(db, 8)
	if err != nil {
		b.Fatal(err)
	}
	nodes := []int{7, 10, 14}
	sweep := &serve.SweepRequest{System: sys, Nodes: nodes}
	whatIf := &serve.WhatIfRequest{
		System: sys,
		Nodes:  nodes,
		Swap:   map[string]int{"iod": 10, "ccd0": 10},
	}
	return db, sweep, whatIf
}

// BenchmarkServeWarmWhatIf measures one node-swap what-if against a
// warm server: plan-cache hit, Gray-code point inversion, single-point
// evaluation off the compiled tables. This is the steady-state
// per-request cost of the serving layer.
func BenchmarkServeWarmWhatIf(b *testing.B) {
	db, _, whatIf := serveBenchSetup(b)
	srv := serve.NewServer(db, serve.Config{})
	ctx := context.Background()
	if _, err := srv.WhatIf(ctx, whatIf); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.WhatIf(ctx, whatIf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeColdWhatIf measures the same what-if against a cold
// server every iteration: content hash, plan compile, then the
// single-point evaluation — what every request would cost without the
// plan cache.
func BenchmarkServeColdWhatIf(b *testing.B) {
	db, _, whatIf := serveBenchSetup(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := serve.NewServer(db, serve.Config{})
		if _, err := srv.WhatIf(ctx, whatIf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatalogEviction measures a capacity-bounded shard catalog
// thrashing: four registered sweeps cycling through two resident slots,
// so every Plan call past the warmup is an eviction plus a deterministic
// recompile.
func BenchmarkCatalogEviction(b *testing.B) {
	db := DefaultDB()
	cat := shard.NewCatalogCap(2)
	keys := make([]string, 4)
	for i := range keys {
		base := GA102(db, 7, 14, 10, false)
		base.Chiplets = append([]Chiplet(nil), base.Chiplets...)
		base.Chiplets[0].Transistors *= 1 + 0.01*float64(i)
		key, err := cat.RegisterSweep(base, db, sweepBenchNodes, DefaultCostParams())
		if err != nil {
			b.Fatal(err)
		}
		keys[i] = key
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.Plan(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}
