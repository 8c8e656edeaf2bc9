package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ecochip/internal/cost"
	"ecochip/internal/explore"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// curvePoint is one size of the sharding crossover curve: the median
// wall time of a streamed Pareto front locally and over 1 and 2 TCP
// replicas.
type curvePoint struct {
	CCDs     int     `json:"ccds"`
	Points   int     `json:"points"`
	LocalMs  float64 `json:"local_ms"`
	Shard1Ms float64 `json:"tcp1_ms"`
	Shard2Ms float64 `json:"tcp2_ms"`
}

// curveMain implements `curve`: EPYC(k) with k CCDs (k+1 chiplets) over
// the seven testcases.MaskNodes, from 343 to 823,543 points. Each size
// runs the embodied/cost front locally (explore.Compile +
// ParetoFrontCtx, as sweep-262k's front operations) and through the
// lease protocol over one and two in-process TCP replicas (as
// shard-tcp's front operations); all three fronts must hash equal.
// Fronts, not full sweeps, keep the largest size's memory bounded.
func curveMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("curve", flag.ExitOnError)
	reps := fs.Int("reps", 3, "repetitions per size and mode (the median is reported)")
	out := fs.String("o", "", "write the curve as JSON to this file")
	fs.Parse(args)

	pts, err := crossover(context.Background(), *reps, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecobench curve:", err)
		return 1
	}
	if *out != "" {
		b, err := json.MarshalIndent(struct {
			Machine machine      `json:"machine"`
			Reps    int          `json:"reps"`
			Curve   []curvePoint `json:"curve"`
		}{thisMachine(), *reps, pts}, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecobench curve:", err)
			return 1
		}
	}
	return 0
}

func crossover(ctx context.Context, reps int, w io.Writer) ([]curvePoint, error) {
	db := tech.Default()
	var sets []*replicaSet
	defer func() {
		for _, rs := range sets {
			rs.stop()
		}
	}()
	for _, n := range []int{1, 2} {
		rs, err := startReplicas(db, n)
		if err != nil {
			return nil, err
		}
		sets = append(sets, rs)
	}
	objs := shardObjectives[0]
	fmt.Fprintf(w, "%6s %9s %12s %12s %12s %10s\n", "ccds", "points", "local_ms", "tcp1_ms", "tcp2_ms", "tcp2/local")
	var curve []curvePoint
	for k := 2; k <= 6; k++ {
		sys, err := testcases.EPYC(db, k)
		if err != nil {
			return nil, err
		}
		nodes := testcases.MaskNodes
		var times [3][]float64
		var hashes [3]uint64
		for r := 0; r < reps; r++ {
			for mode := 0; mode < 3; mode++ {
				t0 := time.Now()
				var front []explore.Point
				if mode == 0 {
					plan, err := explore.Compile(sys, db, nodes, cost.DefaultParams())
					if err == nil {
						front, _, err = plan.ParetoFrontCtx(ctx, objectivePairs[0].objs)
					}
					if err != nil {
						return nil, err
					}
				} else {
					_, front, _, _, err = shardedSweep(ctx, nil, sets[mode-1].addrs, sys, db, nodes, objs, nil)
					if err != nil {
						return nil, err
					}
				}
				times[mode] = append(times[mode], ms(time.Since(t0)))
				h := newHasher()
				h.points(front)
				hashes[mode] = h.h
			}
		}
		if hashes[1] != hashes[0] || hashes[2] != hashes[0] {
			return nil, fmt.Errorf("EPYC-%d: sharded fronts differ from the local front", k)
		}
		cp := curvePoint{CCDs: k, Points: pow(len(nodes), k+1),
			LocalMs: median(times[0]), Shard1Ms: median(times[1]), Shard2Ms: median(times[2])}
		curve = append(curve, cp)
		fmt.Fprintf(w, "%6d %9d %12.2f %12.2f %12.2f %10.2f\n", cp.CCDs, cp.Points, cp.LocalMs, cp.Shard1Ms, cp.Shard2Ms, cp.Shard2Ms/cp.LocalMs)
	}
	return curve, nil
}
