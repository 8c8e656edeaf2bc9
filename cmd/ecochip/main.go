// Command ecochip is the ECO-CHIP carbon simulator CLI, mirroring the
// released tool's entry point:
//
//	ecochip --design_dir testcases/GA102
//
// It loads the JSON design description from the directory, prints the
// per-chiplet and per-source carbon breakdown, and — when the directory
// contains a node_list.txt — sweeps every technology-node combination
// across the chiplets and prints the design space sorted by embodied
// carbon.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"ecochip/internal/config"
	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/explore"
	"ecochip/internal/report"
	"ecochip/internal/tech"
)

func main() {
	designDir := flag.String("design_dir", "", "directory with architecture.json etc. (required)")
	writeExample := flag.String("write_example", "", "write an example design directory to this path and exit")
	maxCombos := flag.Int("max_combos", 1000, "cap on node combinations explored")
	topN := flag.Int("top", 10, "show the N best combinations")
	flag.Parse()

	if *writeExample != "" {
		if err := config.WriteExampleDir(*writeExample); err != nil {
			fatal(err)
		}
		fmt.Printf("example design written to %s\n", *writeExample)
		return
	}
	if *designDir == "" {
		fmt.Fprintln(os.Stderr, "usage: ecochip --design_dir <dir> [--top N]")
		os.Exit(2)
	}

	if err := run(*designDir, *maxCombos, *topN, os.Stdout); err != nil {
		fatal(err)
	}
}

// run loads a design directory, prints its breakdown and, when a node
// list is present, the design-space sweep.
func run(designDir string, maxCombos, topN int, w io.Writer) error {
	db := tech.Default()
	system, nodes, err := config.LoadSystem(designDir, db)
	if err != nil {
		return err
	}
	rep, err := system.Evaluate(db)
	if err != nil {
		return err
	}
	if err := printBreakdown(w, rep); err != nil {
		return err
	}
	if len(nodes) > 0 && !system.Monolithic && len(system.Chiplets) > 1 {
		return sweep(w, system, db, nodes, maxCombos, topN)
	}
	return nil
}

func printBreakdown(w io.Writer, rep *core.Report) error {
	t := report.New("per-chiplet breakdown: "+rep.System, "",
		"chiplet", "type", "node_nm", "area_mm2", "yield", "cmfg_kg", "cdes_amortized_kg")
	for _, c := range rep.Chiplets {
		t.AddRow(c.Name, c.Type.String(), report.I(c.NodeNm), report.F(c.AreaMM2),
			report.F(c.Yield), report.F(c.MfgKg), report.F(c.DesignKgAmortized))
	}
	if err := t.Fprint(w); err != nil {
		return err
	}

	s := report.New("carbon summary (kg CO2e)", "",
		"cmfg", "cdes", "chi", "cemb", "cop_lifetime", "ctot")
	s.AddRow(report.F(rep.MfgKg), report.F(rep.DesignKg), report.F(rep.HIKg),
		report.F(rep.EmbodiedKg()), report.F(rep.OperationalKg), report.F(rep.TotalKg()))
	return s.Fprint(w)
}

// sweep evaluates every node combination over the chiplets (bounded by
// maxCombos) and prints the best designs by embodied carbon.
func sweep(w io.Writer, base *core.System, db *tech.DB, nodes []int, maxCombos, topN int) error {
	nc := len(base.Chiplets)
	combos := 1
	for i := 0; i < nc; i++ {
		combos *= len(nodes)
		if combos > maxCombos {
			return fmt.Errorf("ecochip: %d^%d node combinations exceed --max_combos=%d",
				len(nodes), nc, maxCombos)
		}
	}
	results, err := explore.NodeSweepCtx(context.Background(), base, db, nodes, cost.DefaultParams())
	if err != nil {
		return err
	}
	sort.Slice(results, func(i, j int) bool { return results[i].EmbodiedKg < results[j].EmbodiedKg })
	if topN > len(results) {
		topN = len(results)
	}
	t := report.New(fmt.Sprintf("best %d of %d node combinations (by C_emb)", topN, len(results)), "",
		"nodes", "cemb_kg", "ctot_kg")
	for _, r := range results[:topN] {
		t.AddRow(r.Label(), report.F(r.EmbodiedKg), report.F(r.TotalKg))
	}
	return t.Fprint(w)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ecochip:", err)
	os.Exit(1)
}
