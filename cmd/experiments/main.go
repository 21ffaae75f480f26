// Command experiments regenerates the paper's tables and figures on
// the simulated machine. Each flag selects one artifact; -all runs the
// full evaluation (slow). The selected artifacts read one store of
// seeded runs (internal/experiments), so a cell two of them share runs
// once. See EXPERIMENTS.md for recorded outputs and
// the comparison against the paper. A sweep in which any cell failed
// prints every table, its FAILED footers and then exits 1. One cell
// alone, with every counter, is cmd/tssim's job: `tssim -workload W
// -tech T -scale 2 -verbose`.
package main

import (
	"flag"
	"fmt"
	"os"

	"tssim/internal/cli"
	"tssim/internal/experiments"
)

func main() {
	shared := cli.Register(flag.CommandLine, 2, 3)
	// artifacts are printed in this order, under -all every one of them.
	artifacts := []struct {
		flag, usage string
		plan        func(experiments.Params) experiments.Artifact
	}{
		{"table1", "print machine parameters (paper Table 1)", experiments.Table1},
		{"table2", "workload characteristics (paper Table 2)", experiments.Table2},
		{"fig6", "stale-storage capacity study (paper Figure 6)", experiments.Fig6},
		{"fig7", "performance comparison (paper Figure 7)", experiments.Fig7},
		{"fig8", "address transactions (paper Figure 8)", experiments.Fig8},
		{"slestats", "SLE attempt/failure statistics (paper §4.2.3)", experiments.SLEStats},
		{"ablation", "validate-predictor tuning sweep (paper §2.4)", experiments.PredictorAblation},
		{"misses", "miss classification and false-sharing fractions (§5.3.2)", experiments.MissBreakdown},
		{"scaling", "communication-miss elimination at 4/8/16 CPUs (use -interconnect directory for the interesting case)", experiments.Scaling},
	}
	on := make([]*bool, len(artifacts))
	for i, a := range artifacts {
		on[i] = flag.Bool(a.flag, false, a.usage)
	}
	all := flag.Bool("all", false, "run everything")
	flag.Parse()

	stop, err := shared.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	p := experiments.Params{Machine: shared.Config(), Scale: shared.Scale, Seeds: shared.Seeds,
		Jobs: shared.Jobs, Telemetry: shared.Telemetry}
	var plans []func(experiments.Params) experiments.Artifact
	for i, a := range artifacts {
		if *on[i] || *all {
			plans = append(plans, a.plan)
		}
	}
	if len(plans) == 0 {
		stop()
		flag.Usage()
		os.Exit(2)
	}
	out, failed := run(p, plans...)
	fmt.Print(out)
	stop()
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "%d cells failed (FAILED above)\n", len(failed))
		os.Exit(1)
	}
}

// run is experiments.Run; a test swaps in a failing store without
// simulating one.
var run = experiments.Run
