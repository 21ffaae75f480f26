// Command experiments regenerates the paper's tables and figures on
// the simulated machine. Each flag selects one artifact; -all runs the
// full evaluation (slow). See EXPERIMENTS.md for recorded outputs and
// the comparison against the paper. One cell alone, with every counter,
// is cmd/tssim's job: `tssim -workload W -tech T -scale 2 -verbose`.
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
	var (
		table1   = flag.Bool("table1", false, "print machine parameters (paper Table 1)")
		table2   = flag.Bool("table2", false, "workload characteristics (paper Table 2)")
		fig6     = flag.Bool("fig6", false, "stale-storage capacity study (paper Figure 6)")
		fig7     = flag.Bool("fig7", false, "performance comparison (paper Figure 7)")
		fig8     = flag.Bool("fig8", false, "address transactions (paper Figure 8)")
		slestats = flag.Bool("slestats", false, "SLE attempt/failure statistics (paper §4.2.3)")
		ablation = flag.Bool("ablation", false, "validate-predictor tuning sweep (paper §2.4)")
		misses   = flag.Bool("misses", false, "miss classification and false-sharing fractions (§5.3.2)")
		scaling  = flag.Bool("scaling", false, "communication-miss elimination at 4/8/16 CPUs (use -interconnect directory for the interesting case)")
		all      = flag.Bool("all", false, "run everything")
	)
	flag.Parse()

	stop, err := shared.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	p := experiments.Params{Machine: shared.Config(), Scale: shared.Scale, Seeds: shared.Seeds,
		Jobs: shared.Jobs, Telemetry: shared.Telemetry}

	ran := false
	if *table1 || *all {
		fmt.Println("== Table 1: simulated machine parameters ==")
		fmt.Println(experiments.Table1())
		ran = true
	}
	if *table2 || *all {
		fmt.Println("== Table 2: workload characteristics ==")
		fmt.Println(experiments.Table2(p))
		ran = true
	}
	if *fig6 || *all {
		fmt.Println("== Figure 6: communication misses vs stale-storage capacity ==")
		fmt.Println(experiments.Fig6(p))
		ran = true
	}
	if *fig7 || *all {
		fmt.Println("== Figure 7: performance (speedup over baseline) ==")
		out, _ := experiments.Fig7(p)
		fmt.Println(out)
		ran = true
	}
	if *fig8 || *all {
		fmt.Println("== Figure 8: address transactions ==")
		fmt.Println(experiments.Fig8(p))
		ran = true
	}
	if *slestats || *all {
		fmt.Println("== SLE statistics (§4.2.3) ==")
		fmt.Println(experiments.SLEStats(p))
		ran = true
	}
	if *ablation || *all {
		fmt.Println("== Validate-predictor ablation (§2.4, tpc-b) ==")
		fmt.Println(experiments.PredictorAblation(p))
		ran = true
	}
	if *misses || *all {
		fmt.Println("== Miss classification (§5.3.2) ==")
		fmt.Println(experiments.MissBreakdown(p))
		ran = true
	}
	if *scaling || *all {
		label := p.Machine.Interconnect
		if label == "" {
			label = "bus"
		}
		fmt.Printf("== Scaling: communication-miss elimination (%s backend) ==\n", label)
		fmt.Println(experiments.Scaling(p, nil))
		ran = true
	}
	stop()
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
