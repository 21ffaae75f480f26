// Command tssim runs one workload on the simulated multiprocessor
// under a chosen technique combination and prints the result summary
// and counters. It is the quick single-run CLI; cmd/experiments
// regenerates the paper's full tables and figures.
//
//	tssim -workload tpc-b -tech emesti+lvp -scale 2 -verbose
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"tssim/internal/cli"
	"tssim/internal/litmus"
	"tssim/internal/sim"
	"tssim/internal/telemetry"
	"tssim/internal/trace"
	"tssim/internal/workload"
)

// litmusShapeMain runs one litmus shape from the library on the tiny
// litmus machine with both checkers attached. Without -enumerate it
// is a single run under the chosen -tech (and kernel path), printing
// the observed outcome against the TSO model's allowed set. With
// -enumerate it sweeps the exhaustive schedule-perturbation grid —
// per-CPU start offsets and delays, bus arbitration rotation, all
// nine technique combos, both kernel paths — and compares reachable
// vs allowed outcomes in both directions: an outcome outside the set
// is a coherence bug (exit 1), an allowed-but-unreached outcome is
// reported as a coverage gap.
func litmusShapeMain(name string, enumerate bool, tech sim.Techniques, noFF bool, interconnect string) int {
	s := litmus.ShapeByName(name)
	if s == nil {
		fmt.Fprintf(os.Stderr, "unknown shape %q; have: %s\n", name, strings.Join(litmus.ShapeNames(), " "))
		return 2
	}
	if !enumerate {
		oc, err := litmus.RunShape(s, litmus.Variant{Tech: tech, NoFF: noFF, Seed: 1, Interconnect: interconnect})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("shape %s (%s)\nunder %s: observed %s\nallowed: %v\n", s.Name, s.Doc, tech, oc, s.AllowedList())
		if !s.Allowed()[oc] {
			fmt.Println("VIOLATION: outcome outside the allowed set")
			return 1
		}
		return 0
	}
	knobs := litmus.DefaultKnobs(sim.AllCombos())
	knobs.Interconnect = interconnect
	if s.CPUs() > 2 {
		// The per-CPU axes are exponential in CPU count; trim them so
		// the 4-core IRIW shapes stay tractable.
		knobs.Offsets = []uint64{0, 320}
		knobs.ArbStarts = []int{0}
	}
	rep := litmus.Enumerate(s, knobs)
	fmt.Print(rep)
	if !rep.OK() {
		return 1
	}
	return 0
}

// fail reports a failed run on errw — the captured post-mortem, then one
// error line — and returns the exit status.
func fail(errw io.Writer, err error) int {
	var re *sim.RunError
	if errors.As(err, &re) {
		io.WriteString(errw, re.PostMortem)
	}
	fmt.Fprintln(errw, err)
	return 1
}

// render prints one run's outcome and returns the exit status: the
// summary, and under verbose every counter and histogram. A failed run
// is reported on errw first (fail) and still prints what it reached —
// under verbose, the counters it accumulated before it stopped.
func render(out, errw io.Writer, r sim.Result, verbose bool) int {
	code := 0
	if r.Err != nil {
		code = fail(errw, r.Err)
	}
	fmt.Fprintf(out, "%s under %s\n", r.Workload, r.Tech)
	fmt.Fprintf(out, "  cycles    %d\n", r.Cycles)
	fmt.Fprintf(out, "  retired   %d (IPC %.3f)\n", r.Retired, r.IPC())
	fmt.Fprintf(out, "  finished  %v\n", r.Finished)
	fmt.Fprintf(out, "  misses    comm=%d mem=%d\n", r.Counters["miss/comm"], r.Counters["miss/mem"])
	fmt.Fprintf(out, "  bus txns  read=%d readx=%d upgrade=%d validate=%d wb=%d\n",
		r.Counters["bus/txn/read"], r.Counters["bus/txn/readx"],
		r.Counters["bus/txn/upgrade"], r.Counters["bus/txn/validate"],
		r.Counters["bus/txn/writeback"])
	if verbose {
		for _, k := range sortedKeys(r.Counters) {
			fmt.Fprintf(out, "  %-36s %d\n", k, r.Counters[k])
		}
		for _, k := range sortedKeys(r.Hists) {
			fmt.Fprintf(out, "  %-24s %s\n", k, r.Hists[k])
		}
	}
	return code
}

// sortedKeys returns m's keys in order: -verbose prints maps by name.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// options are tssim's own flags; the ones it shares with cmd/experiments
// live in internal/cli.
type options struct {
	workload, tech string
	verbose        bool
	litmusShape    string
	enumerate      bool
	trace, report  string
}

func main() {
	shared := cli.Register(flag.CommandLine, 1, 1)
	var o options
	flag.StringVar(&o.workload, "workload", "tpc-b", "workload: "+strings.Join(workload.Names(), "|"))
	flag.StringVar(&o.tech, "tech", "baseline", "technique combo: baseline, all, or mesti|emesti|lvp|sle joined with +, e.g. emesti+lvp")
	flag.BoolVar(&o.verbose, "verbose", false, "dump all event counters and histograms")
	flag.StringVar(&o.litmusShape, "litmus-shape", "", "run one memory-model litmus shape instead of a workload: "+strings.Join(litmus.ShapeNames(), "|"))
	flag.BoolVar(&o.enumerate, "enumerate", false, "with -litmus-shape: exhaustively sweep the schedule-perturbation grid (all combos, both kernel paths) and compare reachable vs TSO-allowed outcomes")
	flag.StringVar(&o.trace, "trace", "", "write a coherence event trace to this file")
	flag.StringVar(&o.report, "report", "", "write a machine-readable JSON run report to this file")
	flag.Parse()
	if err := o.validate(flag.CommandLine); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	stop, err := shared.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	code := run(shared, o)
	stop()
	os.Exit(code)
}

// validate refuses, before any file is created or port bound, the
// flags the chosen mode would not read: -enumerate without a shape, and
// beside -litmus-shape all but the litmus flags and the profilers.
func (o options) validate(fs *flag.FlagSet) error {
	if o.litmusShape == "" {
		if o.enumerate {
			return errors.New("-enumerate requires -litmus-shape")
		}
		return nil
	}
	reads := map[string]bool{"litmus-shape": true, "enumerate": true, "interconnect": true,
		"cpuprofile": true, "memprofile": true,
		"tech": !o.enumerate, "no-fastforward": !o.enumerate}
	mode := "-litmus-shape"
	if o.enumerate {
		mode += " -enumerate (it sweeps every combo on both kernel paths)"
	}
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if !reads[f.Name] {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		return fmt.Errorf("%s: not read with %s", strings.Join(unread, " "), mode)
	}
	return nil
}

// run is main after the shared flags are validated and their profilers
// and telemetry started; it returns the exit status (2 for the usage
// errors in tssim's own flags).
func run(shared *cli.Flags, o options) int {
	usage := func(err error) int {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cfg := shared.Config()
	var err error
	if cfg.Tech, err = sim.ParseTechniques(o.tech); err != nil {
		return usage(err)
	}
	if o.litmusShape != "" {
		return litmusShapeMain(o.litmusShape, o.enumerate, cfg.Tech, cfg.NoFastForward, cfg.Interconnect)
	}
	w, err := workload.ByName(o.workload, workload.Params{CPUs: cfg.CPUs, Scale: shared.Scale, UnsafeISyncEvery: 3})
	if err != nil {
		return usage(err)
	}
	runner := sim.NewRunner().Jobs(shared.Jobs).Collect(shared.Telemetry)

	if shared.Seeds > 1 {
		if o.trace != "" || o.report != "" {
			return usage(errors.New("-trace and -report record a single run; use -seeds 1"))
		}
		s, err := runner.Sample(cfg, w, shared.Seeds)
		if err != nil {
			return fail(os.Stderr, err)
		}
		fmt.Printf("%s under %s: %d runs, cycles %.0f ±%.0f (95%% CI), min %.0f max %.0f\n",
			w.Name, cfg.Tech, s.N(), s.Mean(), s.CI95(), s.Min(), s.Max())
		return 0
	}
	if o.trace != "" {
		f, err := os.Create(o.trace)
		if err != nil {
			return usage(err)
		}
		cfg.Trace = trace.New(trace.NewJSONLSink(f))
	}
	// One job through the Runner: with telemetry flags the single run
	// gets the same heartbeats, /status endpoint and runner-stats report
	// as a sweep, and without them the Runner reads no clock.
	r := runner.RunAll([]sim.Job{{Cfg: cfg, W: w}})[0]
	code := render(os.Stdout, os.Stderr, r, o.verbose)
	if cfg.Trace != nil {
		if err := cfg.Trace.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "trace: %d events -> %s\n", cfg.Trace.Total(), o.trace)
	}
	if o.report != "" && r.Err == nil {
		if err := telemetry.WriteJSONFile(o.report, sim.NewReport(cfg, r)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "report -> %s\n", o.report)
	}
	return code
}
