// Command bench is tssim's one benchmark: the host cost of a retired
// instruction on four workloads, measured end to end with tracing off,
// and a separate traced pass that says which layer the time went to.
// README.md describes the metrics, the workloads and the estimator;
// ../BENCHMARK.json is the contract the tests hold this program to.
//
//	go run -C bench . [-seed N] [-workload NAME] [-out FILE] [-quick]
//	go run -C bench . -compare A.json B.json
//	go run -C bench . -update-golden golden.json
//
// The benchmark driver runs one workload per process instead:
//
//	bash bench/driver.sh --workload NAME --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"tssim/internal/sim"
)

const schema = "tssim-benchmark/v1"

// A document is the full run's output: every metric by name with its
// unit, per workload, and the facts of the host it was measured on.
type document struct {
	Schema string `json:"schema"`
	// Comparable is false for a -quick run: its numbers are a smoke
	// test's and must not be compared with anything.
	Comparable bool          `json:"comparable"`
	Host       host          `json:"host"`
	Workloads  []workloadDoc `json:"workloads"`
}

type host struct {
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Go         string         `json:"go"`
	CPU        string         `json:"cpu_model"`
	Seed       int64          `json:"seed"`
	Reps       map[string]int `json:"reps"`
	Warnings   []string       `json:"warnings"`
}

type workloadDoc struct {
	Name      string  `json:"name"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	EndToEnd  metrics `json:"end_to_end"`
	PerLayer  metrics `json:"per_layer"`
}

func main() {
	seed := flag.Int64("seed", 0, "workload seed; 0 is checked against golden.json, any other for repeatability")
	workload := flag.String("workload", "", "run only this workload")
	out := flag.String("out", "", "write the JSON document here instead of standard output")
	quick := flag.Bool("quick", false, "smoke run: a few repetitions, no traced pass, output not comparable")
	cmp := flag.Bool("compare", false, "compare two result documents: -compare A.json B.json")
	golden := flag.String("update-golden", "", "record the seed-0 fingerprints of every cell to this file")
	seconds := flag.Float64("seconds", 10, "driver mode: how long to measure")
	traceFlag := flag.Int("trace", -1, "driver mode: 0 prints the end-to-end metrics of -workload, 1 the per-layer ones")
	flag.Parse()

	var err error
	switch {
	case *cmp:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare A.json B.json")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout); err == nil && regressed {
			os.Exit(1)
		}
	case *golden != "":
		err = updateGolden(*golden)
	case *traceFlag >= 0:
		err = driverRun(*workload, *seed, *seconds, *traceFlag == 1)
	default:
		err = fullRun(*workload, *seed, *quick, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func selected(name string) ([]spec, error) {
	if name == "" {
		return specs, nil
	}
	sp, ok := specByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return []spec{sp}, nil
}

// fullRun measures the workloads in order, untraced then traced, and
// writes the document. Any failed execution is an error.
func fullRun(name string, seed int64, quick bool, out string) error {
	run, err := selected(name)
	if err != nil {
		return err
	}
	ck, err := newChecker(seed, false)
	if err != nil {
		return err
	}
	doc := document{Schema: schema, Comparable: !quick, Host: hostFacts(seed)}
	failed := 0
	for _, sp := range run {
		runtime.GC()
		b := budget{reps: sp.reps, setupReps: 20, setupSeconds: 1}
		if quick {
			b = budget{reps: sp.quick, setupReps: 3}
		}
		doc.Host.Reps[sp.name] = b.reps
		r, err := measure(sp, seed, ck, b)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		if !quick {
			if err := layers(sp, seed, ck, r); err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
		}
		r.reportFailures(sp.name)
		failed += r.failed
		w := workloadDoc{Name: sp.name, Attempted: r.attempted, Failed: r.failed, EndToEnd: metrics{}, PerLayer: metrics{}}
		for k, v := range r.m {
			if k == "failed_share" || isEndToEnd(k) {
				w.EndToEnd[k] = v
			} else {
				w.PerLayer[k] = v
			}
		}
		if p10 := r.m["harness.rep_p10_ratio"].Value; p10 > 1.15 {
			doc.Host.Warnings = append(doc.Host.Warnings,
				fmt.Sprintf("%s: harness.rep_p10_ratio %.3f > 1.15: host too noisy to trust this run", sp.name, p10))
		}
		doc.Workloads = append(doc.Workloads, w)
		printTable(w, quick)
	}
	js, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	js = append(js, '\n')
	if out == "" {
		_, err = os.Stdout.Write(js)
	} else {
		err = os.WriteFile(out, js, 0o644)
	}
	if err == nil && failed > 0 {
		err = fmt.Errorf("%d executions failed their check", failed)
	}
	return err
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.Name == name {
			return true
		}
	}
	return false
}

func hostFacts(seed int64) host {
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		CPU: "unknown", Seed: seed, Reps: map[string]int{}, Warnings: []string{},
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if h.GOMAXPROCS == 1 {
		h.Warnings = append(h.Warnings, "GOMAXPROCS=1: the runner.* metrics are meaningless")
	}
	return h
}

// printTable is the human view of one workload, on standard error.
func printTable(w workloadDoc, quick bool) {
	label := ""
	if quick {
		label = "  [-quick: NOT COMPARABLE]"
	}
	fmt.Fprintf(os.Stderr, "\n== %s: %d executions, %d failed%s ==\n", w.Name, w.Attempted, w.Failed, label)
	for _, group := range []metrics{w.EndToEnd, w.PerLayer} {
		names := make([]string, 0, len(group))
		for k := range group {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", k, group[k].Value, group[k].Unit)
		}
	}
	if _, traced := w.PerLayer["bus.tick.share"]; traced {
		fmt.Fprintln(os.Stderr, "  (bus.tick includes the fabric's callbacks into core and cpu; cpu.tick its Load/StoreCommit calls into core and cache)")
	}
}

// driverRun is one run of the benchmark driver's protocol: one
// workload, measured for the given time, with either the end-to-end
// metrics (tracing off) or the per-layer ones, and the result as one
// JSON object on the last line of standard output.
//
// The driver compares runs of different seeds with each other, and the
// simulated machine is chaotic in its jitter seed: across ten seeds
// dir16_specjbb retired 0.99-1.85 M instructions in 0.94-1.60 s, a
// spread of ns_per_instr of 29 %. So the timed cells are always the
// seed-0 ones, which are what cmd/experiments runs and what golden.json
// pins, and the driver's seed goes to a held-back check instead.
func driverRun(name string, seed int64, seconds float64, traced bool) error {
	sp, ok := specByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	ck, err := newChecker(0, false)
	if err != nil {
		return err
	}
	b, defs := budget{seconds: seconds, minReps: 2, setupReps: 20, setupSeconds: 1}, endToEnd
	if traced {
		// The traced pass needs an untraced reference of the same
		// process to compare with; it gets the smaller part of the time.
		b, defs = budget{seconds: 0.4 * seconds, minReps: 1, setupReps: 1}, perLayer
	}
	r, err := measure(sp, 0, ck, b)
	if err != nil {
		return err
	}
	if traced {
		if err := layers(sp, 0, ck, r); err != nil {
			return err
		}
	}
	if err := heldBack(sp, seed, r); err != nil {
		return err
	}
	r.reportFailures(sp.name)
	m, err := r.m.only(defs)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, m})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// heldBack executes the first cell of each of the workload's
// generators twice on a jitter seed nothing was tuned on, and checks
// what can be checked without a golden: the run finishes,
// Workload.Validate passes, and the second execution repeats the first
// in every simulated statistic. The executions are not timed.
func heldBack(sp spec, seed int64, r *measured) error {
	cells, err := sp.cells(seed)
	if err != nil {
		return err
	}
	ck, err := newChecker(seed, false)
	if err != nil {
		return err
	}
	for _, i := range firstOfEachGenerator(cells) {
		for rep := 0; rep < 2; rep++ {
			r.note(ck.check(cells[i], sim.RunOneErr(cells[i].job.Cfg, cells[i].job.W)))
		}
	}
	return nil
}

// updateGolden records the fingerprint of every distinct cell at seed
// 0. Run it only for a change that is meant to alter simulated
// behaviour, and say so in that change.
func updateGolden(path string) error {
	ck, err := newChecker(0, true)
	if err != nil {
		return err
	}
	for _, sp := range specs {
		cells, err := sp.cells(0)
		if err != nil {
			return err
		}
		for _, c := range cells {
			if _, ok := ck.want[c.key]; ok {
				continue
			}
			if err := ck.check(c, sim.RunOneErr(c.job.Cfg, c.job.W)); err != nil {
				return err
			}
		}
	}
	keys := make([]string, 0, len(ck.want))
	for k := range ck.want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		js, err := json.Marshal(ck.want[k])
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(keys)-1 {
			sep = "\n"
		}
		fmt.Fprintf(&sb, "%q: %s%s", k, js, sep)
	}
	return os.WriteFile(path, []byte("{\n"+sb.String()+"}\n"), 0o644)
}
