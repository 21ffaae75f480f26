// Benchmarks regenerating each of the paper's tables and figures, one
// bench per artifact (run with `go test -bench=. -benchmem`). Each
// bench executes a reduced-scale version of the corresponding
// experiment from internal/experiments — the full-scale numbers
// recorded in EXPERIMENTS.md come from cmd/experiments.
//
// Custom metrics attached to the speedup benches report the simulated
// outcome (cycles, speedup vs baseline) so the benchmark output itself
// carries the reproduction's headline numbers, not just wall time.
package main

import (
	"io"
	"runtime"
	"testing"
	"time"

	"tssim/internal/experiments"
	"tssim/internal/sim"
	"tssim/internal/telemetry"
	"tssim/internal/trace"
	"tssim/internal/workload"
)

func benchParams() experiments.Params {
	return experiments.Params{CPUs: 4, Scale: 1, Seeds: 1}
}

// runPair runs one workload under the baseline and one technique,
// reporting the speedup as a custom metric.
func runPair(b *testing.B, name string, tech sim.Techniques) {
	b.Helper()
	w, err := workload.ByName(name, workload.Params{CPUs: 4, Scale: 1, UnsafeISyncEvery: 3})
	if err != nil {
		b.Fatal(err)
	}
	var base, measured uint64
	for i := 0; i < b.N; i++ {
		cfg := sim.ExperimentConfig()
		r0 := sim.RunOne(cfg, w)
		cfg.Tech = tech
		r1 := sim.RunOne(cfg, w)
		base, measured = r0.Cycles, r1.Cycles
	}
	b.ReportMetric(float64(base), "baseline-cycles")
	b.ReportMetric(float64(measured), "technique-cycles")
	b.ReportMetric(float64(base)/float64(measured), "speedup")
}

// --- Table 2: workload characteristics ---

func BenchmarkTable2_Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Table2(benchParams())
	}
}

// --- Figure 6: stale-storage capacity study ---

func BenchmarkFig6_StaleStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig6(benchParams())
	}
}

// --- Figure 7: per-workload, per-technique speedups ---

func BenchmarkFig7_Ocean_EMESTI(b *testing.B) {
	runPair(b, "ocean", sim.Techniques{MESTI: true, EMESTI: true})
}

func BenchmarkFig7_Radiosity_SLE(b *testing.B) {
	runPair(b, "radiosity", sim.Techniques{SLE: true})
}

func BenchmarkFig7_Raytrace_EMESTI_SLE(b *testing.B) {
	runPair(b, "raytrace", sim.Techniques{MESTI: true, EMESTI: true, SLE: true})
}

func BenchmarkFig7_SpecJBB_MESTI(b *testing.B) {
	runPair(b, "specjbb", sim.Techniques{MESTI: true})
}

func BenchmarkFig7_SpecWeb_LVP(b *testing.B) {
	runPair(b, "specweb", sim.Techniques{LVP: true})
}

func BenchmarkFig7_TPCB_EMESTI(b *testing.B) {
	runPair(b, "tpc-b", sim.Techniques{MESTI: true, EMESTI: true})
}

func BenchmarkFig7_TPCH_LVP(b *testing.B) {
	runPair(b, "tpc-h", sim.Techniques{LVP: true})
}

func BenchmarkFig7_TPCB_AllCombined(b *testing.B) {
	runPair(b, "tpc-b", sim.Techniques{MESTI: true, EMESTI: true, LVP: true, SLE: true})
}

// --- Figure 7 matrix wall-clock: serial vs parallel run manager ---
//
// The full Fig 7 sweep (7 workloads × 9 combos × seeds) is the
// harness's dominant wall-clock cost; the parallel Runner fans the
// independent runs across GOMAXPROCS workers. BenchmarkFig7_Serial
// pins the pool to one worker; BenchmarkFig7_Parallel uses the
// default pool and reports `parallel-speedup` — serial wall-clock over
// parallel wall-clock for the identical job matrix (the rendered
// tables are byte-identical, per TestParallelExperimentsIdentical).
// Expect ≥ 2× at GOMAXPROCS ≥ 4; on a single-core host it degrades
// gracefully to ~1×.

func fig7BenchParams(jobs int) experiments.Params {
	return experiments.Params{CPUs: 4, Scale: 1, Seeds: 1, Jobs: jobs}
}

func BenchmarkFig7_Serial(b *testing.B) {
	p := fig7BenchParams(1)
	for i := 0; i < b.N; i++ {
		_, _ = experiments.Fig7(p)
	}
}

func BenchmarkFig7_Parallel(b *testing.B) {
	// One serial pass outside the timer anchors the speedup metric.
	start := time.Now()
	_, _ = experiments.Fig7(fig7BenchParams(1))
	serial := time.Since(start)

	p := fig7BenchParams(0) // GOMAXPROCS workers
	// The telemetry collector rides along so the benchmark can report
	// the runner-diagnosis ratios next to parallel-speedup: a bad
	// speedup arrives with its explanation (idle workers? GC pauses?
	// construction overhead?). Collection is per-job bookkeeping,
	// invisible at benchmark scale, and benchjson records the fields
	// into BENCH_<n>.json.
	tel := telemetry.New()
	p.Telemetry = tel
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = experiments.Fig7(p)
	}
	perIter := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(serial.Nanoseconds())/perIter, "parallel-speedup")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	d := tel.Report().Diagnosis
	b.ReportMetric(d.WorkerBusyFraction, "worker-busy-fraction")
	b.ReportMetric(d.GCPauseShare, "gc-pause-share")
	b.ReportMetric(d.ConstructShare, "construct-share")
}

// --- Figure 8: address-transaction breakdown ---

func BenchmarkFig8_AddressTransactions(b *testing.B) {
	w, err := workload.ByName("tpc-b", workload.Params{CPUs: 4, Scale: 1, UnsafeISyncEvery: 3})
	if err != nil {
		b.Fatal(err)
	}
	var validates, total uint64
	for i := 0; i < b.N; i++ {
		cfg := sim.ExperimentConfig()
		cfg.Tech = sim.Techniques{MESTI: true}
		r := sim.RunOne(cfg, w)
		validates = r.Counters["bus/txn/validate"]
		total = r.Counters["bus/txn/read"] + r.Counters["bus/txn/readx"] +
			r.Counters["bus/txn/upgrade"] + validates
	}
	b.ReportMetric(float64(validates), "validates")
	b.ReportMetric(float64(total), "addr-txns")
}

// --- §4.2.3: SLE statistics ---

func BenchmarkSLE_Statistics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.SLEStats(benchParams())
	}
}

// --- §2.4: validate-predictor ablation ---

func BenchmarkPredictor_Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.PredictorAblation(benchParams())
	}
}

// --- §5.3.2: miss classification ---

func BenchmarkMiss_Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.MissBreakdown(benchParams())
	}
}

// --- Raw simulator throughput (not a paper artifact; sizing aid) ---

// measureSteadyStateAllocs builds a fresh machine, warms it past the
// start-up transient (cold stats interning, pool growth, map rehashes),
// then counts heap allocations across a measured window of cycles via
// runtime.MemStats deltas. Mallocs/TotalAlloc are monotonic, so a GC
// during the window cannot skew the numbers. The perf-regression
// harness holds the steady-state cycle loop to zero allocations.
func measureSteadyStateAllocs(cfg sim.Config, w sim.Workload, warmup, window uint64) (allocsPerCycle, bytesPerCycle float64) {
	s := sim.New(cfg, w)
	for i := uint64(0); i < warmup; i++ {
		s.Step()
	}
	var m0, m1 runtime.MemStats
	// Quiesce the collector before opening the window: with a zero-alloc
	// window no GC can trigger inside it, so any background-GC bookkeeping
	// allocations from prior benchmark iterations don't leak into the
	// delta. The sim is deterministic, so this only removes runtime
	// noise, never simulator allocations.
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := uint64(0); i < window; i++ {
		s.Step()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(window),
		float64(m1.TotalAlloc-m0.TotalAlloc) / float64(window)
}

// BenchmarkSimulatorThroughput is the headline ns-per-simulated-cycle
// number benchjson records. The workload is specjbb — the idle-heavy
// extreme (IPC ~0.34, ~70% of cycles skipped) — so the number
// reflects the next-event fast-forward path that dominates real
// sweeps; ff-skip-fraction travels with it so a skip collapse is
// visible next to the wall-time regression it causes. Cycle counts
// are architectural: ns/sim-cycle divides by simulated cycles, not
// host loop iterations, and is therefore comparable across BENCH
// generations regardless of how many of those cycles were skipped.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, err := workload.ByName("specjbb", workload.Params{CPUs: 4, Scale: 1})
	if err != nil {
		b.Fatal(err)
	}
	var cycles, retired, skipped uint64
	for i := 0; i < b.N; i++ {
		cfg := sim.ExperimentConfig()
		r := sim.RunOne(cfg, w)
		cycles, retired, skipped = r.Cycles, r.Retired, r.SkippedCycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
	b.ReportMetric(float64(retired), "sim-instrs")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/sim-cycle")
	b.ReportMetric(float64(skipped)/float64(cycles), "ff-skip-fraction")
	b.StopTimer()
	// The zero-alloc probe stays on raytrace: specjbb's working set
	// grows for the whole run, so its memory image lazily materializes
	// lines in steady state (~0.02 allocs/cycle) and would mask a real
	// leak in the simulator machinery behind workload-inherent noise.
	// Raytrace's working set is touched entirely within the warmup,
	// which is what makes the exact-zero guard meaningful.
	aw, err := workload.ByName("raytrace", workload.Params{CPUs: 4, Scale: 1})
	if err != nil {
		b.Fatal(err)
	}
	allocs, bytes := measureSteadyStateAllocs(sim.ExperimentConfig(), aw, 20_000, 40_000)
	b.ReportMetric(allocs, "allocs/sim-cycle")
	b.ReportMetric(bytes, "B/sim-cycle")
}

// BenchmarkSimulatorThroughputTPCB is the compute-bound twin of
// BenchmarkSimulatorThroughput: tpc-b keeps every core busy nearly
// every cycle (skip fraction ~0.01), so this number isolates the
// active-path kernel cost that fast-forward cannot hide. benchjson
// records it as ns_per_sim_cycle_tpcb next to the idle-heavy headline
// metric; regressions here mean the per-cycle work got more expensive,
// not that quiescence detection changed.
func BenchmarkSimulatorThroughputTPCB(b *testing.B) {
	w, err := workload.ByName("tpc-b", workload.Params{CPUs: 4, Scale: 1})
	if err != nil {
		b.Fatal(err)
	}
	var cycles, retired, skipped uint64
	for i := 0; i < b.N; i++ {
		cfg := sim.ExperimentConfig()
		r := sim.RunOne(cfg, w)
		cycles, retired, skipped = r.Cycles, r.Retired, r.SkippedCycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
	b.ReportMetric(float64(retired), "sim-instrs")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/sim-cycle")
	b.ReportMetric(float64(skipped)/float64(cycles), "ff-skip-fraction")
}

// BenchmarkSimulatorThroughputSplitBus is the headline workload on the
// split-transaction bus backend. benchjson records it as
// ns_per_sim_cycle_splitbus; the delta against the atomic-bus headline
// is the cost of the split address/data arbitration bookkeeping.
func BenchmarkSimulatorThroughputSplitBus(b *testing.B) {
	benchThroughputBackend(b, "splitbus")
}

// BenchmarkSimulatorThroughputDirectory is the headline workload on the
// directory backend (ns_per_sim_cycle_directory): per-line sharer
// bookkeeping and targeted probes instead of broadcast snooping.
func BenchmarkSimulatorThroughputDirectory(b *testing.B) {
	benchThroughputBackend(b, "directory")
}

func benchThroughputBackend(b *testing.B, kind string) {
	w, err := workload.ByName("specjbb", workload.Params{CPUs: 4, Scale: 1})
	if err != nil {
		b.Fatal(err)
	}
	var cycles, retired, skipped uint64
	for i := 0; i < b.N; i++ {
		cfg := sim.ExperimentConfig()
		cfg.Interconnect = kind
		r := sim.RunOne(cfg, w)
		cycles, retired, skipped = r.Cycles, r.Retired, r.SkippedCycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
	b.ReportMetric(float64(retired), "sim-instrs")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/sim-cycle")
	b.ReportMetric(float64(skipped)/float64(cycles), "ff-skip-fraction")
}

// BenchmarkSimulatorThroughputNoFF is the same machine and workload
// with fast-forward disabled: the naive every-cycle loop. The ratio of
// the two ns/sim-cycle numbers is the fast-forward speedup on an
// idle-heavy workload (results are bit-identical either way, per
// TestFastForwardBitIdentical).
func BenchmarkSimulatorThroughputNoFF(b *testing.B) {
	w, err := workload.ByName("specjbb", workload.Params{CPUs: 4, Scale: 1})
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := sim.ExperimentConfig()
		cfg.NoFastForward = true
		r := sim.RunOne(cfg, w)
		cycles = r.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/sim-cycle")
}

// --- Observability overhead guard ---
//
// The tracer is designed to be free when absent (nil *Tracer, value
// events). Compare ns per simulated cycle across tracer modes:
// `disabled` must track BenchmarkSimulatorThroughput within noise
// (the ISSUE budget is < 2%), `ring` and `jsonl` quantify the cost of
// turning tracing on.
func BenchmarkTracingOverhead(b *testing.B) {
	w, err := workload.ByName("tpc-b", workload.Params{CPUs: 4, Scale: 1, UnsafeISyncEvery: 3})
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name   string
		tracer func() *trace.Tracer
	}{
		{"disabled", func() *trace.Tracer { return nil }},
		{"ring", func() *trace.Tracer { return trace.New(0, nil) }},
		{"jsonl", func() *trace.Tracer { return trace.New(0, trace.NewJSONLSink(io.Discard)) }},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := sim.ExperimentConfig()
				cfg.Tech = sim.Techniques{MESTI: true, EMESTI: true}
				cfg.Trace = m.tracer()
				r := sim.RunOne(cfg, w)
				cfg.Trace.Close()
				cycles = r.Cycles
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/sim-cycle")
		})
	}
}
