package sim

import (
	"io"
	"runtime"
	"testing"

	"tssim/internal/trace"
	"tssim/internal/workload"
)

// Two guards on what a simulated cycle costs the host that the
// benchmark (bench/, its own module) does not carry: the steady-state
// loop allocates nothing, exactly, and the event tracer's price when it
// is off and on. The skip-fraction floors are in
// TestFastForwardBitIdentical.

// TestSteadyStateLoopAllocatesNothing steps a warmed-up machine through
// three windows of cycles and requires one of them to see no heap
// allocation at all. Mallocs is monotonic, so a collection inside a
// window cannot hide one; what it does count is the runtime's own noise
// (a handful of objects in some windows, never in all three), which is
// why the minimum is taken and why it must be exactly zero: one append
// per Step is 40 000 a window. raytrace touches its whole working set
// inside the warm-up — specjbb's grows for the whole run and its memory
// image keeps materializing lines — and at scale 3 its first core halts
// near cycle 197 000, past the last window: every window measures a
// running machine.
func TestSteadyStateLoopAllocatesNothing(t *testing.T) {
	const warmup, window, windows = 20_000, 40_000, 3
	w, err := workload.ByName("raytrace", workload.Params{CPUs: 4, Scale: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := New(ExperimentConfig(), w)
	for i := 0; i < warmup; i++ {
		s.Step()
	}
	least := ^uint64(0)
	var m0, m1 runtime.MemStats
	for n := 0; n < windows; n++ {
		// Finish any collection in progress so its bookkeeping is not
		// charged to the window.
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < window; i++ {
			s.Step()
		}
		runtime.ReadMemStats(&m1)
		least = min(least, m1.Mallocs-m0.Mallocs)
	}
	if s.haltedCores != 0 {
		t.Fatalf("%d cores had halted by cycle %d: the last window measured a machine that was stopping", s.haltedCores, s.now)
	}
	if least != 0 {
		t.Fatalf("the steady-state loop allocates: at least %d mallocs in each of %d windows of %d cycles", least, windows, window)
	}
}

// BenchmarkTracingOverhead prices the event tracer on the run loop: ns
// per simulated cycle of tpc-b under E-MESTI with no tracer (a nil
// *Tracer: every event site pays one nil check), a ring-only tracer and
// a JSONL sink.
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
		{"ring", func() *trace.Tracer { return trace.New(nil) }},
		{"jsonl", func() *trace.Tracer { return trace.New(trace.NewJSONLSink(io.Discard)) }},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := ExperimentConfig()
				cfg.Tech = Techniques{MESTI: true, EMESTI: true}
				cfg.Trace = m.tracer()
				r := RunOne(cfg, w)
				cfg.Trace.Close()
				cycles = r.Cycles
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/sim-cycle")
		})
	}
}
