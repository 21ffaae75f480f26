package experiments

import (
	"os"
	"strings"
	"testing"

	"tssim/internal/sim"
	"tssim/internal/telemetry"
	"tssim/internal/workload"
)

func small() Params { return Params{Scale: 1, Seeds: 1}.withDefaults() }

// Table 1 prints the machine's constants and default configuration;
// testdata/table1_golden.txt holds every byte of it.
func TestTable1Renders(t *testing.T) {
	want, err := os.ReadFile("testdata/table1_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if out := Table1(); out != string(want) {
		t.Errorf("Table1 differs from testdata/table1_golden.txt:\n%s", out)
	}
}

func TestTable2AllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	out := Table2(small())
	for _, name := range workload.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("Table2 missing %q", name)
		}
	}
}

func TestFig6Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Structural check: the table renders with all four variants; the
	// quantitative ordering (finite detectors between baseline and
	// perfect) is asserted per-workload in the sim tests and recorded
	// in EXPERIMENTS.md.
	out := Fig6(small())
	for _, want := range []string{"MESTI 32KB stale", "MESTI 128KB stale", "MESTI full stale"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig6 missing %q", want)
		}
	}
}

func TestHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	p := small()
	wp := p.workloadParams()

	// tpc-b: E-MESTI eliminates communication misses (the paper's
	// flagship result).
	w, err := workload.ByName("tpc-b", wp)
	if err != nil {
		t.Fatal(err)
	}
	base := sim.RunOne(p.config(sim.Techniques{}), w)
	em := sim.RunOne(p.config(sim.Techniques{MESTI: true, EMESTI: true}), w)
	if em.Counters["miss/comm"] >= base.Counters["miss/comm"] {
		t.Errorf("tpc-b comm misses: E-MESTI %d >= baseline %d",
			em.Counters["miss/comm"], base.Counters["miss/comm"])
	}

	// specjbb: plain MESTI must emit far more validates than E-MESTI
	// suppressed ones leave over (the useless-validate story).
	w, err = workload.ByName("specjbb", wp)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.RunOne(p.config(sim.Techniques{MESTI: true}), w)
	em = sim.RunOne(p.config(sim.Techniques{MESTI: true, EMESTI: true}), w)
	if em.Counters["bus/txn/validate"] >= m.Counters["bus/txn/validate"] {
		t.Errorf("specjbb validates: E-MESTI %d >= MESTI %d (predictor not suppressing)",
			em.Counters["bus/txn/validate"], m.Counters["bus/txn/validate"])
	}

	// raytrace: SLE must actually elide critical sections.
	w, err = workload.ByName("raytrace", wp)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.RunOne(p.config(sim.Techniques{SLE: true}), w)
	if s.Counters["sle/success"] == 0 {
		t.Error("raytrace: SLE never elided")
	}

	// tpc-h: LVP predictions on the falsely shared accumulators must
	// overwhelmingly verify (the false-sharing catch of §5.3.2).
	w, err = workload.ByName("tpc-h", wp)
	if err != nil {
		t.Fatal(err)
	}
	l := sim.RunOne(p.config(sim.Techniques{LVP: true}), w)
	ok, fail := l.Counters["lvp/verify_ok"], l.Counters["lvp/verify_fail"]
	if ok == 0 || ok < fail {
		t.Errorf("tpc-h LVP ok=%d fail=%d: false-sharing predictions should dominate", ok, fail)
	}
}

func TestSLEStatsRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	out := SLEStats(small())
	if !strings.Contains(out, "NoRelease") || !strings.Contains(out, "tpc-b") {
		t.Errorf("SLEStats output malformed:\n%s", out)
	}
}

// TestParallelExperimentsIdentical renders the same artifacts through
// a single-worker and an 8-worker pool: the job-order result contract
// means the output strings must match byte for byte.
func TestParallelExperimentsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	serial := small()
	serial.Jobs = 1
	par := small()
	par.Jobs = 8
	if got, want := Table2(par), Table2(serial); got != want {
		t.Errorf("Table2 differs under -j 8:\n-j1:\n%s\n-j8:\n%s", want, got)
	}
	if got, want := SLEStats(par), SLEStats(serial); got != want {
		t.Errorf("SLEStats differs under -j 8:\n-j1:\n%s\n-j8:\n%s", want, got)
	}
}

// TestFailNotesReportsCells: a sweep with a failed run renders a
// FAILED line naming the workload and technique so -all can continue
// past a livelocked configuration without hiding it.
func TestFailNotesReportsCells(t *testing.T) {
	results := []sim.Result{
		{Workload: "ok-cell"},
		{Workload: "bad-cell", Tech: sim.Techniques{SLE: true},
			Err: &sim.RunError{Workload: "bad-cell", Tech: sim.Techniques{SLE: true}, Reason: "deadlock"}},
	}
	notes := failNotes(results)
	if !strings.Contains(notes, "FAILED bad-cell under SLE") || !strings.Contains(notes, "deadlock") {
		t.Errorf("failure footer malformed: %q", notes)
	}
	if strings.Contains(notes, "ok-cell") {
		t.Errorf("healthy cell listed as failed: %q", notes)
	}
}

// TestTelemetryOutputByteIdentical is the acceptance guard for the
// observability layer: attaching a collector must leave every rendered
// artifact byte-identical, because telemetry observes the harness
// without touching what it renders.
func TestTelemetryOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	plain := small()
	instrumented := small()
	instrumented.Telemetry = telemetry.New()

	for name, render := range map[string]func(Params) string{
		"Table2":        Table2,
		"MissBreakdown": MissBreakdown,
	} {
		want := render(plain)
		if got := render(instrumented); got != want {
			t.Errorf("%s differs with a collector attached:\nplain:\n%s\ninstrumented:\n%s", name, want, got)
		}
	}

	// The collector must actually have seen those sweeps.
	if rep := instrumented.Telemetry.Report(); rep.JobsDone == 0 {
		t.Error("collector attached to the sweep recorded no jobs")
	}
}
