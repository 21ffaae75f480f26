package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"tssim/internal/sim"
	"tssim/internal/telemetry"
	"tssim/internal/workload"
)

// every is each artifact cmd/experiments prints, in its order.
var every = []func(Params) Artifact{Table1, Table2, Fig6, Fig7, Fig8, SLEStats, PredictorAblation, MissBreakdown, Scaling}

// keySet is the set of keys the artifacts read.
func keySet(arts ...Artifact) map[Key]bool {
	keys := map[Key]bool{}
	for _, a := range arts {
		for _, k := range a.Keys {
			keys[k] = true
		}
	}
	return keys
}

// TestPlanSharesCells counts, without simulating, the runs -all makes:
// every artifact's cells are Figure 7's wherever they study the same
// machine, so the union is Figure 7's matrix plus Figure 6's finite
// detectors (14), the ablation's six other tunings and Scaling's 8- and
// 16-CPU cells (42).
func TestPlanSharesCells(t *testing.T) {
	for _, c := range []struct{ seeds, want int }{{1, 125}, {3, 251}} {
		p := Params{Scale: 1, Seeds: c.seeds}.withDefaults()
		var arts []Artifact
		for _, plan := range every {
			arts = append(arts, plan(p))
		}
		if got := len(keySet(arts...)); got != c.want {
			t.Errorf("-seeds %d: the artifacts read %d distinct cells, want %d", c.seeds, got, c.want)
		}
	}

	p := small()
	fig7 := keySet(Fig7(p))
	// Everything that reads the published 4-CPU machine with the
	// perfect detector reads Figure 7's cells.
	for _, a := range []Artifact{Table2(p), SLEStats(p), MissBreakdown(p), Fig8(p)} {
		for _, k := range a.Keys {
			if !fig7[k] {
				t.Errorf("%s reads %+v, which is not a Figure 7 cell", a.Title, k)
			}
		}
	}
	if published := PredictorAblation(p).Keys[1]; published != p.at("tpc-b", emesti) {
		t.Errorf("the ablation's published tuning reads %+v, not Figure 7's E-MESTI cell", published)
	}
	for _, k := range Scaling(p).Keys {
		if k.CPUs == 4 && !fig7[k] {
			t.Errorf("Scaling reads %+v at 4 CPUs, which is not a Figure 7 cell", k)
		}
	}
	for _, k := range Fig6(p).Keys {
		if fig7[k] == (k.StaleBytes > 0) {
			t.Errorf("Figure 6 reads %+v: its perfect-detector columns must be Figure 7's cells and only those", k)
		}
	}
}

// TestSharedFailedCellRendersInEveryReader renders two artifacts from a
// hand-built store in which the cell they share failed: both mark it
// ERR and name it in their FAILED footer, and every other row prints
// the counters of the one cell it reads.
func TestSharedFailedCellRendersInEveryReader(t *testing.T) {
	p := small()
	table2, fig7 := Table2(p), Fig7(p)
	s := Store{}
	for i, k := range fig7.Keys {
		s[k] = sim.Result{Workload: k.Workload, Tech: k.Tech, Cycles: 1000, Retired: uint64(100 + i),
			Counters: map[string]uint64{"mesti/ts_detect": uint64(10 + i)}}
	}
	bad := p.at("tpc-b", emesti)
	s[bad] = sim.Result{Workload: "tpc-b", Tech: emesti,
		Err: &sim.RunError{Workload: "tpc-b", Tech: emesti, Reason: "deadlock"}}
	footer := "FAILED tpc-b under E-MESTI: sim: workload \"tpc-b\" under E-MESTI: deadlock\n"

	for _, a := range []Artifact{table2, fig7} {
		out := a.Render(s)
		if strings.Count(out, "FAILED") != 1 || !strings.HasSuffix(out, footer) {
			t.Errorf("%s: want exactly the footer %q, got:\n%s", a.Title, footer, out)
		}
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[0] != "FAILED" {
				if hasERR := strings.Contains(line, errCell); hasERR != (f[0] == "tpc-b") {
					t.Errorf("%s: ERR on the wrong row: %q", a.Title, line)
				}
			}
		}
	}

	// Table 2's rows are Figure 7's seed-0 E-MESTI cells.
	out := table2.Render(s)
	for _, w := range workload.Names() {
		k := p.at(w, emesti)
		if k == bad {
			continue
		}
		r := s[k]
		row := fmt.Sprintf("%d %d", r.Retired, r.Counters["mesti/ts_detect"])
		f := strings.Fields(out[strings.Index(out, "\n"+w+" "):])
		if got := f[1] + " " + f[5]; got != row {
			t.Errorf("Table 2's %s row reads Instr, TS Stores %q, want the E-MESTI cell's %q", w, got, row)
		}
	}
}

// TestRunReportsFailedCells: what Run prints is every table with its
// footer, and what it reports is each failed cell once, however many
// tables read it, so cmd/experiments can exit 1 after printing.
func TestRunReportsFailedCells(t *testing.T) {
	p := small()
	arts := []Artifact{Table2(p), Fig7(p)}
	s := Store{}
	for _, k := range arts[1].Keys {
		s[k] = sim.Result{Workload: k.Workload, Tech: k.Tech, Cycles: 1000, Retired: 100}
	}
	if _, failed := render(arts, s); len(failed) != 0 {
		t.Errorf("a store with no failed cell reports %+v", failed)
	}
	bad := p.at("tpc-b", emesti)
	s[bad] = sim.Result{Workload: "tpc-b", Tech: emesti,
		Err: &sim.RunError{Workload: "tpc-b", Tech: emesti, Reason: "deadlock"}}
	out, failed := render(arts, s)
	if len(failed) != 1 || failed[0] != bad {
		t.Errorf("render reports failed cells %+v, want only %+v", failed, bad)
	}
	if n := strings.Count(out, "FAILED tpc-b under E-MESTI"); n != 2 {
		t.Errorf("want the cell named in both footers, got %d:\n%s", n, out)
	}
}

func small() Params { return Params{Scale: 1, Seeds: 1}.withDefaults() }

// Table 1 prints the machine's constants and default configuration;
// testdata/table1_golden.txt holds every byte of it.
func TestTable1Renders(t *testing.T) {
	want, err := os.ReadFile("testdata/table1_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if out := Table1(Params{}).Render(nil); out != string(want) {
		t.Errorf("Table1 differs from testdata/table1_golden.txt:\n%s", out)
	}
}

func TestTable2AllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	out, _ := Run(small(), Table2)
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
	out, _ := Run(small(), Fig6)
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
	tpcbBase, tpcbEM := p.at("tpc-b", sim.Techniques{}), p.at("tpc-b", emesti)
	jbbM, jbbEM := p.at("specjbb", sim.Techniques{MESTI: true}), p.at("specjbb", emesti)
	raySLE := p.at("raytrace", sim.Techniques{SLE: true})
	tpchLVP := p.at("tpc-h", sim.Techniques{LVP: true})
	s := p.fill([]Key{tpcbBase, tpcbEM, jbbM, jbbEM, raySLE, tpchLVP})
	for k, r := range s {
		if r.Err != nil {
			t.Fatalf("%+v: %v", k, r.Err)
		}
	}

	// tpc-b: E-MESTI eliminates communication misses (the paper's
	// flagship result).
	if base, em := s[tpcbBase].Counters["miss/comm"], s[tpcbEM].Counters["miss/comm"]; em >= base {
		t.Errorf("tpc-b comm misses: E-MESTI %d >= baseline %d", em, base)
	}

	// specjbb: plain MESTI must emit far more validates than E-MESTI
	// suppressed ones leave over (the useless-validate story).
	if m, em := s[jbbM].Counters["bus/txn/validate"], s[jbbEM].Counters["bus/txn/validate"]; em >= m {
		t.Errorf("specjbb validates: E-MESTI %d >= MESTI %d (predictor not suppressing)", em, m)
	}

	// raytrace: SLE must actually elide critical sections.
	if s[raySLE].Counters["sle/success"] == 0 {
		t.Error("raytrace: SLE never elided")
	}

	// tpc-h: LVP predictions on the falsely shared accumulators must
	// overwhelmingly verify (the false-sharing catch of §5.3.2).
	ok, fail := s[tpchLVP].Counters["lvp/verify_ok"], s[tpchLVP].Counters["lvp/verify_fail"]
	if ok == 0 || ok < fail {
		t.Errorf("tpc-h LVP ok=%d fail=%d: false-sharing predictions should dominate", ok, fail)
	}
}

func TestSLEStatsRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	out, _ := Run(small(), SLEStats)
	if !strings.Contains(out, "NoRelease") || !strings.Contains(out, "tpc-b") {
		t.Errorf("SLEStats output malformed:\n%s", out)
	}
}

// TestParallelExperimentsIdentical renders the same artifacts through
// a single-worker and an 8-worker pool: the job-order result contract
// means the output must match byte for byte.
func TestParallelExperimentsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	serial := small()
	serial.Jobs = 1
	par := small()
	par.Jobs = 8
	want, _ := Run(serial, Table2, SLEStats)
	if got, _ := Run(par, Table2, SLEStats); got != want {
		t.Errorf("Table2 and SLEStats differ under -j 8:\n-j1:\n%s\n-j8:\n%s", want, got)
	}
}

// TestFailNotesReportsCells: a sweep with a failed run renders a
// FAILED line naming the workload and technique so -all can continue
// past a livelocked configuration without hiding it.
func TestFailNotesReportsCells(t *testing.T) {
	okKey, badKey := Key{Workload: "ok-cell"}, Key{Workload: "bad-cell"}
	s := Store{
		okKey: {Workload: "ok-cell"},
		badKey: {Workload: "bad-cell", Tech: sim.Techniques{SLE: true},
			Err: &sim.RunError{Workload: "bad-cell", Tech: sim.Techniques{SLE: true}, Reason: "deadlock"}},
	}
	notes := s.failNotes([]Key{okKey, badKey})
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

	want, _ := Run(plain, Table2, MissBreakdown)
	if got, _ := Run(instrumented, Table2, MissBreakdown); got != want {
		t.Errorf("Table2 and MissBreakdown differ with a collector attached:\nplain:\n%s\ninstrumented:\n%s", want, got)
	}

	// The collector must actually have seen that sweep.
	if rep := instrumented.Telemetry.Report(); rep.JobsDone == 0 {
		t.Error("collector attached to the sweep recorded no jobs")
	}
}
