package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tssim/internal/isa"
	"tssim/internal/telemetry"
	"tssim/internal/trace"
	"tssim/internal/workload"
)

// TestTracerThreading runs a real contended workload with a tracer
// attached and checks that events flow from every layer in cycle order.
func TestTracerThreading(t *testing.T) {
	sink := &orderSink{t: t}
	tr := trace.New(sink)
	cfg := fastCfg(Techniques{MESTI: true, EMESTI: true, LVP: true})
	cfg.Trace = tr
	w := lockCounterWorkload(cfg.CPUs, 20, 40, false)
	r := RunOne(cfg, w)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !r.Finished {
		t.Fatal("workload did not finish")
	}
	if tr.Total() == 0 {
		t.Fatal("no events emitted on a contended MESTI run")
	}
	// A contended critical section under E-MESTI must exercise the bus,
	// coherence transitions, and validate machinery.
	for _, k := range []trace.Kind{trace.KBusGrant, trace.KState, trace.KTSDetect, trace.KValIssue, trace.KMiss} {
		if sink.kinds[k] == 0 {
			t.Errorf("no %s events traced", k)
		}
	}
	if sink.outOfOrder > 0 {
		t.Errorf("%d events out of cycle order", sink.outOfOrder)
	}
}

// orderSink verifies the cycle stamps never go backwards.
type orderSink struct {
	t          *testing.T
	prev       uint64
	outOfOrder int
	kinds      map[trace.Kind]uint64
}

func (s *orderSink) Write(e trace.Event) error {
	if s.kinds == nil {
		s.kinds = make(map[trace.Kind]uint64)
	}
	if e.Cycle < s.prev {
		s.outOfOrder++
	}
	s.prev = e.Cycle
	s.kinds[e.Kind]++
	return nil
}
func (s *orderSink) Close() error { return nil }

// TestHistogramsPopulated checks the latency/occupancy histograms fill
// in on a run that misses and buffers stores.
func TestHistogramsPopulated(t *testing.T) {
	cfg := fastCfg(Techniques{MESTI: true, EMESTI: true})
	w := lockCounterWorkload(cfg.CPUs, 20, 40, false)
	r := RunOne(cfg, w)
	for _, name := range []string{"lat/bus_wait", "lat/miss_service", "occ/mshr", "occ/storebuf", "lat/validate_reuse"} {
		h, ok := r.Hists[name]
		if !ok {
			t.Errorf("histogram %q missing from Result.Hists", name)
			continue
		}
		if name != "lat/validate_reuse" && h.N == 0 {
			t.Errorf("histogram %q is empty", name)
		}
	}
	// Contended lock handoff under E-MESTI revalidates lines that the
	// spinners then re-read: the reuse-distance histogram must see it.
	if r.Hists["lat/validate_reuse"].N == 0 {
		t.Error("no validate-to-reuse distances observed on a contended E-MESTI run")
	}
	if h := r.Hists["lat/miss_service"]; h.N > 0 && h.Min == 0 {
		t.Error("zero-cycle miss service recorded; request stamps are wrong")
	}
}

// TestReportRoundTrip marshals a report and checks the acceptance
// schema: config, counters, and at least four histograms.
func TestReportRoundTrip(t *testing.T) {
	cfg := fastCfg(Techniques{MESTI: true, EMESTI: true})
	w := lockCounterWorkload(cfg.CPUs, 10, 20, false)
	r := RunOne(cfg, w)
	rep := NewReport(cfg, r)

	var buf bytes.Buffer
	if err := telemetry.WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Schema != ReportSchema {
		t.Errorf("schema = %q, want %q", back.Schema, ReportSchema)
	}
	if back.Workload != w.Name || back.Cycles != r.Cycles || back.Retired != r.Retired {
		t.Errorf("headline fields lost: %+v", back)
	}
	if back.Config.CPUs != cfg.CPUs || back.Config.Bus.AddrLatency != cfg.Bus.AddrLatency {
		t.Errorf("config lost: %+v", back.Config)
	}
	if len(back.Counters) == 0 {
		t.Error("no counters in report")
	}
	if len(back.Histograms) < 4 {
		t.Errorf("report has %d histograms, want >= 4", len(back.Histograms))
	}
	if back.IPC == 0 {
		t.Error("IPC missing")
	}

	// v2 records the machine as run: cfg leaves both bounds zero, and the
	// run was bounded by the defaults.
	if cfg.MaxCycles != 0 || cfg.NoProgressCycles != 0 {
		t.Fatalf("fastCfg sets bounds %d / %d, expected zero values", cfg.MaxCycles, cfg.NoProgressCycles)
	}
	if back.Config.MaxCycles != DefaultMaxCycles || back.Config.NoProgressCycles != DefaultNoProgressCycles {
		t.Errorf("report bounds %d / %d, want the effective %d / %d", back.Config.MaxCycles,
			back.Config.NoProgressCycles, uint64(DefaultMaxCycles), uint64(DefaultNoProgressCycles))
	}
	// Nor does it carry what v2 dropped.
	var raw struct {
		Config map[string]json.RawMessage `json:"config"`
	}
	var rawBus map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw.Config["bus"], &rawBus); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"core", "l1_latency", "l2_latency"} {
		if _, ok := raw.Config[gone]; ok {
			t.Errorf("v2 config still has %q", gone)
		}
	}
	if _, ok := rawBus["FillHold"]; ok {
		t.Error(`v2 config still has "bus.FillHold"`)
	}
}

// TestWatchdogPostMortem tightens the no-progress threshold below one
// miss-service time so the watchdog fires mid-miss, and checks the
// post-mortem dump in the RunError: every section, with the event tail
// of the configured tracer.
func TestWatchdogPostMortem(t *testing.T) {
	b := isa.NewBuilder("stall")
	b.Li(isa.R10, 0x8000)
	b.Ld(isa.R11, isa.R10, 0) // cold miss: ~AddrLatency+MemLatency cycles with nothing retiring
	b.Halt()
	cfg := fastCfg(Techniques{MESTI: true})
	w := singleCPUWorkload("stall", b.Build(), cfg.CPUs)
	cfg.NoProgressCycles = 10
	cfg.Trace = trace.New(nil) // ring-only: feeds the dump's event tail

	_, err := New(cfg, w).RunErr(w)
	var re *RunError
	if !errors.As(err, &re) || !strings.Contains(re.Reason, "deadlock") {
		t.Fatalf("watchdog did not fire: %v", err)
	}
	for _, want := range []string{
		"post-mortem",
		"cpu0",         // per-core pipeline state
		"mshr addr=",   // outstanding miss registers
		"trace events", // event tail from the ring
		"end post-mortem",
	} {
		if !strings.Contains(re.PostMortem, want) {
			t.Errorf("post-mortem missing %q:\n%s", want, re.PostMortem)
		}
	}
}

// A post-mortem prints its event tail in the trace file's encoding: the
// dump of a run cut short at MaxCycles ends with exactly the last lines
// of its JSONL trace, so any tail line greps verbatim in the file.
func TestPostMortemTailIsTheTraceTail(t *testing.T) {
	var buf bytes.Buffer
	cfg := fastCfg(Techniques{MESTI: true, EMESTI: true})
	cfg.Trace = trace.New(trace.NewJSONLSink(&buf))
	cfg.MaxCycles = 3000
	w := lockCounterWorkload(cfg.CPUs, 20, 40, false)
	_, err := New(cfg, w).RunErr(w)
	if err := cfg.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	var re *RunError
	if !errors.As(err, &re) || !strings.Contains(re.Reason, "MaxCycles 3000") {
		t.Fatalf("run was not cut at MaxCycles: %v", err)
	}
	if cfg.Trace.Total() <= trace.RingSize {
		t.Fatalf("%d events traced; the cut must come after the ring wraps", cfg.Trace.Total())
	}
	_, tail, ok := strings.Cut(re.PostMortem, fmt.Sprintf("last %d trace events (of %d emitted):\n",
		trace.RingSize, cfg.Trace.Total()))
	if !ok {
		t.Fatalf("post-mortem has no full event tail:\n%s", re.PostMortem)
	}
	tail = strings.TrimSuffix(tail, "=== end post-mortem ===\n")
	if file := buf.String(); !strings.HasSuffix(file, tail) || strings.Count(tail, "\n") != trace.RingSize {
		t.Errorf("post-mortem tail is not the trace file's last %d lines:\n%s", trace.RingSize, tail)
	}
}

// TestWatchdogDefault checks the zero value means the documented
// default, not an instant trip.
func TestWatchdogDefault(t *testing.T) {
	cfg := fastCfg(Techniques{})
	if cfg.NoProgressCycles != 0 {
		t.Fatalf("fastCfg sets NoProgressCycles = %d, expected zero value", cfg.NoProgressCycles)
	}
	w := lockCounterWorkload(cfg.CPUs, 5, 10, false)
	r := RunOne(cfg, w)
	if !r.Finished {
		t.Error("run did not finish under the default watchdog")
	}
}

// A dump taken while a core spins under its steady verdict catches the
// core up and says so, and changes nothing the run goes on to compute.
// (The watchdog itself never fires on a spinning core: it retires.)
func TestPostMortemNamesSteadyVerdict(t *testing.T) {
	cfg := ExperimentConfig()
	w, err := workload.ByName("tpc-h", workload.Params{CPUs: cfg.CPUs, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(cfg, w).RunErr(w)
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg, w)
	var steady uint64
	for held := false; !held; {
		if s.now > want.Cycles {
			t.Fatal("no core ever replayed a steady verdict")
		}
		s.Step()
		n := uint64(0)
		for _, c := range s.Cores {
			n += c.SteadyTicks()
		}
		held, steady = n > steady, n
	}
	if pm := s.postMortem("probe"); !strings.Contains(pm, "steady=true (last formed at cycle") {
		t.Fatalf("dump taken under a steady verdict does not name it:\n%s", pm)
	}
	got, err := s.RunErr(w)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Retired != want.Retired || !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Fatalf("the dump moved the run: %d cycles, %d retired; undisturbed %d, %d", got.Cycles, got.Retired, want.Cycles, want.Retired)
	}
}
