package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when told, making span arithmetic exact.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

const ms = int64(time.Millisecond)

// TestSpanAggregation drives one two-job sweep on a synthetic clock and
// checks every aggregate the report derives from it: phase totals
// (including the derived queue and teardown spans), per-worker busy
// time, wall time, and the diagnosis ratios.
func TestSpanAggregation(t *testing.T) {
	clk := newFakeClock()
	c := New()
	c.now = clk.now

	c.SweepStart(2, 2)

	// Worker 0 dequeues immediately; its job runs 10ms with a
	// 2/6/1ms construct/simulate/merge split (1ms teardown remainder).
	tok0 := c.JobStart(0)
	clk.advance(10 * time.Millisecond)
	c.JobEnd(tok0, 1000, false, JobPhases{Construct: 2 * ms, Simulate: 6 * ms, Merge: 1 * ms})

	// Worker 1 dequeues 10ms in (queue span = 10ms), runs 20ms, fails.
	tok1 := c.JobStart(1)
	clk.advance(20 * time.Millisecond)
	c.JobEnd(tok1, 500, true, JobPhases{Construct: 5 * ms, Simulate: 15 * ms})

	clk.advance(5 * time.Millisecond) // trailing idle before the sweep closes
	c.SweepEnd()

	r := c.Report()
	if r.Schema != Schema {
		t.Errorf("schema = %q, want %q", r.Schema, Schema)
	}
	if r.JobsTotal != 2 || r.JobsDone != 2 || r.JobsFailed != 1 {
		t.Errorf("jobs total/done/failed = %d/%d/%d, want 2/2/1", r.JobsTotal, r.JobsDone, r.JobsFailed)
	}
	if r.SimCycles != 1500 {
		t.Errorf("sim cycles = %d, want 1500", r.SimCycles)
	}
	if r.WallNS != 35*ms {
		t.Errorf("wall = %dms, want 35ms", r.WallNS/ms)
	}
	if r.BusyNS != 30*ms {
		t.Errorf("busy = %dms, want 30ms", r.BusyNS/ms)
	}

	wantPhase := map[string]int64{
		PhaseQueue:     0 + 10*ms,        // job0 dequeued at t0, job1 at t0+10ms
		PhaseConstruct: 2*ms + 5*ms,      //
		PhaseSimulate:  6*ms + 15*ms,     //
		PhaseMerge:     1*ms + 0,         //
		PhaseTeardown:  (10-9)*ms + 0*ms, // job0: 10-2-6-1; job1: 20-5-15 = 0
	}
	for name, want := range wantPhase {
		if got := r.PhaseNS[name]; got != want {
			t.Errorf("phase %s total = %dms, want %dms", name, got/ms, want/ms)
		}
		if got := r.Spans[name].N; got != 2 {
			t.Errorf("phase %s histogram n = %d, want 2", name, got)
		}
	}
	if got := r.Spans[PhaseSimulate].Sum; got != uint64(21*ms) {
		t.Errorf("simulate span sum = %d, want 21ms", got)
	}

	if len(r.PerWorker) != 2 {
		t.Fatalf("per-worker entries = %d, want 2", len(r.PerWorker))
	}
	if r.PerWorker[0].BusyNS != 10*ms || r.PerWorker[0].Jobs != 1 {
		t.Errorf("worker 0 = %+v, want 10ms busy over 1 job", r.PerWorker[0])
	}
	if r.PerWorker[1].BusyNS != 20*ms || r.PerWorker[1].Jobs != 1 {
		t.Errorf("worker 1 = %+v, want 20ms busy over 1 job", r.PerWorker[1])
	}

	d := r.Diagnosis
	// Busy fractions: 10/35 and 20/35; mean 15/35.
	if want := 15.0 / 35.0; !approx(d.WorkerBusyFraction, want) {
		t.Errorf("worker busy fraction = %v, want %v", d.WorkerBusyFraction, want)
	}
	if !approx(d.WorkerBusyFractionMin, 10.0/35.0) || !approx(d.WorkerBusyFractionMax, 20.0/35.0) {
		t.Errorf("busy min/max = %v/%v", d.WorkerBusyFractionMin, d.WorkerBusyFractionMax)
	}
	if want := 7.0 / 30.0; !approx(d.ConstructShare, want) { // 7ms construct / 30ms busy
		t.Errorf("construct share = %v, want %v", d.ConstructShare, want)
	}
	if want := 1.0 / 30.0; !approx(d.MergeShare, want) {
		t.Errorf("merge share = %v, want %v", d.MergeShare, want)
	}
	if want := (10.0 / 2.0) / 35.0; !approx(d.QueueShare, want) { // mean 5ms queue / 35ms wall
		t.Errorf("queue share = %v, want %v", d.QueueShare, want)
	}
	if want := 1500.0 / 0.035; !approx(d.SimCyclesPerSec, want) {
		t.Errorf("sim cycles/sec = %v, want %v", d.SimCyclesPerSec, want)
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestMultiSweepAccumulates: one collector attached to successive
// RunAll batches (the `experiments -all` shape) folds them together.
func TestMultiSweepAccumulates(t *testing.T) {
	clk := newFakeClock()
	c := New()
	c.now = clk.now

	for i := 0; i < 3; i++ {
		c.SweepStart(1, 1)
		tok := c.JobStart(0)
		clk.advance(4 * time.Millisecond)
		c.JobEnd(tok, 100, false, JobPhases{Simulate: 4 * ms})
		c.SweepEnd()
	}

	r := c.Report()
	if r.JobsDone != 3 || r.WallNS != 12*ms || r.SimCycles != 300 {
		t.Errorf("after 3 sweeps: done=%d wall=%dms cycles=%d, want 3/12ms/300",
			r.JobsDone, r.WallNS/ms, r.SimCycles)
	}
	if !approx(r.Diagnosis.WorkerBusyFraction, 1.0) {
		t.Errorf("saturated single worker busy fraction = %v, want 1", r.Diagnosis.WorkerBusyFraction)
	}
}

// TestSnapshotCreditsInFlight: utilization must not sag while a long
// job runs — elapsed in-flight time counts as busy before JobEnd banks
// it.
func TestSnapshotCreditsInFlight(t *testing.T) {
	clk := newFakeClock()
	c := New()
	c.now = clk.now

	c.SweepStart(1, 1)
	_ = c.JobStart(0)
	clk.advance(10 * time.Millisecond)

	s := c.Snapshot()
	if s.BusyNow != 1 {
		t.Errorf("busy workers = %d, want 1", s.BusyNow)
	}
	if !approx(s.Utilization, 1.0) {
		t.Errorf("mid-job utilization = %v, want 1 (in-flight time credited)", s.Utilization)
	}
	if s.JobsDone != 0 || s.JobsTotal != 1 {
		t.Errorf("jobs = %d/%d, want 0/1", s.JobsDone, s.JobsTotal)
	}
}

// TestSnapshotString covers the heartbeat rendering, including the
// FAILED suffix that must only appear when something failed.
func TestSnapshotString(t *testing.T) {
	s := Snapshot{JobsTotal: 8, JobsDone: 4, Workers: 2, BusyNow: 2,
		CellsPerSec: 2.0, ETANS: 2 * int64(time.Second), Utilization: 0.875}
	got := s.String()
	for _, want := range []string{"4/8 cells", "50.0%", "2.0 cells/s", "eta 2s", "workers 2/2 busy", "util 88%"} {
		if !strings.Contains(got, want) {
			t.Errorf("heartbeat %q missing %q", got, want)
		}
	}
	if strings.Contains(got, "FAILED") {
		t.Errorf("healthy heartbeat mentions FAILED: %q", got)
	}
	s.JobsFailed = 3
	if got := s.String(); !strings.Contains(got, "FAILED 3") {
		t.Errorf("failing heartbeat missing FAILED count: %q", got)
	}
}

// TestSnapshotUnderConcurrency hammers the snapshot and report paths
// while workers churn through jobs. Run under -race this is the guard
// that observers never tear collector state.
func TestSnapshotUnderConcurrency(t *testing.T) {
	c := New()
	const workers, jobsPer = 4, 50
	c.SweepStart(workers, workers*jobsPer)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, read := range []func(){
		func() { _ = c.Snapshot() },
		func() { _ = c.Report() },
		func() { c.Sample() },
	} {
		wg.Add(1)
		go func(read func()) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}(read)
	}

	var workWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workWG.Add(1)
		go func(w int) {
			defer workWG.Done()
			for i := 0; i < jobsPer; i++ {
				tok := c.JobStart(w)
				c.JobEnd(tok, 10, i%7 == 0, JobPhases{Construct: 1, Simulate: 2, Merge: 1})
			}
		}(w)
	}
	workWG.Wait()
	c.SweepEnd()
	close(stop)
	wg.Wait()

	r := c.Report()
	if r.JobsDone != workers*jobsPer {
		t.Errorf("jobs done = %d, want %d", r.JobsDone, workers*jobsPer)
	}
	if r.SimCycles != uint64(workers*jobsPer*10) {
		t.Errorf("sim cycles = %d, want %d", r.SimCycles, workers*jobsPer*10)
	}
	var busy int64
	for _, wr := range r.PerWorker {
		busy += wr.BusyNS
		if wr.Jobs != jobsPer {
			t.Errorf("worker %d jobs = %d, want %d", wr.Worker, wr.Jobs, jobsPer)
		}
	}
	if busy != r.BusyNS {
		t.Errorf("per-worker busy sum %d != pool busy %d", busy, r.BusyNS)
	}
}

// TestProgressEmitter: heartbeats appear at the requested cadence and
// stop() flushes one final snapshot, each a Snapshot.String line.
func TestProgressEmitter(t *testing.T) {
	c := New()
	c.SweepStart(1, 2)
	tok := c.JobStart(0)
	c.JobEnd(tok, 42, false, JobPhases{})

	var buf syncBuffer
	stop := StartProgress(&buf, c, 5*time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	stop()
	stop() // idempotent

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("expected several heartbeats, got %d: %q", len(lines), buf.String())
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "progress: 1/2 cells (50.0%), ") {
			t.Errorf("heartbeat %q: want a progress line for 1 of 2 cells", line)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the progress goroutine
// writes while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestReportJSONRoundTrip: the written report parses back with the
// schema marker and diagnosis fields intact (what BENCH tooling and
// the /runnerstats endpoint rely on).
func TestReportJSONRoundTrip(t *testing.T) {
	clk := newFakeClock()
	c := New()
	c.now = clk.now
	c.SweepStart(1, 1)
	tok := c.JobStart(0)
	clk.advance(8 * time.Millisecond)
	c.JobEnd(tok, 2000, false, JobPhases{Construct: 2 * ms, Simulate: 5 * ms, Merge: 1 * ms})
	c.SweepEnd()

	var buf bytes.Buffer
	if err := WriteJSON(&buf, c.Report()); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if parsed["schema"] != Schema {
		t.Errorf("schema = %v, want %q", parsed["schema"], Schema)
	}
	diag, ok := parsed["diagnosis"].(map[string]any)
	if !ok {
		t.Fatalf("no diagnosis block in report")
	}
	for _, key := range []string{"worker_busy_fraction", "gc_pause_share", "construct_share", "sim_cycles_per_sec"} {
		if _, ok := diag[key]; !ok {
			t.Errorf("diagnosis missing %q", key)
		}
	}
	if _, ok := parsed["spans"].(map[string]any); !ok {
		t.Errorf("no spans block in report")
	}
}
