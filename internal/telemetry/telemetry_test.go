package telemetry

import (
	"bytes"
	"encoding/json"
	"sort"
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
// checks every figure the document derives from it: job counts, wall
// time, and the diagnosis shares built from the queue, construct and
// merge spans and the jobs' busy time.
func TestSpanAggregation(t *testing.T) {
	clk := newFakeClock()
	c := newCollector(clk.now)

	c.SweepStart(2, 2)

	// The first job is dequeued at once and runs 10ms, 2ms of it
	// construction and 1ms merge.
	tok0 := c.JobStart()
	clk.advance(10 * time.Millisecond)
	c.JobEnd(tok0, 1000, false, JobPhases{Construct: 2 * ms, Merge: 1 * ms})

	// The second is dequeued 10ms in (queue span 10ms), runs 20ms and
	// fails.
	tok1 := c.JobStart()
	clk.advance(20 * time.Millisecond)
	c.JobEnd(tok1, 500, true, JobPhases{Construct: 5 * ms})

	clk.advance(5 * time.Millisecond) // trailing idle before the sweep closes
	c.SweepEnd()

	r := c.Report()
	if r.Schema != Schema {
		t.Errorf("schema = %q, want %q", r.Schema, Schema)
	}
	if r.JobsTotal != 2 || r.JobsDone != 2 || r.JobsFailed != 1 || r.BusyNow != 0 || r.Workers != 2 {
		t.Errorf("jobs total/done/failed/busy = %d/%d/%d/%d on %d workers, want 2/2/1/0 on 2",
			r.JobsTotal, r.JobsDone, r.JobsFailed, r.BusyNow, r.Workers)
	}
	if r.SimCycles != 1500 {
		t.Errorf("sim cycles = %d, want 1500", r.SimCycles)
	}
	if r.ElapsedNS != 35*ms {
		t.Errorf("elapsed = %dms, want 35ms", r.ElapsedNS/ms)
	}
	if r.ETANS != 0 || !approx(r.CellsPerSec, 2/0.035) {
		t.Errorf("eta %d, %v cells/s: want 0 and %v", r.ETANS, r.CellsPerSec, 2/0.035)
	}

	d := r.Diagnosis
	// 30ms busy over 2 workers × 35ms: the mean of 10/35 and 20/35.
	if want := 15.0 / 35.0; !approx(d.WorkerBusyFraction, want) || !approx(r.Utilization, want) {
		t.Errorf("worker busy fraction %v, utilization %v: want both %v", d.WorkerBusyFraction, r.Utilization, want)
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
	if d.GCPauseShare < 0 {
		t.Errorf("gc pause share = %v, want >= 0", d.GCPauseShare)
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
	c := newCollector(clk.now)

	for i := 0; i < 3; i++ {
		c.SweepStart(1, 1)
		tok := c.JobStart()
		clk.advance(4 * time.Millisecond)
		c.JobEnd(tok, 100, false, JobPhases{})
		c.SweepEnd()
		clk.advance(time.Millisecond) // between sweeps: not wall time
	}

	r := c.Report()
	if r.JobsDone != 3 || r.ElapsedNS != 12*ms || r.SimCycles != 300 {
		t.Errorf("after 3 sweeps: done=%d elapsed=%dms cycles=%d, want 3/12ms/300",
			r.JobsDone, r.ElapsedNS/ms, r.SimCycles)
	}
	if !approx(r.Diagnosis.WorkerBusyFraction, 1.0) {
		t.Errorf("saturated single worker busy fraction = %v, want 1", r.Diagnosis.WorkerBusyFraction)
	}
}

// TestSnapshotCreditsInFlight: utilization must not sag while a long
// job runs — its elapsed time counts as busy before JobEnd banks it —
// while the diagnosis, over finished jobs only, has nothing yet.
func TestSnapshotCreditsInFlight(t *testing.T) {
	clk := newFakeClock()
	c := newCollector(clk.now)

	c.SweepStart(2, 3)
	tok := c.JobStart()
	clk.advance(10 * time.Millisecond)
	c.JobEnd(tok, 10, false, JobPhases{})
	_ = c.JobStart() // dequeued 10ms in, beside a second that waits longer
	clk.advance(5 * time.Millisecond)
	_ = c.JobStart()
	clk.advance(5 * time.Millisecond)

	r := c.Report()
	if r.BusyNow != 2 {
		t.Errorf("busy workers = %d, want 2", r.BusyNow)
	}
	// 10ms finished + 10ms and 5ms running, over 2 workers × 20ms.
	if want := 25.0 / 40.0; !approx(r.Utilization, want) {
		t.Errorf("mid-sweep utilization = %v, want %v (running time credited)", r.Utilization, want)
	}
	if want := 10.0 / 40.0; !approx(r.Diagnosis.WorkerBusyFraction, want) {
		t.Errorf("mid-sweep busy fraction = %v, want %v (finished jobs only)", r.Diagnosis.WorkerBusyFraction, want)
	}
	if r.JobsDone != 1 || r.JobsTotal != 3 || r.ETANS != 40*ms {
		t.Errorf("jobs %d/%d, eta %dms: want 1/3, 40ms", r.JobsDone, r.JobsTotal, r.ETANS/ms)
	}
}

// TestSnapshotString covers the heartbeat rendering, including the
// FAILED suffix that must only appear when something failed.
func TestSnapshotString(t *testing.T) {
	r := Report{JobsTotal: 8, JobsDone: 4, Workers: 2, BusyNow: 2,
		CellsPerSec: 2.0, ETANS: 2 * int64(time.Second), Utilization: 0.875}
	want := "progress: 4/8 cells (50.0%), 2.0 cells/s, eta 2s, workers 2/2 busy, util 88%"
	if got := r.String(); got != want {
		t.Errorf("heartbeat %q, want %q", got, want)
	}
	r.JobsFailed = 3
	if got := r.String(); got != want+", FAILED 3" {
		t.Errorf("failing heartbeat %q, want the FAILED count", got)
	}
	if got := (Report{}).String(); got != "progress: 0/0 cells (0.0%), 0.0 cells/s, eta ?, workers 0/0 busy, util 0%" {
		t.Errorf("empty heartbeat %q", got)
	}
}

// TestSnapshotUnderConcurrency hammers the document while workers
// churn through jobs. Run under -race this is the guard that observers
// never tear collector state; once the workers are done the document
// is exact.
func TestSnapshotUnderConcurrency(t *testing.T) {
	c := New()
	const workers, jobsPer = 4, 50
	c.SweepStart(workers, workers*jobsPer)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Report()
			}
		}
	}()

	var workWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workWG.Add(1)
		go func() {
			defer workWG.Done()
			for i := 0; i < jobsPer; i++ {
				tok := c.JobStart()
				c.JobEnd(tok, 10, i%7 == 0, JobPhases{Construct: 1, Merge: 1})
			}
		}()
	}
	workWG.Wait()
	c.SweepEnd()
	close(stop)
	wg.Wait()

	r := c.Report()
	if r.JobsDone != workers*jobsPer || r.JobsFailed != workers*8 || r.BusyNow != 0 {
		t.Errorf("jobs done/failed/busy = %d/%d/%d, want %d/%d/0", r.JobsDone, r.JobsFailed, r.BusyNow, workers*jobsPer, workers*8)
	}
	if r.SimCycles != uint64(workers*jobsPer*10) {
		t.Errorf("sim cycles = %d, want %d", r.SimCycles, workers*jobsPer*10)
	}
	if r.Utilization != r.Diagnosis.WorkerBusyFraction {
		t.Errorf("after the sweep utilization %v != busy fraction %v", r.Utilization, r.Diagnosis.WorkerBusyFraction)
	}
}

// TestProgressEmitter: heartbeats appear at the requested cadence and
// stop() flushes one final line, each a Report.String line.
func TestProgressEmitter(t *testing.T) {
	c := New()
	c.SweepStart(1, 2)
	tok := c.JobStart()
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

// TestReportJSONRoundTrip pins the tssim-runnerstats/v2 document:
// exactly these keys, each with a reader (the heartbeat, the smoke
// script, CI, bench/). A field added without one is a diff here.
func TestReportJSONRoundTrip(t *testing.T) {
	clk := newFakeClock()
	c := newCollector(clk.now)
	c.SweepStart(1, 1)
	tok := c.JobStart()
	clk.advance(8 * time.Millisecond)
	c.JobEnd(tok, 2000, false, JobPhases{Construct: 2 * ms, Merge: 1 * ms})
	c.SweepEnd()

	rep := c.Report()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if parsed["schema"] != Schema || Schema != "tssim-runnerstats/v2" {
		t.Errorf("schema = %v, want %q", parsed["schema"], "tssim-runnerstats/v2")
	}
	diag, ok := parsed["diagnosis"].(map[string]any)
	if !ok {
		t.Fatalf("no diagnosis block in report")
	}
	keys := func(m map[string]any) string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return strings.Join(ks, " ")
	}
	if got, want := keys(parsed), "busy_workers cells_per_sec diagnosis elapsed_ns eta_ns jobs_done jobs_failed jobs_total schema sim_cycles utilization workers"; got != want {
		t.Errorf("document keys:\n got %s\nwant %s", got, want)
	}
	if got, want := keys(diag), "construct_share gc_pause_share merge_share queue_share worker_busy_fraction"; got != want {
		t.Errorf("diagnosis keys:\n got %s\nwant %s", got, want)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil || back != rep {
		t.Errorf("document does not parse back to itself (%v):\n%s", err, buf.String())
	}
}
