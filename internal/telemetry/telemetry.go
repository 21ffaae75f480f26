// Package telemetry instruments the simulation *harness* — the
// sim.Runner worker pool, not the simulated machine (that is
// internal/trace's job). It answers one question: where did the pool's
// host time go? Its answer is one document, Report
// (tssim-runnerstats/v2): the sweep's progress, the pool's
// utilization, and five shares of host time — workers busy, machine
// construction, stats merge, queue wait and GC pause. The heartbeat
// line is its String form, GET /status serves it, -runnerstats writes
// it at exit, and bench/ reads its Diagnosis.
//
// Telemetry must never perturb what it measures:
//
//   - A nil Collector costs the Runner nothing: with none attached no
//     clock is read per job, and simulation output is byte-identical
//     either way (per-job wall clocks never feed back into simulated
//     state).
//   - The Collector is atomics only. A worker adds to a few counters
//     once per job (milliseconds of work each), never per cycle, and
//     an observer polling at any rate takes no lock a worker waits on.
package telemetry

import (
	"math"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// Schema versions the runner-stats document; consumers check it before
// parsing.
const Schema = "tssim-runnerstats/v2"

// JobPhases carries the wall time, in nanoseconds, of the two phases of
// one job the shares price: machine construction (sim.New, workload
// memory init included) and the merge epilogue (counter snapshots and
// validation). The simulator fills it (see sim.Runner.RunAll).
type JobPhases struct {
	Construct int64
	Merge     int64
}

// JobToken links a JobStart to its JobEnd: when the job was dequeued,
// in nanoseconds after its sweep started, which is also how long it
// waited for a worker.
type JobToken struct {
	at int64
}

// Collector gathers harness telemetry across one or more Runner sweeps
// (an `experiments -all` invocation attaches one collector to every
// artifact's sweep). Sweeps do not overlap; every method is safe for
// concurrent use.
type Collector struct {
	// now is the clock and epoch its zero; tests substitute a synthetic
	// clock. Every instant below is nanoseconds after epoch.
	now   func() time.Time
	epoch time.Time

	jobsTotal   atomic.Int64
	jobsDone    atomic.Int64
	jobsFailed  atomic.Int64
	workers     atomic.Int64 // pool width of the widest sweep seen
	busyWorkers atomic.Int64

	// busyNS is the finished jobs' dequeue-to-done time; inflightNS sums
	// the running jobs' dequeue instants (after their sweep's start), so
	// a long cell counts as busy before it finishes.
	busyNS     atomic.Int64
	inflightNS atomic.Int64

	queueNS     atomic.Int64
	constructNS atomic.Int64
	mergeNS     atomic.Int64
	simCycles   atomic.Uint64

	wallNS     atomic.Int64 // finished sweeps' wall time
	sweepStart atomic.Int64 // the running sweep's start
	inSweep    atomic.Bool

	// gcBase is the GC pause total when the first sweep started, plus
	// one, so that zero means not read yet.
	gcBase atomic.Int64
}

// New returns an empty collector.
func New() *Collector { return newCollector(time.Now) }

func newCollector(now func() time.Time) *Collector {
	return &Collector{now: now, epoch: now()}
}

// ns reads the clock.
func (c *Collector) ns() int64 { return int64(c.now().Sub(c.epoch)) }

// SweepStart marks the beginning of one Runner.RunAll batch of n jobs
// on a pool of the given width. Called by the Runner before any worker
// starts; a collector accumulates across successive sweeps, and the GC
// pause share counts from the first one.
func (c *Collector) SweepStart(workers, n int) {
	c.gcBase.CompareAndSwap(0, gcPauseNS()+1)
	c.jobsTotal.Add(int64(n))
	if int64(workers) > c.workers.Load() {
		c.workers.Store(int64(workers))
	}
	c.sweepStart.Store(c.ns())
	c.inSweep.Store(true)
}

// SweepEnd marks the end of the running batch, folding its wall time
// into the total.
func (c *Collector) SweepEnd() {
	c.wallNS.Add(c.ns() - c.sweepStart.Load())
	c.inSweep.Store(false)
}

// JobStart records that a worker dequeued a job now. Every job of a
// batch is known (and conceptually enqueued) when RunAll starts, so the
// time since the sweep started is how long the cell waited for a free
// worker.
func (c *Collector) JobStart() JobToken {
	at := c.ns() - c.sweepStart.Load()
	c.inflightNS.Add(at)
	c.busyWorkers.Add(1)
	return JobToken{at: at}
}

// JobEnd records one finished job: its simulated-cycle count, whether
// it failed, and its phases.
func (c *Collector) JobEnd(tok JobToken, cycles uint64, failed bool, ph JobPhases) {
	busy := c.ns() - c.sweepStart.Load() - tok.at
	c.busyNS.Add(busy)
	c.queueNS.Add(tok.at)
	c.constructNS.Add(ph.Construct)
	c.mergeNS.Add(ph.Merge)
	c.simCycles.Add(cycles)
	if failed {
		c.jobsFailed.Add(1)
	}
	c.inflightNS.Add(-tok.at)
	c.busyWorkers.Add(-1)
	c.jobsDone.Add(1)
}

// gcPauseShare is the GC stop-the-world pause since the first sweep
// started, over wall (nanoseconds).
func (c *Collector) gcPauseShare(wall int64) float64 {
	base := c.gcBase.Load()
	if base == 0 || wall <= 0 {
		return 0
	}
	pause := gcPauseNS() - (base - 1)
	if pause < 0 {
		pause = 0
	}
	return float64(pause) / float64(wall)
}

// gcPauseNS is the process's total GC stop-the-world pause so far, in
// nanoseconds: the runtime's pause histogram summed at bucket
// midpoints (the ±Inf edge buckets at their finite boundary), exact
// enough for a share since nearly all pauses land in its fine-grained
// low buckets. Reading it does not stop the world; a toolchain without
// the series reads zero.
func gcPauseNS() int64 {
	s := []metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := s[0].Value.Float64Histogram()
	var sum float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		sum += float64(n) * mid
	}
	return int64(sum * 1e9)
}
