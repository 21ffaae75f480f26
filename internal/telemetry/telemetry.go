// Package telemetry instruments the simulation *harness* — the
// sim.Runner worker pool, not the simulated machine (that is
// internal/trace's job). It answers the question BENCH_0.json's
// parallel_speedup of 0.95 raised but could not explain: where does
// worker wall-clock actually go when a sweep runs slower in parallel
// than serial?
//
// A Collector records, per job, how long the job waited in the queue
// and how long each execution phase took (machine construction, the
// simulate loop, stats merge, teardown), accumulates per-worker
// busy/idle time, and samples Go runtime metrics (GC cycles and pause
// time, live heap, goroutine scheduling latency) over the sweep. The
// result aggregates into a versioned tssim-runnerstats/v1 JSON report
// whose Diagnosis block carries the derived ratios — worker busy
// fraction, GC-pause share of wall time, construction share of busy
// time — that turn "speedup 0.95" into "workers are 40% idle and a
// third of busy time is rebuilding machines".
//
// The design constraint throughout is that telemetry must never
// perturb what it measures:
//
//   - A nil or absent Collector costs the Runner nothing — the
//     instrumented paths are only entered when a collector is
//     attached, and simulation output is byte-identical either way
//     (per-job wall clocks never feed back into simulated state).
//   - The live snapshot path (progress heartbeats, the /status
//     endpoint) reads only atomics, so an observer polling at any
//     rate cannot block a worker. The mutex-guarded histograms are
//     touched once per completed job (milliseconds of work each),
//     never per cycle, and never by Snapshot.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"tssim/internal/stats"
)

// Schema versions the runner-stats report; consumers check it before
// parsing.
const Schema = "tssim-runnerstats/v1"

// Span phase names, used as keys in Report.Spans and PhaseTotalNS.
const (
	PhaseQueue     = "queue"     // dequeue time minus sweep start
	PhaseConstruct = "construct" // sim.New: machine assembly + workload init
	PhaseSimulate  = "simulate"  // the cycle loop itself
	PhaseMerge     = "merge"     // counter/histogram snapshots + validation
	PhaseTeardown  = "teardown"  // result delivery + bookkeeping after the run
)

// phaseNames fixes the iteration order for reports.
var phaseNames = []string{PhaseQueue, PhaseConstruct, PhaseSimulate, PhaseMerge, PhaseTeardown}

// JobPhases carries one job's per-phase wall time in nanoseconds. The
// simulator fills Construct/Simulate/Merge (see sim.Runner.RunAll);
// the Runner derives Queue and Teardown around them.
type JobPhases struct {
	Queue     int64
	Construct int64
	Simulate  int64
	Merge     int64
	Teardown  int64
}

// JobToken links a JobStart to its JobEnd: which worker, when the job
// was dequeued, and how long it had queued by then.
type JobToken struct {
	worker  int
	start   time.Time
	queueNS int64
}

// workerState accumulates one worker's busy time and job count. Each
// worker owns its slot exclusively during a sweep, so the fields are
// atomics only so that Report/Snapshot may read them mid-sweep.
type workerState struct {
	busyNS  atomic.Int64
	jobs    atomic.Int64
	startNS atomic.Int64 // wall nanos when the in-flight job began (0 = idle)
}

// Collector gathers harness telemetry across one or more Runner
// sweeps (an `experiments -all` invocation attaches one collector to
// every artifact's sweep). All methods are safe for concurrent use.
type Collector struct {
	// now is the clock; tests substitute a synthetic one.
	now func() time.Time

	// Lock-free live state: the snapshot path reads only these.
	jobsTotal   atomic.Int64
	jobsDone    atomic.Int64
	jobsFailed  atomic.Int64
	simCycles   atomic.Uint64
	busyWorkers atomic.Int64
	busyNS      atomic.Int64 // total worker busy time across the pool
	wallNS      atomic.Int64 // completed sweeps' wall time (current sweep added live)

	mu         sync.Mutex
	workers    int // pool width of the widest sweep seen
	perWorker  []*workerState
	spans      map[string]*stats.Hist // phase name -> ns histogram
	phaseTotal map[string]int64
	idleGap    *stats.Hist // ns between consecutive jobs on one worker
	lastEnd    []time.Time // per worker: previous job's end, for idleGap

	sweepStart time.Time // current sweep's start (zero when idle)
	firstStart time.Time // first sweep's start, for Snapshot rates
	inSweep    bool
	rt         *runtimeSampler
}

// New returns an empty collector.
func New() *Collector {
	c := &Collector{
		now:        time.Now,
		spans:      make(map[string]*stats.Hist, len(phaseNames)),
		phaseTotal: make(map[string]int64, len(phaseNames)),
		idleGap:    &stats.Hist{},
		rt:         newRuntimeSampler(),
	}
	for _, p := range phaseNames {
		c.spans[p] = &stats.Hist{}
	}
	return c
}

// SweepStart marks the beginning of one Runner.RunAll batch of n jobs
// on a pool of the given width. Called by the Runner before any worker
// starts; a collector accumulates across successive sweeps.
func (c *Collector) SweepStart(workers, n int) {
	c.jobsTotal.Add(int64(n))
	c.mu.Lock()
	defer c.mu.Unlock()
	if workers > c.workers {
		c.workers = workers
	}
	for len(c.perWorker) < c.workers {
		c.perWorker = append(c.perWorker, &workerState{})
		c.lastEnd = append(c.lastEnd, time.Time{})
	}
	c.sweepStart = c.now()
	if c.firstStart.IsZero() {
		c.firstStart = c.sweepStart
	}
	c.inSweep = true
	c.rt.sampleBaseline()
}

// SweepEnd marks the end of the current RunAll batch, folding its wall
// time into the cumulative total and taking a closing runtime-metrics
// sample.
func (c *Collector) SweepEnd() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.inSweep {
		return
	}
	c.wallNS.Add(c.now().Sub(c.sweepStart).Nanoseconds())
	c.inSweep = false
	c.rt.sample()
}

// JobStart records that the given worker dequeued a job now. The queue
// span is the time since the sweep started: every job of a batch is
// known (and conceptually enqueued) at RunAll entry, so this measures
// how long the cell waited for a free worker.
func (c *Collector) JobStart(worker int) JobToken {
	now := c.now()
	c.busyWorkers.Add(1)
	c.mu.Lock()
	start := c.sweepStart
	if worker < len(c.lastEnd) {
		if last := c.lastEnd[worker]; !last.IsZero() {
			if gap := now.Sub(last); gap > 0 {
				c.idleGap.Observe(uint64(gap.Nanoseconds()))
			}
		}
		c.perWorker[worker].startNS.Store(now.UnixNano())
	}
	c.mu.Unlock()
	qns := int64(0)
	if !start.IsZero() {
		qns = now.Sub(start).Nanoseconds()
	}
	return JobToken{worker: worker, start: now, queueNS: qns}
}

// JobEnd records one finished job: its simulated-cycle count, whether
// it failed, and its phase breakdown. Teardown is derived as the
// worker time not attributed to construct/simulate/merge, so the five
// phases plus queue account for the whole dequeue-to-done interval.
func (c *Collector) JobEnd(tok JobToken, cycles uint64, failed bool, ph JobPhases) {
	now := c.now()
	busy := now.Sub(tok.start).Nanoseconds()
	ph.Queue = tok.queueNS
	if td := busy - ph.Construct - ph.Simulate - ph.Merge; td > 0 {
		ph.Teardown = td
	}

	c.jobsDone.Add(1)
	if failed {
		c.jobsFailed.Add(1)
	}
	c.simCycles.Add(cycles)
	c.busyNS.Add(busy)
	c.busyWorkers.Add(-1)

	c.mu.Lock()
	defer c.mu.Unlock()
	if tok.worker < len(c.perWorker) {
		ws := c.perWorker[tok.worker]
		ws.busyNS.Add(busy)
		ws.jobs.Add(1)
		ws.startNS.Store(0)
		c.lastEnd[tok.worker] = now
	}
	for name, v := range map[string]int64{
		PhaseQueue:     ph.Queue,
		PhaseConstruct: ph.Construct,
		PhaseSimulate:  ph.Simulate,
		PhaseMerge:     ph.Merge,
		PhaseTeardown:  ph.Teardown,
	} {
		if v < 0 {
			v = 0
		}
		c.spans[name].Observe(uint64(v))
		c.phaseTotal[name] += v
	}
}

// Sample takes an on-demand runtime-metrics sample (the progress loop
// calls this each tick so heap-live peaks inside a sweep are seen).
func (c *Collector) Sample() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rt.sample()
}

// elapsedNS returns cumulative sweep wall time including the live
// sweep. Callers must hold mu.
func (c *Collector) elapsedNS() int64 {
	ns := c.wallNS.Load()
	if c.inSweep {
		ns += c.now().Sub(c.sweepStart).Nanoseconds()
	}
	return ns
}
