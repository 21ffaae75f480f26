package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Snapshot is the cheap live view of a sweep: everything here comes
// from atomics (plus two clock reads), so taking one never contends
// with workers. It backs both the -progress heartbeats and the
// /status endpoint.
type Snapshot struct {
	JobsTotal  int64 `json:"jobs_total"`
	JobsDone   int64 `json:"jobs_done"`
	JobsFailed int64 `json:"jobs_failed"`
	Workers    int   `json:"workers"`
	BusyNow    int64 `json:"busy_workers"`

	SimCycles uint64 `json:"sim_cycles"`
	ElapsedNS int64  `json:"elapsed_ns"`

	// CellsPerSec is completed jobs over elapsed wall time; ETANS
	// extrapolates it over the remaining jobs (0 when unknowable).
	CellsPerSec float64 `json:"cells_per_sec"`
	ETANS       int64   `json:"eta_ns"`

	// Utilization is total worker busy time over pool capacity
	// (workers × elapsed): the headline "are my -j workers actually
	// working" number.
	Utilization float64 `json:"utilization"`
}

// Snapshot assembles the live view. Safe to call from any goroutine at
// any rate.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		JobsTotal:  c.jobsTotal.Load(),
		JobsDone:   c.jobsDone.Load(),
		JobsFailed: c.jobsFailed.Load(),
		BusyNow:    c.busyWorkers.Load(),
		SimCycles:  c.simCycles.Load(),
	}
	// workers/firstStart/inSweep/sweepStart are written only by
	// SweepStart/SweepEnd under mu; a torn read here could at worst
	// see a stale width for one tick, but taking the lock keeps the
	// snapshot consistent and costs observers, not workers (workers
	// take mu only once per multi-millisecond job).
	c.mu.Lock()
	s.Workers = c.workers
	s.ElapsedNS = c.elapsedNS()
	// Credit in-flight jobs their elapsed time so utilization doesn't
	// sag while a long cell runs (completed busy time is only banked
	// at JobEnd).
	busy := c.busyNS.Load()
	nowNS := c.now().UnixNano()
	for _, ws := range c.perWorker {
		if start := ws.startNS.Load(); start > 0 && nowNS > start {
			busy += nowNS - start
		}
	}
	c.mu.Unlock()

	if s.ElapsedNS > 0 {
		sec := float64(s.ElapsedNS) / 1e9
		s.CellsPerSec = float64(s.JobsDone) / sec
		if s.Workers > 0 {
			s.Utilization = float64(busy) / (float64(s.Workers) * float64(s.ElapsedNS))
		}
		if remaining := s.JobsTotal - s.JobsDone; remaining > 0 && s.CellsPerSec > 0 {
			s.ETANS = int64(float64(remaining) / s.CellsPerSec * 1e9)
		}
	}
	return s
}

// String renders the one-line heartbeat form.
func (s Snapshot) String() string {
	pct := 0.0
	if s.JobsTotal > 0 {
		pct = 100 * float64(s.JobsDone) / float64(s.JobsTotal)
	}
	eta := "?"
	if s.ETANS > 0 {
		eta = time.Duration(s.ETANS).Round(time.Second).String()
	}
	line := fmt.Sprintf("progress: %d/%d cells (%.1f%%), %.1f cells/s, eta %s, workers %d/%d busy, util %.0f%%",
		s.JobsDone, s.JobsTotal, pct, s.CellsPerSec, eta, s.BusyNow, s.Workers, 100*s.Utilization)
	if s.JobsFailed > 0 {
		line += fmt.Sprintf(", FAILED %d", s.JobsFailed)
	}
	return line
}

// StartProgress emits a heartbeat line (Snapshot.String) of c to w
// every tick until the returned stop function is called; GET /status
// serves the same snapshot as JSON. Stop emits a final heartbeat so
// short sweeps always produce at least one, and each tick also
// refreshes the collector's runtime-metrics sample. The emitter never
// blocks workers: it reads only the atomics-based Snapshot path.
func StartProgress(w io.Writer, c *Collector, every time.Duration) (stop func()) {
	if every <= 0 {
		every = time.Second
	}
	emit := func() { fmt.Fprintln(w, c.Snapshot()) }
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c.Sample()
				emit()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
			c.Sample()
			emit()
		})
	}
}
