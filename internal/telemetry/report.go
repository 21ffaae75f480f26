package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Report is the tssim-runnerstats/v2 document: the sweep's progress
// and the pool's utilization so far, and the diagnosis of where its
// host time went. Its readers are the heartbeat line (String),
// scripts/status_smoke.sh, CI's experiments smoke and bench/'s runner.*
// metrics (Diagnosis).
type Report struct {
	Schema     string `json:"schema"`
	JobsTotal  int64  `json:"jobs_total"`
	JobsDone   int64  `json:"jobs_done"`
	JobsFailed int64  `json:"jobs_failed"`
	Workers    int    `json:"workers"`
	BusyNow    int64  `json:"busy_workers"`

	SimCycles uint64 `json:"sim_cycles"`
	ElapsedNS int64  `json:"elapsed_ns"` // sweep wall time, the running sweep's included

	// CellsPerSec is finished jobs over elapsed wall time; ETANS
	// extrapolates it over the remaining jobs (0 when unknowable).
	CellsPerSec float64 `json:"cells_per_sec"`
	ETANS       int64   `json:"eta_ns"`

	// Utilization is worker busy time, running jobs' time so far
	// included, over pool capacity (workers × elapsed): the headline
	// "are my -j workers actually working" number. At the end of a
	// sweep it equals Diagnosis.WorkerBusyFraction.
	Utilization float64 `json:"utilization"`

	Diagnosis Diagnosis `json:"diagnosis"`
}

// Diagnosis explains a parallel speedup instead of just stating it:
// shares of host time, each in [0,1] up to clock granularity, over
// finished jobs.
type Diagnosis struct {
	// WorkerBusyFraction is finished jobs' busy time over pool capacity
	// (workers × wall): the mean of the workers' busy fractions.
	WorkerBusyFraction float64 `json:"worker_busy_fraction"`
	// ConstructShare is machine construction over busy time: the price
	// of building a fresh System per job.
	ConstructShare float64 `json:"construct_share"`
	// MergeShare is stats merge and validation over busy time.
	MergeShare float64 `json:"merge_share"`
	// QueueShare is mean queue wait over wall time: high values with
	// low busy fractions indicate imbalance, not saturation.
	QueueShare float64 `json:"queue_share"`
	// GCPauseShare is GC stop-the-world pause since the first sweep
	// started over wall time: a pause stalls every worker at once.
	GCPauseShare float64 `json:"gc_pause_share"`
}

// Report builds the document from what the collector holds now. Safe
// to call from any goroutine at any rate, mid-sweep included. A call
// racing a job's start or end, or a sweep's, may count that event
// half: the reading is off by at most the running sweep's elapsed time
// in one sum, and the next reading is whole.
func (c *Collector) Report() Report {
	now := c.ns()
	r := Report{
		Schema:     Schema,
		JobsTotal:  c.jobsTotal.Load(),
		JobsDone:   c.jobsDone.Load(),
		JobsFailed: c.jobsFailed.Load(),
		Workers:    int(c.workers.Load()),
		BusyNow:    c.busyWorkers.Load(),
		SimCycles:  c.simCycles.Load(),
		ElapsedNS:  c.wallNS.Load(),
	}
	finished := c.busyNS.Load()
	busy := finished
	if c.inSweep.Load() {
		sweep := now - c.sweepStart.Load()
		r.ElapsedNS += sweep
		busy += r.BusyNow*sweep - c.inflightNS.Load()
	}
	d := &r.Diagnosis
	if wall := float64(r.ElapsedNS); wall > 0 {
		r.CellsPerSec = float64(r.JobsDone) / (wall / 1e9)
		if remaining := r.JobsTotal - r.JobsDone; remaining > 0 && r.CellsPerSec > 0 {
			r.ETANS = int64(float64(remaining) / r.CellsPerSec * 1e9)
		}
		if r.Workers > 0 {
			capacity := float64(r.Workers) * wall
			r.Utilization = float64(busy) / capacity
			d.WorkerBusyFraction = float64(finished) / capacity
		}
		if r.JobsDone > 0 {
			d.QueueShare = float64(c.queueNS.Load()) / float64(r.JobsDone) / wall
		}
		d.GCPauseShare = c.gcPauseShare(r.ElapsedNS)
	}
	if finished > 0 {
		d.ConstructShare = float64(c.constructNS.Load()) / float64(finished)
		d.MergeShare = float64(c.mergeNS.Load()) / float64(finished)
	}
	return r
}

// String renders the one-line heartbeat form.
func (r Report) String() string {
	pct := 0.0
	if r.JobsTotal > 0 {
		pct = 100 * float64(r.JobsDone) / float64(r.JobsTotal)
	}
	eta := "?"
	if r.ETANS > 0 {
		eta = time.Duration(r.ETANS).Round(time.Second).String()
	}
	line := fmt.Sprintf("progress: %d/%d cells (%.1f%%), %.1f cells/s, eta %s, workers %d/%d busy, util %.0f%%",
		r.JobsDone, r.JobsTotal, pct, r.CellsPerSec, eta, r.BusyNow, r.Workers, 100*r.Utilization)
	if r.JobsFailed > 0 {
		line += fmt.Sprintf(", FAILED %d", r.JobsFailed)
	}
	return line
}

// WriteJSON writes v as two-space indented JSON and a newline: the one
// encoding of every JSON view of a run — the -report and -runnerstats
// files and GET /status.
func WriteJSON(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WriteJSONFile writes v to a new file at path with WriteJSON.
func WriteJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSON(f, v); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
