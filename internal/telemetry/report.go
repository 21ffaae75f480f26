package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"tssim/internal/stats"
)

// WorkerReport is one worker's share of the sweep.
type WorkerReport struct {
	Worker int   `json:"worker"`
	Jobs   int64 `json:"jobs"`
	BusyNS int64 `json:"busy_ns"`
	// BusyFraction is busy time over the sweep's wall time: a healthy
	// saturated pool shows ~1.0 on every worker; values well below 1
	// mean the worker starved (queue drained, stragglers, GC stalls).
	BusyFraction float64 `json:"busy_fraction"`
}

// RuntimeReport is the Go runtime's accounting over the sweep, from
// runtime/metrics deltas between the sweep-start baseline and the last
// sample.
type RuntimeReport struct {
	GOMAXPROCS        int    `json:"gomaxprocs"`
	GCCycles          uint64 `json:"gc_cycles"`
	GCPauseNS         int64  `json:"gc_pause_ns"`
	HeapLiveBytes     uint64 `json:"heap_live_bytes"`
	HeapLiveMaxBytes  uint64 `json:"heap_live_max_bytes"`
	SchedLatencyP50NS int64  `json:"sched_latency_p50_ns"`
	SchedLatencyP99NS int64  `json:"sched_latency_p99_ns"`
}

// Diagnosis is the derived block that explains a bad parallel speedup
// instead of just stating it. All fractions are in [0,1] (busy
// fraction can exceed 1 slightly when workers outnumber wall-clock
// accounting granularity).
type Diagnosis struct {
	// WorkerBusyFraction is the mean of per-worker busy fractions:
	// the fraction of pool capacity actually spent running jobs.
	WorkerBusyFraction    float64 `json:"worker_busy_fraction"`
	WorkerBusyFractionMin float64 `json:"worker_busy_fraction_min"`
	WorkerBusyFractionMax float64 `json:"worker_busy_fraction_max"`
	// GCPauseShare is total GC stop-the-world pause over sweep wall
	// time — pauses stall every worker at once.
	GCPauseShare float64 `json:"gc_pause_share"`
	// ConstructShare is machine construction over total busy time:
	// the price of building a fresh System per job (the ROADMAP's
	// pool-and-reuse candidate).
	ConstructShare float64 `json:"construct_share"`
	// QueueShare is mean queue wait over wall time — high values with
	// low busy fractions indicate imbalance, not saturation.
	QueueShare float64 `json:"queue_share"`
	// MergeShare is stats merge/validation over total busy time.
	MergeShare float64 `json:"merge_share"`
	// SimCyclesPerSec is aggregate simulated cycles per wall second —
	// the sweep-level throughput figure of merit. The numerator is
	// *architectural* cycles (sim.Result.Cycles), which counts cycles
	// the next-event fast-forward skipped as simulated: the figure
	// stays comparable across runs regardless of how many cycles were
	// actually ticked, and fast-forward improvements show up here as a
	// genuine throughput gain.
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
}

// Report is the tssim-runnerstats/v1 record: everything the collector
// gathered over its sweeps, plus the derived diagnosis.
type Report struct {
	Schema     string                        `json:"schema"`
	Workers    int                           `json:"workers"`
	JobsTotal  int64                         `json:"jobs_total"`
	JobsDone   int64                         `json:"jobs_done"`
	JobsFailed int64                         `json:"jobs_failed"`
	WallNS     int64                         `json:"wall_ns"`
	BusyNS     int64                         `json:"busy_ns"`
	SimCycles  uint64                        `json:"sim_cycles"`
	Spans      map[string]stats.HistSnapshot `json:"spans"` // per-phase ns histograms
	PhaseNS    map[string]int64              `json:"phase_total_ns"`
	IdleGap    stats.HistSnapshot            `json:"idle_gap_ns"`
	PerWorker  []WorkerReport                `json:"per_worker"`
	Runtime    RuntimeReport                 `json:"runtime"`
	Diagnosis  Diagnosis                     `json:"diagnosis"`
}

// Report aggregates everything collected so far. Safe to call
// mid-sweep (progress/status use Snapshot for the cheap path; Report
// is the full story at end of run).
func (c *Collector) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rt.sample()

	wall := c.elapsedNS()
	busy := c.busyNS.Load()
	r := Report{
		Schema:     Schema,
		Workers:    c.workers,
		JobsTotal:  c.jobsTotal.Load(),
		JobsDone:   c.jobsDone.Load(),
		JobsFailed: c.jobsFailed.Load(),
		WallNS:     wall,
		BusyNS:     busy,
		SimCycles:  c.simCycles.Load(),
		Spans:      make(map[string]stats.HistSnapshot, len(c.spans)),
		PhaseNS:    make(map[string]int64, len(c.phaseTotal)),
		IdleGap:    c.idleGap.Snapshot(),
		Runtime: RuntimeReport{
			GOMAXPROCS:        c.rt.gomaxprocs,
			GCCycles:          c.rt.gcCycles,
			GCPauseNS:         c.rt.gcPauseNS,
			HeapLiveBytes:     c.rt.heapLive,
			HeapLiveMaxBytes:  c.rt.heapLiveMax,
			SchedLatencyP50NS: c.rt.schedP50NS,
			SchedLatencyP99NS: c.rt.schedP99NS,
		},
	}
	for _, name := range phaseNames {
		r.Spans[name] = c.spans[name].Snapshot()
		r.PhaseNS[name] = c.phaseTotal[name]
	}
	for i, ws := range c.perWorker {
		wr := WorkerReport{Worker: i, Jobs: ws.jobs.Load(), BusyNS: ws.busyNS.Load()}
		if wall > 0 {
			wr.BusyFraction = float64(wr.BusyNS) / float64(wall)
		}
		r.PerWorker = append(r.PerWorker, wr)
	}

	d := &r.Diagnosis
	if n := len(r.PerWorker); n > 0 {
		min, max, sum := r.PerWorker[0].BusyFraction, r.PerWorker[0].BusyFraction, 0.0
		for _, wr := range r.PerWorker {
			sum += wr.BusyFraction
			if wr.BusyFraction < min {
				min = wr.BusyFraction
			}
			if wr.BusyFraction > max {
				max = wr.BusyFraction
			}
		}
		d.WorkerBusyFraction = sum / float64(n)
		d.WorkerBusyFractionMin = min
		d.WorkerBusyFractionMax = max
	}
	if wall > 0 {
		d.GCPauseShare = float64(r.Runtime.GCPauseNS) / float64(wall)
		d.SimCyclesPerSec = float64(r.SimCycles) / (float64(wall) / 1e9)
		if done := r.JobsDone; done > 0 {
			d.QueueShare = (float64(r.PhaseNS[PhaseQueue]) / float64(done)) / float64(wall)
		}
	}
	if busy > 0 {
		d.ConstructShare = float64(r.PhaseNS[PhaseConstruct]) / float64(busy)
		d.MergeShare = float64(r.PhaseNS[PhaseMerge]) / float64(busy)
	}
	return r
}

// WriteJSON writes v as two-space indented JSON and a newline: the one
// encoding of every JSON view of a run — the -report and -runnerstats
// files, GET /status and GET /runnerstats.
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
