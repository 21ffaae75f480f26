package sim

import (
	"tssim/internal/bus"
	"tssim/internal/cache"
	"tssim/internal/stats"
)

// ReportSchema versions the machine-readable run report. Consumers
// (benchmark trackers, CI diffing) should check it before parsing. v2
// records the effective cycle bounds, not the zero values that select
// them, and drops v1's core block, cache latencies and fill hold: those
// are constants now, and the block's SLE switch only shadowed tech.
const ReportSchema = "tssim-report/v2"

// ReportConfig is the machine part of Config as the run used it. It
// leaves out the techniques (the report's tech), the observers that
// cannot change a result (checkers, tracer, kernel path), and the hooks
// and knobs only tests and experiments set.
type ReportConfig struct {
	CPUs             int          `json:"cpus"`
	Interconnect     string       `json:"interconnect,omitempty"` // "" = atomic snoop bus
	Seed             int64        `json:"seed"`
	MaxCycles        uint64       `json:"max_cycles"`
	NoProgressCycles uint64       `json:"no_progress_cycles"`
	L1               cache.Config `json:"l1"`
	L2               cache.Config `json:"l2"`
	MSHRs            int          `json:"mshrs"`
	StoreBuf         int          `json:"store_buf"`
	Bus              bus.Config   `json:"bus"`
}

// Report is one run's machine-readable record: configuration, headline
// outcome, the full counter namespace, and every histogram; tssim
// -report writes it with telemetry.WriteJSONFile. The files can be
// diffed across commits, and EXPERIMENTS.md tables regenerated from them.
type Report struct {
	Schema     string                        `json:"schema"`
	Workload   string                        `json:"workload"`
	Tech       string                        `json:"tech"`
	Config     ReportConfig                  `json:"config"`
	Cycles     uint64                        `json:"cycles"`
	Retired    uint64                        `json:"retired"`
	IPC        float64                       `json:"ipc"`
	Finished   bool                          `json:"finished"`
	PerCPU     []uint64                      `json:"retired_per_cpu"`
	Counters   map[string]uint64             `json:"counters"`
	Histograms map[string]stats.HistSnapshot `json:"histograms"`
}

// NewReport assembles the report for a completed run of cfg.
func NewReport(cfg Config, r Result) Report {
	cfg = cfg.withDefaults()
	return Report{
		Schema:   ReportSchema,
		Workload: r.Workload,
		Tech:     r.Tech.String(),
		Config: ReportConfig{
			CPUs:             cfg.CPUs,
			Interconnect:     cfg.Interconnect,
			Seed:             cfg.Seed,
			MaxCycles:        cfg.MaxCycles,
			NoProgressCycles: cfg.NoProgressCycles,
			L1:               cfg.Node.L1,
			L2:               cfg.Node.L2,
			MSHRs:            cfg.Node.MSHRs,
			StoreBuf:         cfg.Node.StoreBuf,
			Bus:              cfg.Bus,
		},
		Cycles:     r.Cycles,
		Retired:    r.Retired,
		IPC:        r.IPC(),
		Finished:   r.Finished,
		PerCPU:     r.PerCPU,
		Counters:   r.Counters,
		Histograms: r.Hists,
	}
}
