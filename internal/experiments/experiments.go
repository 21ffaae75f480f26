// Package experiments regenerates every table and figure of the
// paper's evaluation (§5) on the simulated machine: Table 1 (machine
// parameters), Table 2 (workload characteristics), Figure 6
// (stale-storage capacity vs. captured temporal silence), Figure 7
// (performance of MESTI/E-MESTI/LVP/SLE and combinations), Figure 8
// (address-transaction breakdown), plus the §4.2.3 SLE statistics and
// the §2.4 predictor-tuning ablation.
//
// The evaluation matrix is embarrassingly parallel — workloads ×
// technique combos × seeds — so every experiment flattens its runs
// into a job list and fans them out through sim.Runner (Params.Jobs
// bounds the pool; 0 means GOMAXPROCS). Results come back in job
// order, so the rendered tables are byte-identical at any parallelism.
// A run that deadlocks or fails validation marks its own cell ERR and
// is reported in a FAILED footer; the rest of the sweep completes.
//
// The cmd/experiments binary is a thin wrapper over this package;
// EXPERIMENTS.md records the outputs against the paper's numbers.
package experiments

import (
	"fmt"
	"strings"

	"tssim/internal/cache"
	"tssim/internal/core"
	"tssim/internal/cpu"
	"tssim/internal/predictor"
	"tssim/internal/sim"
	"tssim/internal/stale"
	"tssim/internal/stats"
	"tssim/internal/telemetry"
	"tssim/internal/workload"
)

// Params scales an experiment run.
type Params struct {
	// Machine is the configuration every cell of the sweep starts from
	// (CPU count, fabric, checkers, kernel path); each experiment sets
	// Tech, and what it studies, per cell. The zero value selects
	// sim.ExperimentConfig. cmd/experiments fills it from the shared
	// flags (cli.Flags.Config).
	Machine sim.Config
	Scale   int // workload iteration multiplier
	Seeds   int // runs per configuration for confidence intervals
	Jobs    int // concurrent simulations (0 = GOMAXPROCS)
	// Telemetry, when non-nil, collects harness telemetry (per-job
	// spans, worker busy time, runtime metrics) across every sweep
	// this Params drives. Purely observational: tables are
	// byte-identical with or without it.
	Telemetry *telemetry.Collector
}

func (p Params) withDefaults() Params {
	if p.Machine.CPUs <= 0 {
		p.Machine = sim.ExperimentConfig()
	}
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.Seeds <= 0 {
		p.Seeds = 1
	}
	return p
}

func (p Params) workloadParams() workload.Params {
	return workload.Params{CPUs: p.Machine.CPUs, Scale: p.Scale, UnsafeISyncEvery: 3}
}

func (p Params) config(tech sim.Techniques) sim.Config {
	cfg := p.Machine
	cfg.Tech = tech
	return cfg
}

// run executes jobs through a runner sized and observed as p says.
func (p Params) run(jobs []sim.Job) []sim.Result {
	return sim.NewRunner().Jobs(p.Jobs).Collect(p.Telemetry).RunAll(jobs)
}

// errCell is the table cell rendered for a failed run; the FAILED
// footer carries the full reason.
const errCell = "ERR"

// failNotes lists every failed cell of a sweep after its table, so a
// livelocked configuration is reported rather than silently zero.
func failNotes(results []sim.Result) string {
	var b strings.Builder
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(&b, "FAILED %s under %s: %v\n", r.Workload, r.Tech, r.Err)
		}
	}
	return b.String()
}

// Table1 renders the simulated machine parameters next to the paper's
// Table 1 values.
func Table1() string {
	cfg := sim.ExperimentConfig()
	t := stats.NewTable("Attribute", "This reproduction", "Paper (Table 1)")
	t.Row("CPUs", fmt.Sprint(cfg.CPUs), "4")
	window := cpu.DefaultConfig()
	t.Row("Fetch/Issue/Commit", fmt.Sprintf("%d/%d/%d", cpu.FetchWidth, cpu.IssueWidth, cpu.CommitWidth), "8/8/8")
	t.Row("Pipeline depth", fmt.Sprint(cpu.PipeDepth), "6 stages")
	t.Row("RUU/LSQ", fmt.Sprintf("%d/%d", window.RUUSize, window.LSQSize), "256/128")
	t.Row("L1-D", fmt.Sprintf("%dKB %d-way (lat %d)", cfg.Node.L1.SizeBytes/1024, cfg.Node.L1.Assoc, core.L1Latency), "64KB 1-way (1+1) [scaled]")
	t.Row("L2", fmt.Sprintf("%dKB %d-way (+lat %d)", cfg.Node.L2.SizeBytes/1024, cfg.Node.L2.Assoc, core.L2Latency), "16MB 8-way (15) [scaled]")
	t.Row("MSHRs / store buffer", fmt.Sprintf("%d / %d", cfg.Node.MSHRs, cfg.Node.StoreBuf), "(not stated)")
	t.Row("Address network", fmt.Sprintf("lat %d, occ %d (bus)", cfg.Bus.AddrLatency, cfg.Bus.AddrOccupancy), "min 200, occ 20, bus")
	t.Row("Memory/c2c", fmt.Sprintf("lat %d/%d, occ %d (xbar)", cfg.Bus.MemLatency, cfg.Bus.C2CLatency, cfg.Bus.DataOccupancy), "min 400, occ 50, crossbar")
	t.Row("SLE", "in-core, 0.5*RUU threshold", "in-core, 0.5*RUU/LSQ")
	t.Row("MESTI detection", "perfect (Fig 6 validates finite)", "instant (perfect)")
	t.Row("Validate predictor", "3-4-1-1-7 in L2 tags", "3-4-1-1-7 in L2 tags")
	return t.String()
}

// Table2 runs every workload under E-MESTI (temporally silent stores
// are "those captured with MESTI", per the paper's caption) and prints
// the workload-characteristics table.
func Table2(p Params) string {
	p = p.withDefaults()
	ws := workload.All(p.workloadParams())
	jobs := make([]sim.Job, len(ws))
	for i, w := range ws {
		jobs[i] = sim.Job{Cfg: p.config(sim.Techniques{MESTI: true, EMESTI: true}), W: w}
	}
	results := p.run(jobs)
	t := stats.NewTable("Program", "Instr", "Loads", "Stores", "US Stores", "TS Stores", "IPC")
	for i, r := range results {
		if r.Err != nil {
			t.Row(ws[i].Name, errCell)
			continue
		}
		t.Row(ws[i].Name,
			fmt.Sprint(r.Retired),
			fmt.Sprint(r.Counters["cpu/loads"]),
			fmt.Sprint(r.Counters["cpu/stores"]),
			fmt.Sprint(r.Counters["store/us_detected"]),
			fmt.Sprint(r.Counters["mesti/ts_detect"]),
			stats.F(r.IPC()))
	}
	return t.String() + failNotes(results)
}

// Fig6 reproduces the stale-storage study: communication misses under
// MESTI with the finite L1-Mirror + stale-storage detector at two
// capacities, against no temporal-silence detection (baseline) and the
// perfect detector (full stale storage).
func Fig6(p Params) string {
	p = p.withDefaults()
	mirrorCfg := cache.Config{SizeBytes: 8 * 1024, Assoc: 4} // = the L1-D organization
	variants := []struct {
		name string
		cfg  func(c *sim.Config)
	}{
		{"Baseline (no MESTI)", func(c *sim.Config) { c.Tech = sim.Techniques{} }},
		{"MESTI 32KB stale", func(c *sim.Config) {
			c.Tech = sim.Techniques{MESTI: true}
			c.Node.NewDetector = func() stale.Detector {
				return stale.NewFinite(mirrorCfg, cache.Config{SizeBytes: 32 * 1024, Assoc: 8})
			}
		}},
		{"MESTI 128KB stale", func(c *sim.Config) {
			c.Tech = sim.Techniques{MESTI: true}
			c.Node.NewDetector = func() stale.Detector {
				return stale.NewFinite(mirrorCfg, cache.Config{SizeBytes: 128 * 1024, Assoc: 8})
			}
		}},
		{"MESTI full stale", func(c *sim.Config) { c.Tech = sim.Techniques{MESTI: true} }},
	}
	ws := workload.All(p.workloadParams())
	jobs := make([]sim.Job, 0, len(ws)*len(variants))
	for _, w := range ws {
		for _, v := range variants {
			cfg := p.config(sim.Techniques{})
			v.cfg(&cfg)
			jobs = append(jobs, sim.Job{Cfg: cfg, W: w})
		}
	}
	results := p.run(jobs)
	header := []string{"Program"}
	for _, v := range variants {
		header = append(header, v.name)
	}
	t := stats.NewTable(header...)
	for wi, w := range ws {
		row := []string{w.Name}
		for vi := range variants {
			r := results[wi*len(variants)+vi]
			if r.Err != nil {
				row = append(row, errCell)
				continue
			}
			row = append(row, fmt.Sprint(r.Counters["miss/comm"]))
		}
		t.Row(row...)
	}
	return t.String() + failNotes(results)
}

// Fig7Result holds one workload's normalized performance under every
// technique combination. Baseline is nil and Speedup entries are
// absent for cells whose runs failed.
type Fig7Result struct {
	Workload string
	Baseline *stats.Sample            // cycles
	Speedup  map[string]*stats.Sample // tech label -> baseline/technique cycle ratios
}

// Fig7 runs the full performance-comparison matrix — every workload ×
// every technique combination × Seeds seeded runs, all as one parallel
// job list — and returns both a rendered table and the raw results
// (for benchmarks and tests).
func Fig7(p Params) (string, []Fig7Result) {
	p = p.withDefaults()
	combos := sim.AllCombos()
	ws := workload.All(p.workloadParams())
	jobs := make([]sim.Job, 0, len(ws)*len(combos)*p.Seeds)
	for _, w := range ws {
		for _, tech := range combos {
			jobs = append(jobs, sim.SampleJobs(p.config(tech), w, p.Seeds)...)
		}
	}
	all := p.run(jobs)

	header := []string{"Program"}
	for _, c := range combos[1:] {
		header = append(header, c.String())
	}
	t := stats.NewTable(header...)
	var results []Fig7Result
	idx := 0
	for _, w := range ws {
		// Collapse each combo's seed runs into a sample; a combo with
		// any failed seed yields a nil sample (ERR cell).
		samples := make([]*stats.Sample, len(combos))
		for ci := range combos {
			s := &stats.Sample{}
			ok := true
			for si := 0; si < p.Seeds; si++ {
				r := all[idx]
				idx++
				if r.Err != nil {
					ok = false
					continue
				}
				s.Add(float64(r.Cycles))
			}
			if ok {
				samples[ci] = s
			}
		}
		res := Fig7Result{Workload: w.Name, Baseline: samples[0], Speedup: map[string]*stats.Sample{}}
		base := samples[0]
		row := []string{w.Name}
		for ci, tech := range combos[1:] {
			s := samples[ci+1]
			if base == nil || s == nil {
				row = append(row, errCell)
				continue
			}
			sp := &stats.Sample{}
			// Ratios against the baseline mean keep the CI
			// interpretable as spread of normalized runtime.
			for _, v := range s.Values() {
				sp.Add(base.Mean() / v)
			}
			res.Speedup[tech.String()] = sp
			if p.Seeds > 1 {
				row = append(row, fmt.Sprintf("%s ±%.1f%%", stats.Pct(sp.Mean()-1), 100*sp.CI95()))
			} else {
				row = append(row, stats.Pct(sp.Mean()-1))
			}
		}
		t.Row(row...)
		results = append(results, res)
	}
	return t.String() + failNotes(all), results
}

// Fig8 renders the address-transaction breakdown (Read/ReadX/Upgrade/
// Validate, normalized to the baseline's total) for every workload and
// combination — the paper's Figure 8.
func Fig8(p Params) string {
	p = p.withDefaults()
	combos := sim.AllCombos()
	ws := workload.All(p.workloadParams())
	jobs := make([]sim.Job, 0, len(ws)*len(combos))
	for _, w := range ws {
		for _, tech := range combos {
			jobs = append(jobs, sim.Job{Cfg: p.config(tech), W: w})
		}
	}
	results := p.run(jobs)
	t := stats.NewTable("Program", "Tech", "Read", "ReadX", "Upgrade", "Validate", "Total(norm)")
	for wi, w := range ws {
		var baseTotal float64
		for ci, tech := range combos {
			r := results[wi*len(combos)+ci]
			if r.Err != nil {
				t.Row(w.Name, tech.String(), errCell)
				continue
			}
			rd := r.Counters["bus/txn/read"]
			rx := r.Counters["bus/txn/readx"]
			up := r.Counters["bus/txn/upgrade"]
			va := r.Counters["bus/txn/validate"]
			total := float64(rd + rx + up + va)
			if ci == 0 {
				baseTotal = total
			}
			norm := 0.0
			if baseTotal > 0 {
				norm = total / baseTotal
			}
			t.Row(w.Name, tech.String(), fmt.Sprint(rd), fmt.Sprint(rx),
				fmt.Sprint(up), fmt.Sprint(va), stats.F(norm))
		}
	}
	return t.String() + failNotes(results)
}

// Scaling reports communication-miss elimination beyond the paper's
// 4-CPU machine: for each CPU count, every workload runs under the
// baseline, MESTI, and E-MESTI on p.Interconnect (the directory
// backend is the interesting one — broadcast snooping is what the
// paper assumes away at scale), and the table shows how much of the
// baseline's communication-miss traffic each technique eliminates.
func Scaling(p Params, cpuCounts []int) string {
	p = p.withDefaults()
	if len(cpuCounts) == 0 {
		cpuCounts = []int{4, 8, 16}
	}
	techs := []sim.Techniques{
		{},
		{MESTI: true},
		{MESTI: true, EMESTI: true},
	}
	var jobs []sim.Job
	var meta []struct {
		cpus int
		wi   int
		ti   int
	}
	for _, n := range cpuCounts {
		pn := p
		pn.Machine.CPUs = n
		ws := workload.All(pn.workloadParams())
		for wi := range ws {
			for ti, tech := range techs {
				jobs = append(jobs, sim.Job{Cfg: pn.config(tech), W: ws[wi]})
				meta = append(meta, struct {
					cpus int
					wi   int
					ti   int
				}{n, wi, ti})
			}
		}
	}
	results := p.run(jobs)
	names := workload.Names()
	t := stats.NewTable("CPUs", "Program", "Base comm", "MESTI comm", "elim", "E-MESTI comm", "elim")
	for i := 0; i < len(results); i += len(techs) {
		b, m, e := results[i], results[i+1], results[i+2]
		label := names[meta[i].wi]
		if b.Err != nil || m.Err != nil || e.Err != nil {
			t.Row(fmt.Sprint(meta[i].cpus), label, errCell)
			continue
		}
		base := b.Counters["miss/comm"]
		elim := func(r sim.Result) string {
			if base == 0 {
				return "n/a"
			}
			return stats.Pct(1 - float64(r.Counters["miss/comm"])/float64(base))
		}
		t.Row(fmt.Sprint(meta[i].cpus), label,
			fmt.Sprint(base),
			fmt.Sprint(m.Counters["miss/comm"]), elim(m),
			fmt.Sprint(e.Counters["miss/comm"]), elim(e))
	}
	return t.String() + failNotes(results)
}

// SLEStats reproduces the §4.2.3/§5.3.1 elision statistics: attempts,
// successes, and the failure-mode breakdown per workload.
func SLEStats(p Params) string {
	p = p.withDefaults()
	ws := workload.All(p.workloadParams())
	jobs := make([]sim.Job, len(ws))
	for i, w := range ws {
		jobs[i] = sim.Job{Cfg: p.config(sim.Techniques{SLE: true}), W: w}
	}
	results := p.run(jobs)
	t := stats.NewTable("Program", "SC ops", "Attempts", "Success", "NoRelease", "Conflict", "Overflow", "Unsafe", "Filtered")
	for i, r := range results {
		if r.Err != nil {
			t.Row(ws[i].Name, errCell)
			continue
		}
		t.Row(ws[i].Name,
			fmt.Sprint(r.Counters["cpu/sc_issued"]+r.Counters["sle/attempt"]),
			fmt.Sprint(r.Counters["sle/attempt"]),
			fmt.Sprint(r.Counters["sle/success"]),
			fmt.Sprint(r.Counters["sle/abort_no_release"]),
			fmt.Sprint(r.Counters["sle/abort_conflict"]),
			fmt.Sprint(r.Counters["sle/abort_overflow"]),
			fmt.Sprint(r.Counters["sle/abort_unsafe"]),
			fmt.Sprint(r.Counters["sle/filtered"]))
	}
	return t.String() + failNotes(results)
}

// PredictorAblation sweeps useful-validate predictor tunings around
// the published 3-4-1-1-7 on the lock-handoff-heavy tpc-b workload,
// reporting cycles and validate traffic for each.
func PredictorAblation(p Params) string {
	p = p.withDefaults()
	tunings := []predictor.ValidateParams{
		{InitConf: 3, Threshold: 4, Inc: 1, Dec: 1}, // published
		{InitConf: 0, Threshold: 4, Inc: 1, Dec: 1}, // cold-hostile
		{InitConf: 7, Threshold: 4, Inc: 1, Dec: 1}, // cold-eager
		{InitConf: 3, Threshold: 1, Inc: 1, Dec: 1}, // validate-happy
		{InitConf: 3, Threshold: 7, Inc: 1, Dec: 1}, // validate-shy
		{InitConf: 3, Threshold: 4, Inc: 2, Dec: 1}, // optimistic
		{InitConf: 3, Threshold: 4, Inc: 1, Dec: 2}, // pessimistic
	}
	w, err := workload.ByName("tpc-b", p.workloadParams())
	if err != nil {
		panic(err)
	}
	jobs := make([]sim.Job, 0, len(tunings)+1)
	jobs = append(jobs, sim.Job{Cfg: p.config(sim.Techniques{}), W: w})
	for _, tn := range tunings {
		cfg := p.config(sim.Techniques{MESTI: true, EMESTI: true})
		cfg.Node.ValidateParams = tn
		jobs = append(jobs, sim.Job{Cfg: cfg, W: w})
	}
	results := p.run(jobs)
	base := results[0]
	t := stats.NewTable("Tuning", "Cycles", "Speedup", "Validates", "Revalidates", "Suppressed")
	for i, tn := range tunings {
		r := results[i+1]
		label := fmt.Sprintf("%d-%d-%d-%d-%d", tn.InitConf, tn.Threshold, tn.Inc, tn.Dec, predictor.ValidateSatMax)
		if r.Err != nil || base.Err != nil {
			t.Row(label, errCell)
			continue
		}
		t.Row(label,
			fmt.Sprint(r.Cycles),
			stats.Pct(float64(base.Cycles)/float64(r.Cycles)-1),
			fmt.Sprint(r.Counters["bus/txn/validate"]),
			fmt.Sprint(r.Counters["mesti/revalidate"]),
			fmt.Sprint(r.Counters["mesti/validate_suppressed"]))
	}
	return t.String() + failNotes(results)
}

// MissBreakdown reports per-workload communication vs memory misses
// under the baseline, plus the fraction of communication misses that
// LVP verifies correct despite an intervening write to the line — the
// false-sharing population of §5.3.2 (LVP's unique catch).
func MissBreakdown(p Params) string {
	p = p.withDefaults()
	ws := workload.All(p.workloadParams())
	jobs := make([]sim.Job, 0, 2*len(ws))
	for _, w := range ws {
		jobs = append(jobs,
			sim.Job{Cfg: p.config(sim.Techniques{}), W: w},
			sim.Job{Cfg: p.config(sim.Techniques{LVP: true}), W: w})
	}
	results := p.run(jobs)
	t := stats.NewTable("Program", "CommMiss", "MemMiss", "Comm%", "LVP ok", "LVP fail", "FalseShare~%")
	for i, w := range ws {
		b, l := results[2*i], results[2*i+1]
		if b.Err != nil || l.Err != nil {
			t.Row(w.Name, errCell)
			continue
		}
		comm := b.Counters["miss/comm"]
		memm := b.Counters["miss/mem"]
		ok := l.Counters["lvp/verify_ok"]
		fail := l.Counters["lvp/verify_fail"]
		commPct, fsPct := 0.0, 0.0
		if comm+memm > 0 {
			commPct = float64(comm) / float64(comm+memm)
		}
		if ok+fail > 0 {
			fsPct = float64(ok) / float64(ok+fail)
		}
		t.Row(w.Name, fmt.Sprint(comm), fmt.Sprint(memm),
			stats.Pct(commPct), fmt.Sprint(ok), fmt.Sprint(fail), stats.Pct(fsPct))
	}
	return t.String() + failNotes(results)
}
