// Package experiments regenerates every table and figure of the
// paper's evaluation (§5) on the simulated machine: Table 1 (machine
// parameters), Table 2 (workload characteristics), Figure 6
// (stale-storage capacity vs. captured temporal silence), Figure 7
// (performance of MESTI/E-MESTI/LVP/SLE and combinations), Figure 8
// (address-transaction breakdown), plus the §4.2.3 SLE statistics, the
// §2.4 predictor-tuning ablation, the §5.3.2 miss breakdown and a
// scaling study beyond the paper's four CPUs.
//
// Every artifact is a view over one cell store. A Key names one cell —
// workload, CPU count, effective techniques, stale-storage size,
// predictor tuning, seed index — and every cell is built the way
// Figure 7 builds its samples (sim.SampleJobs: jitter on, run i seeded
// from the machine's base seed and i), so Table 2's counts, Figure 8's
// transactions and Figure 7's speedups describe the same runs. An
// Artifact lists the keys it reads and renders its table and FAILED
// footer from the store alone. Run takes the union of the artifacts'
// keys in first-seen order — two artifacts that read one key share one
// run — fans it out in a single sim.Runner pass (Params.Jobs bounds the
// pool; 0 means GOMAXPROCS) and renders each artifact. Results come
// back in job order, so the output is byte-identical at any
// parallelism. A run that deadlocks or fails validation renders ERR in
// every cell that reads it and is named in the FAILED footer of every
// artifact that reads it; the rest of the sweep completes, and Run
// reports the failed keys beside the output.
//
// The cmd/experiments binary is a thin wrapper over this package;
// EXPERIMENTS.md records the outputs against the paper's numbers.
package experiments

import (
	"fmt"
	"strings"

	"tssim/internal/core"
	"tssim/internal/cpu"
	"tssim/internal/predictor"
	"tssim/internal/sim"
	"tssim/internal/stats"
	"tssim/internal/telemetry"
	"tssim/internal/workload"
)

// Params scales an experiment run.
type Params struct {
	// Machine is the configuration every cell of the sweep starts from
	// (CPU count, fabric, checkers, kernel path); each cell's Key sets
	// its techniques, stale storage and predictor tuning, and the
	// scaling study its CPU count. The zero value selects
	// sim.ExperimentConfig. cmd/experiments fills it from the shared
	// flags (cli.Flags.Config).
	Machine sim.Config
	Scale   int // workload iteration multiplier
	Seeds   int // Figure 7's runs per configuration, for confidence intervals
	Jobs    int // concurrent simulations (0 = GOMAXPROCS)
	// Telemetry, when non-nil, collects harness telemetry (progress,
	// worker busy time, the shares of host time) across the sweep.
	// Purely observational: tables are byte-identical with or without
	// it.
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

// Key names one cell: one seeded run of one workload on Params.Machine.
// Each field is what the run uses, so two artifacts that study the
// same machine ask for equal keys and read one run.
type Key struct {
	Workload   string
	CPUs       int
	Tech       sim.Techniques           // effective: E-MESTI includes MESTI
	StaleBytes int                      // stale storage; 0 = the perfect detector
	Validate   predictor.ValidateParams // the E-MESTI predictor's tuning
	Seed       int                      // sample index, as in sim.SampleJobs
}

// at is workload w's seed-0 cell under tech on p's machine, with the
// perfect detector and the published predictor tuning.
func (p Params) at(w string, tech sim.Techniques) Key {
	return Key{Workload: w, CPUs: p.Machine.CPUs, Tech: tech.Effective(),
		Validate: predictor.DefaultValidateParams()}
}

// Store holds the result of every cell a set of artifacts reads.
type Store map[Key]sim.Result

// fill runs every key through one runner sized and observed as p says.
func (p Params) fill(keys []Key) Store {
	ws := map[int]map[string]sim.Workload{} // by CPU count, then name
	jobs := make([]sim.Job, len(keys))
	for i, k := range keys {
		byName, ok := ws[k.CPUs]
		if !ok {
			byName = map[string]sim.Workload{}
			for _, w := range workload.All(workload.Params{CPUs: k.CPUs, Scale: p.Scale, UnsafeISyncEvery: 3}) {
				byName[w.Name] = w
			}
			ws[k.CPUs] = byName
		}
		cfg := p.Machine
		cfg.CPUs = k.CPUs
		cfg.Tech = k.Tech
		cfg.Node.StaleBytes = k.StaleBytes
		cfg.Node.ValidateParams = k.Validate
		jobs[i] = sim.SampleJobs(cfg, byName[k.Workload], k.Seed+1)[k.Seed]
	}
	results := sim.NewRunner().Jobs(p.Jobs).Collect(p.Telemetry).RunAll(jobs)
	s := make(Store, len(keys))
	for i, k := range keys {
		s[k] = results[i]
	}
	return s
}

// An Artifact is one table or figure, planned for one Params: the cells
// it reads and how it renders them.
type Artifact struct {
	Title  string             // printed as "== Title ==" above the table
	Keys   []Key              // every cell Render reads
	Render func(Store) string // the table and its FAILED footer
}

// Run plans every artifact for p, runs the union of their keys in
// first-seen order in one runner pass, and returns the artifacts as
// cmd/experiments prints them, each under its "== Title ==" heading,
// and the keys of the cells that failed.
func Run(p Params, plans ...func(Params) Artifact) (string, []Key) {
	p = p.withDefaults()
	arts := make([]Artifact, len(plans))
	for i, plan := range plans {
		arts[i] = plan(p)
	}
	return render(arts, p.fill(union(arts)))
}

// union lists the keys the artifacts read, each once, in first-seen
// order.
func union(arts []Artifact) []Key {
	var keys []Key
	seen := map[Key]bool{}
	for _, a := range arts {
		for _, k := range a.Keys {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// render prints every artifact from s under its heading and lists the
// failed cells among the keys they read, each once, in first-seen
// order.
func render(arts []Artifact, s Store) (string, []Key) {
	var b strings.Builder
	for _, a := range arts {
		fmt.Fprintf(&b, "== %s ==\n%s\n", a.Title, a.Render(s))
	}
	var failed []Key
	for _, k := range union(arts) {
		if s[k].Err != nil {
			failed = append(failed, k)
		}
	}
	return b.String(), failed
}

// errCell is the table cell rendered for a failed run; the FAILED
// footer carries the full reason.
const errCell = "ERR"

// failNotes lists every failed cell among keys after a table, so a
// livelocked configuration is reported rather than silently zero.
func (s Store) failNotes(keys []Key) string {
	var b strings.Builder
	for _, k := range keys {
		if r := s[k]; r.Err != nil {
			fmt.Fprintf(&b, "FAILED %s under %s: %v\n", r.Workload, r.Tech, r.Err)
		}
	}
	return b.String()
}

var emesti = sim.Techniques{MESTI: true, EMESTI: true}

// perWorkload is one row per workload of the seed-0 cells under techs.
func (p Params) perWorkload(techs ...sim.Techniques) [][]Key {
	var rows [][]Key
	for _, w := range workload.Names() {
		row := make([]Key, len(techs))
		for i, tech := range techs {
			row[i] = p.at(w, tech)
		}
		rows = append(rows, row)
	}
	return rows
}

// flat lists the keys of rows in order.
func flat(rows [][]Key) []Key {
	var keys []Key
	for _, row := range rows {
		keys = append(keys, row...)
	}
	return keys
}

// Table1 renders the simulated machine parameters next to the paper's
// Table 1 values. It reads no cell.
func Table1(Params) Artifact {
	return Artifact{Title: "Table 1: simulated machine parameters", Render: func(Store) string {
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
	}}
}

// Table2 prints the workload-characteristics table from every
// workload's E-MESTI cell (temporally silent stores are "those captured
// with MESTI", per the paper's caption).
func Table2(p Params) Artifact {
	keys := flat(p.withDefaults().perWorkload(emesti))
	return Artifact{Title: "Table 2: workload characteristics", Keys: keys, Render: func(s Store) string {
		t := stats.NewTable("Program", "Instr", "Loads", "Stores", "US Stores", "TS Stores", "IPC")
		for _, k := range keys {
			r := s[k]
			if r.Err != nil {
				t.Row(k.Workload, errCell)
				continue
			}
			t.Row(k.Workload,
				fmt.Sprint(r.Retired),
				fmt.Sprint(r.Counters["cpu/loads"]),
				fmt.Sprint(r.Counters["cpu/stores"]),
				fmt.Sprint(r.Counters["store/us_detected"]),
				fmt.Sprint(r.Counters["mesti/ts_detect"]),
				stats.F(r.IPC()))
		}
		return t.String() + s.failNotes(keys)
	}}
}

// Fig6 reproduces the stale-storage study: communication misses under
// MESTI with the finite L1-Mirror + stale-storage detector at two
// capacities, against no temporal-silence detection (baseline) and the
// perfect detector (full stale storage).
func Fig6(p Params) Artifact {
	mesti := sim.Techniques{MESTI: true}
	rows := p.withDefaults().perWorkload(sim.Techniques{}, mesti, mesti, mesti)
	for _, row := range rows {
		row[1].StaleBytes, row[2].StaleBytes = 32*1024, 128*1024
	}
	keys := flat(rows)
	return Artifact{Title: "Figure 6: communication misses vs stale-storage capacity", Keys: keys, Render: func(s Store) string {
		t := stats.NewTable("Program", "Baseline (no MESTI)", "MESTI 32KB stale", "MESTI 128KB stale", "MESTI full stale")
		for _, row := range rows {
			cells := []string{row[0].Workload}
			for _, k := range row {
				if r := s[k]; r.Err != nil {
					cells = append(cells, errCell)
				} else {
					cells = append(cells, fmt.Sprint(r.Counters["miss/comm"]))
				}
			}
			t.Row(cells...)
		}
		return t.String() + s.failNotes(keys)
	}}
}

// Fig7 renders the performance-comparison matrix: every workload ×
// every technique combination × Seeds seeded runs, as speedups over the
// baseline's mean (with a 95% CI when Seeds > 1).
func Fig7(p Params) Artifact {
	p = p.withDefaults()
	combos := sim.AllCombos()
	header := []string{"Program"}
	for _, c := range combos[1:] {
		header = append(header, c.String())
	}
	// samples[w][c] are the Seeds keys of workload w under combo c.
	var samples [][][]Key
	var keys []Key
	for _, row := range p.perWorkload(combos...) {
		cells := make([][]Key, len(row))
		for ci, k := range row {
			for k.Seed = 0; k.Seed < p.Seeds; k.Seed++ {
				cells[ci] = append(cells[ci], k)
			}
			keys = append(keys, cells[ci]...)
		}
		samples = append(samples, cells)
	}
	return Artifact{Title: "Figure 7: performance (speedup over baseline)", Keys: keys, Render: func(s Store) string {
		// cycles collapses one combo's seed runs into a sample; a combo
		// with any failed seed yields nil (an ERR cell).
		cycles := func(ks []Key) *stats.Sample {
			sample := &stats.Sample{}
			for _, k := range ks {
				r := s[k]
				if r.Err != nil {
					return nil
				}
				sample.Add(float64(r.Cycles))
			}
			return sample
		}
		t := stats.NewTable(header...)
		for _, row := range samples {
			base := cycles(row[0])
			cells := []string{row[0][0].Workload}
			for _, ks := range row[1:] {
				sm := cycles(ks)
				if base == nil || sm == nil {
					cells = append(cells, errCell)
					continue
				}
				sp := &stats.Sample{}
				// Ratios against the baseline mean keep the CI
				// interpretable as spread of normalized runtime.
				for _, v := range sm.Values() {
					sp.Add(base.Mean() / v)
				}
				if p.Seeds > 1 {
					cells = append(cells, fmt.Sprintf("%s ±%.1f%%", stats.Pct(sp.Mean()-1), 100*sp.CI95()))
				} else {
					cells = append(cells, stats.Pct(sp.Mean()-1))
				}
			}
			t.Row(cells...)
		}
		return t.String() + s.failNotes(keys)
	}}
}

// Fig8 renders the address-transaction breakdown (Read/ReadX/Upgrade/
// Validate, normalized to the baseline's total) for every workload and
// combination — the paper's Figure 8.
func Fig8(p Params) Artifact {
	rows := p.withDefaults().perWorkload(sim.AllCombos()...)
	keys := flat(rows)
	return Artifact{Title: "Figure 8: address transactions", Keys: keys, Render: func(s Store) string {
		t := stats.NewTable("Program", "Tech", "Read", "ReadX", "Upgrade", "Validate", "Total(norm)")
		for _, row := range rows {
			var baseTotal float64 // row[0] is the baseline
			for i, k := range row {
				r := s[k]
				if r.Err != nil {
					t.Row(k.Workload, k.Tech.String(), errCell)
					continue
				}
				rd := r.Counters["bus/txn/read"]
				rx := r.Counters["bus/txn/readx"]
				up := r.Counters["bus/txn/upgrade"]
				va := r.Counters["bus/txn/validate"]
				total := float64(rd + rx + up + va)
				if i == 0 {
					baseTotal = total
				}
				norm := 0.0
				if baseTotal > 0 {
					norm = total / baseTotal
				}
				t.Row(k.Workload, k.Tech.String(), fmt.Sprint(rd), fmt.Sprint(rx),
					fmt.Sprint(up), fmt.Sprint(va), stats.F(norm))
			}
		}
		return t.String() + s.failNotes(keys)
	}}
}

// Scaling reports communication-miss elimination beyond the paper's
// 4-CPU machine: at 4, 8 and 16 CPUs every workload runs under the
// baseline, MESTI, and E-MESTI on p's fabric (the directory backend is
// the interesting one — broadcast snooping is what the paper assumes
// away at scale), and the table shows how much of the baseline's
// communication-miss traffic each technique eliminates.
func Scaling(p Params) Artifact {
	p = p.withDefaults()
	var rows [][]Key
	for _, n := range []int{4, 8, 16} {
		for _, row := range p.perWorkload(sim.Techniques{}, sim.Techniques{MESTI: true}, emesti) {
			for i := range row {
				row[i].CPUs = n
			}
			rows = append(rows, row)
		}
	}
	keys := flat(rows)
	fabric := p.Machine.Interconnect
	if fabric == "" {
		fabric = "bus"
	}
	title := fmt.Sprintf("Scaling: communication-miss elimination (%s backend)", fabric)
	return Artifact{Title: title, Keys: keys, Render: func(s Store) string {
		t := stats.NewTable("CPUs", "Program", "Base comm", "MESTI comm", "elim", "E-MESTI comm", "elim")
		for _, row := range rows {
			k := row[0]
			b, m, e := s[k], s[row[1]], s[row[2]]
			if b.Err != nil || m.Err != nil || e.Err != nil {
				t.Row(fmt.Sprint(k.CPUs), k.Workload, errCell)
				continue
			}
			base := b.Counters["miss/comm"]
			elim := func(r sim.Result) string {
				if base == 0 {
					return "n/a"
				}
				return stats.Pct(1 - float64(r.Counters["miss/comm"])/float64(base))
			}
			t.Row(fmt.Sprint(k.CPUs), k.Workload,
				fmt.Sprint(base),
				fmt.Sprint(m.Counters["miss/comm"]), elim(m),
				fmt.Sprint(e.Counters["miss/comm"]), elim(e))
		}
		return t.String() + s.failNotes(keys)
	}}
}

// SLEStats reproduces the §4.2.3/§5.3.1 elision statistics from every
// workload's SLE cell: attempts, successes, and the failure-mode
// breakdown.
func SLEStats(p Params) Artifact {
	keys := flat(p.withDefaults().perWorkload(sim.Techniques{SLE: true}))
	return Artifact{Title: "SLE statistics (§4.2.3)", Keys: keys, Render: func(s Store) string {
		t := stats.NewTable("Program", "SC ops", "Attempts", "Success", "NoRelease", "Conflict", "Overflow", "Unsafe", "Filtered")
		for _, k := range keys {
			r := s[k]
			if r.Err != nil {
				t.Row(k.Workload, errCell)
				continue
			}
			t.Row(k.Workload,
				fmt.Sprint(r.Counters["cpu/sc_issued"]+r.Counters["sle/attempt"]),
				fmt.Sprint(r.Counters["sle/attempt"]),
				fmt.Sprint(r.Counters["sle/success"]),
				fmt.Sprint(r.Counters["sle/abort_no_release"]),
				fmt.Sprint(r.Counters["sle/abort_conflict"]),
				fmt.Sprint(r.Counters["sle/abort_overflow"]),
				fmt.Sprint(r.Counters["sle/abort_unsafe"]),
				fmt.Sprint(r.Counters["sle/filtered"]))
		}
		return t.String() + s.failNotes(keys)
	}}
}

// PredictorAblation sweeps useful-validate predictor tunings around
// the published 3-4-1-1-7 on the lock-handoff-heavy tpc-b workload,
// reporting cycles and validate traffic for each against the baseline.
// The published row is Figure 7's E-MESTI cell.
func PredictorAblation(p Params) Artifact {
	p = p.withDefaults()
	keys := []Key{p.at("tpc-b", sim.Techniques{})}
	for _, tn := range []predictor.ValidateParams{
		{InitConf: 3, Threshold: 4, Inc: 1, Dec: 1}, // published
		{InitConf: 0, Threshold: 4, Inc: 1, Dec: 1}, // cold-hostile
		{InitConf: 7, Threshold: 4, Inc: 1, Dec: 1}, // cold-eager
		{InitConf: 3, Threshold: 1, Inc: 1, Dec: 1}, // validate-happy
		{InitConf: 3, Threshold: 7, Inc: 1, Dec: 1}, // validate-shy
		{InitConf: 3, Threshold: 4, Inc: 2, Dec: 1}, // optimistic
		{InitConf: 3, Threshold: 4, Inc: 1, Dec: 2}, // pessimistic
	} {
		k := p.at("tpc-b", emesti)
		k.Validate = tn
		keys = append(keys, k)
	}
	return Artifact{Title: "Validate-predictor ablation (§2.4, tpc-b)", Keys: keys, Render: func(s Store) string {
		base := s[keys[0]]
		t := stats.NewTable("Tuning", "Cycles", "Speedup", "Validates", "Revalidates", "Suppressed")
		for _, k := range keys[1:] {
			r := s[k]
			tn := k.Validate
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
		return t.String() + s.failNotes(keys)
	}}
}

// MissBreakdown reports per-workload communication vs memory misses
// under the baseline, plus the fraction of communication misses that
// LVP verifies correct despite an intervening write to the line — the
// false-sharing population of §5.3.2 (LVP's unique catch).
func MissBreakdown(p Params) Artifact {
	rows := p.withDefaults().perWorkload(sim.Techniques{}, sim.Techniques{LVP: true})
	keys := flat(rows)
	return Artifact{Title: "Miss classification (§5.3.2)", Keys: keys, Render: func(s Store) string {
		t := stats.NewTable("Program", "CommMiss", "MemMiss", "Comm%", "LVP ok", "LVP fail", "FalseShare~%")
		for _, row := range rows {
			b, l := s[row[0]], s[row[1]]
			if b.Err != nil || l.Err != nil {
				t.Row(row[0].Workload, errCell)
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
			t.Row(row[0].Workload, fmt.Sprint(comm), fmt.Sprint(memm),
				stats.Pct(commPct), fmt.Sprint(ok), fmt.Sprint(fail), stats.Pct(fsPct))
		}
		return t.String() + s.failNotes(keys)
	}}
}
