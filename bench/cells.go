package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"tssim/internal/bus"
	"tssim/internal/sim"
	"tssim/internal/workload"
)

// A cell is one simulation a user would run: one generator under one
// technique combination on one fabric at one CPU count, built by the
// Fig 7 recipe (ExperimentConfig, jitter 5, the benchmark's seed).
type cell struct {
	key string // generator/combo/fabric/cpus: the golden key
	gen string
	job sim.Job
}

// A spec is one benchmark workload: a fixed list of cells and how
// often a full run executes them.
type spec struct {
	name  string
	why   string
	reps  int // executions of every cell in a full run
	quick int // the same under -quick
	// traced is the number of traced replica runs per cell, of which
	// the one with the smallest loop time is reported. diffReps is the
	// number of executions per differential variant.
	traced, diffReps int
	cells            func(seed int64) ([]cell, error)
}

var allTech = sim.Techniques{MESTI: true, EMESTI: true, LVP: true, SLE: true}

// specs lists the workloads in run order. Names are fixed: later
// issues refer to them.
var specs = []spec{
	{
		name: "idle_specjbb", reps: 150, quick: 3, traced: 10, diffReps: 3,
		why:   "specjbb, Baseline, atomic bus, 4 CPUs: idle-heavy (skip fraction 0.73, IPC 0.34), so the horizon scan, skipTo and the stalled-window cpu.Tick path show here",
		cells: oneCell("specjbb", sim.Techniques{}, bus.KindBus, 4),
	},
	{
		name: "busy_tpcb", reps: 250, quick: 3, traced: 10, diffReps: 3,
		why:   "tpc-b, E-MESTI+LVP+SLE, atomic bus, 4 CPUs: compute-bound (skip fraction <0.02, IPC 3.5) with every technique live, so the per-cycle tick path and the predictor, stale and SLE code show here",
		cells: oneCell("tpc-b", allTech, bus.KindBus, 4),
	},
	{
		name: "dir16_specjbb", reps: 15, quick: 1, traced: 3, diffReps: 1,
		why:   "specjbb, MESTI, directory, 16 CPUs: everything O(CPUs) per cycle, construction and the non-broadcast grant path do their most work here",
		cells: oneCell("specjbb", sim.Techniques{MESTI: true}, bus.KindDirectory, 16),
	},
	{
		name: "sweep_fig7", reps: 3, quick: 1, traced: 1, diffReps: 1,
		why:   "the 63 Fig 7 cells (7 generators x 9 combos, atomic bus, 4 CPUs): what regenerating the paper's table costs, and the breadth guard for generators and combos the other three do not run",
		cells: fig7Cells,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

func workloadParams(cpus int) workload.Params {
	return workload.Params{CPUs: cpus, Scale: 1, UnsafeISyncEvery: 3}
}

func newCell(w workload.Workload, tech sim.Techniques, fabric string, cpus int, seed int64) cell {
	cfg := sim.ExperimentConfig()
	cfg.CPUs = cpus
	cfg.Interconnect = fabric
	cfg.Tech = tech
	cfg.Seed = seed
	return cell{
		key: fmt.Sprintf("%s/%s/%s/%d", w.Name, tech, fabric, cpus),
		gen: w.Name,
		job: sim.SampleJobs(cfg, w, 1)[0],
	}
}

func oneCell(gen string, tech sim.Techniques, fabric string, cpus int) func(int64) ([]cell, error) {
	return func(seed int64) ([]cell, error) {
		w, err := workload.ByName(gen, workloadParams(cpus))
		if err != nil {
			return nil, err
		}
		return []cell{newCell(w, tech, fabric, cpus, seed)}, nil
	}
}

// fig7Cells lists workload.All x sim.AllCombos in Fig 7 order.
func fig7Cells(seed int64) ([]cell, error) {
	var cs []cell
	for _, w := range workload.All(workloadParams(4)) {
		for _, tech := range sim.AllCombos() {
			cs = append(cs, newCell(w, tech, bus.KindBus, 4, seed))
		}
	}
	return cs, nil
}

// firstOfEachGenerator returns the indices of the first cell of every
// generator: the whole workload, except on the sweep.
func firstOfEachGenerator(cells []cell) []int {
	var first []int
	seen := map[string]bool{}
	for i, c := range cells {
		if !seen[c.gen] {
			seen[c.gen] = true
			first = append(first, i)
		}
	}
	return first
}

// A fingerprint pins every simulated statistic of one execution. A
// change that only speeds the simulator up must leave it identical.
type fingerprint struct {
	Cycles   uint64   `json:"cycles"`
	Retired  uint64   `json:"retired"`
	PerCPU   []uint64 `json:"per_cpu"`
	Counters string   `json:"counters"` // FNV-64a of the sorted name=value lines, hex
}

func fingerprintOf(cycles uint64, perCPU []uint64, counters map[string]uint64) fingerprint {
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, k := range names {
		fmt.Fprintf(h, "%s=%d\n", k, counters[k])
	}
	fp := fingerprint{Cycles: cycles, PerCPU: perCPU, Counters: fmt.Sprintf("%016x", h.Sum64())}
	for _, r := range perCPU {
		fp.Retired += r
	}
	return fp
}

func (a fingerprint) equal(b fingerprint) bool {
	if a.Cycles != b.Cycles || a.Retired != b.Retired || a.Counters != b.Counters || len(a.PerCPU) != len(b.PerCPU) {
		return false
	}
	for i := range a.PerCPU {
		if a.PerCPU[i] != b.PerCPU[i] {
			return false
		}
	}
	return true
}

//go:embed golden.json
var goldenJSON []byte

// A checker decides whether an execution's outputs are correct. On
// seed 0 every fingerprint must match golden.json; on any other seed
// (or while the golden is being recorded) a cell's first execution
// sets the fingerprint its later ones must repeat.
type checker struct {
	want   map[string]fingerprint
	pinned bool // a cell missing from want is a failure
}

func newChecker(seed int64, recording bool) (*checker, error) {
	ck := &checker{want: map[string]fingerprint{}}
	if seed == 0 && !recording {
		if err := json.Unmarshal(goldenJSON, &ck.want); err != nil {
			return nil, fmt.Errorf("golden.json: %w", err)
		}
		ck.pinned = true
	}
	return ck, nil
}

// check returns why an execution of c failed, or nil. Workload
// validation runs inside RunOneErr and arrives as res.Err.
func (ck *checker) check(c cell, res sim.Result) error {
	if res.Err != nil {
		return res.Err
	}
	if !res.Finished {
		return fmt.Errorf("%s: did not finish", c.key)
	}
	return ck.checkFingerprint(c.key, fingerprintOf(res.Cycles, res.PerCPU, res.Counters))
}

func (ck *checker) checkFingerprint(key string, got fingerprint) error {
	want, ok := ck.want[key]
	switch {
	case !ok && ck.pinned:
		return fmt.Errorf("%s: no golden fingerprint", key)
	case !ok:
		ck.want[key] = got
	case !got.equal(want):
		return fmt.Errorf("%s: fingerprint %+v, want %+v", key, got, want)
	}
	return nil
}
