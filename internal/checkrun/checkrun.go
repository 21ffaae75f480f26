// Package checkrun bridges the sim-free litmus machinery in
// internal/check to the timing simulator. check cannot import sim —
// sim imports check to attach the coherence checker — so the shape
// library and enumeration engine are written against a run callback;
// this package provides the standard adapter (RunShapeVariant), the
// litmus machine configuration shared by the fuzz harness, the shape
// acceptance tests and cmd/tssim.
package checkrun

import (
	"fmt"

	"tssim/internal/bus"
	"tssim/internal/cache"
	"tssim/internal/check"
	"tssim/internal/isa"
	"tssim/internal/sim"
)

// MachineConfig is the litmus machine: deliberately tiny caches and
// small structural limits so eviction, writeback, MSHR exhaustion,
// and store-buffer pressure all happen within a few thousand cycles,
// and a fast interconnect so an iteration finishes quickly. The
// coherence checker and the in-order commit checker are both on.
func MachineConfig(tech sim.Techniques, cpus int, seed int64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.CPUs = cpus
	cfg.Tech = tech
	cfg.Seed = seed
	cfg.Node.L1 = cache.Config{SizeBytes: 512, Assoc: 2}
	cfg.Node.L2 = cache.Config{SizeBytes: 2 * 1024, Assoc: 4}
	cfg.Node.MSHRs = 4
	cfg.Node.StoreBuf = 4
	cfg.Bus = bus.Config{
		AddrLatency:   20,
		AddrOccupancy: 2,
		MemLatency:    60,
		C2CLatency:    40,
		DataOccupancy: 4,
		JitterMax:     int(uint64(seed)%5) + 1,
	}
	cfg.MaxCycles = 3_000_000
	cfg.NoProgressCycles = 400_000
	cfg.Check = true
	cfg.CheckCommits = true
	cfg.CheckSweepEvery = 64
	return cfg
}

// ComboLabels returns the nine Figure-7 technique-combo labels in
// sim.AllCombos order — the enumeration grid's technique axis.
func ComboLabels() []string {
	combos := sim.AllCombos()
	labels := make([]string, len(combos))
	for i, t := range combos {
		labels[i] = t.String()
	}
	return labels
}

// RunShapeVariant executes one litmus shape at one grid point on the
// real machine and returns the observed outcome tuple. The full
// oracle surface applies to every run: the SWMR/data-value coherence
// checker and in-order commit checker abort the run on violation
// (reported as an error), the deterministic final-memory image is
// compared after halt, and the outcome is read from committed
// architectural registers.
func RunShapeVariant(s *check.Shape, v check.Variant) (isa.Outcome, error) {
	tech, err := sim.ParseTechniques(v.Combo)
	if err != nil {
		return isa.Outcome{}, err
	}
	progs := s.Programs(v.Delays)
	w := sim.Workload{Name: s.Name, Programs: progs}
	cfg := MachineConfig(tech, s.CPUs(), int64(v.Seed))
	cfg.StartOffsets = v.Offsets
	cfg.Bus.ArbStart = v.ArbStart
	cfg.NoFastForward = v.NoFF
	cfg.Interconnect = v.Interconnect
	sys := sim.New(cfg, w)
	if _, err := sys.RunErr(w); err != nil {
		return isa.Outcome{}, fmt.Errorf("run: %w", err)
	}
	for addr, want := range s.FinalMem() {
		if got := sys.ReadWordCoherent(addr); got != want {
			return isa.Outcome{}, fmt.Errorf("final mem[%#x] = %d, want %d", addr, got, want)
		}
	}
	return isa.OutcomeOf(progs, func(cpu, r int) uint64 {
		return sys.Cores[cpu].Reg(r)
	}), nil
}

// EnumerateShape sweeps the given grid for one shape by name.
func EnumerateShape(name string, knobs check.Knobs) (*check.EnumReport, error) {
	s := check.ShapeByName(name)
	if s == nil {
		return nil, fmt.Errorf("unknown shape %q (have %v)", name, check.ShapeNames())
	}
	return check.Enumerate(s, knobs, RunShapeVariant), nil
}
