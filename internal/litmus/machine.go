package litmus

import (
	"fmt"

	"tssim/internal/bus"
	"tssim/internal/cache"
	"tssim/internal/isa"
	"tssim/internal/mem"
	"tssim/internal/sim"
)

// MachineConfig is the litmus machine at grid point v for cpus
// processors: deliberately tiny caches and small structural limits so
// eviction, writeback, MSHR exhaustion, and store-buffer pressure all
// happen within a few thousand cycles, and a fast interconnect so an
// iteration finishes quickly. The coherence checker and the in-order
// commit checker are both on.
func MachineConfig(v Variant, cpus int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.CPUs = cpus
	cfg.Tech = v.Tech
	cfg.Seed = int64(v.Seed)
	cfg.StartOffsets = v.Offsets
	cfg.NoFastForward = v.NoFF
	cfg.Interconnect = v.Interconnect
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
		JitterMax:     int(v.Seed%5) + 1,
		ArbStart:      v.ArbStart,
	}
	cfg.MaxCycles = 3_000_000
	cfg.NoProgressCycles = 400_000
	cfg.Check = true
	cfg.CheckCommits = true
	cfg.CheckSweepEvery = 64
	return cfg
}

// Run runs w on the litmus machine at v and returns the machine, for the
// caller to read its registers, and the result, whose Err is the verdict:
// a checker violation, the watchdog, MaxCycles or a failed w.Validate.
func Run(w sim.Workload, v Variant) (*sim.System, sim.Result) {
	sys := sim.New(MachineConfig(v, len(w.Programs)), w)
	r, _ := sys.RunErr(w)
	return sys, r
}

// finals is a workload Validate that requires every word of want.
func finals(want map[uint64]uint64) func(*mem.Memory, func(uint64) uint64) error {
	return func(_ *mem.Memory, read func(uint64) uint64) error {
		for a, v := range want {
			if got := read(a); got != v {
				return fmt.Errorf("final @%#x = %#x, want %#x", a, got, v)
			}
		}
		return nil
	}
}

// RunShape executes one litmus shape at one grid point and returns the
// observed outcome tuple, read from committed architectural registers.
// The full oracle surface applies to every run: the SWMR/data-value
// coherence checker and the in-order commit checker abort the run on
// violation, and the workload's Validate compares the deterministic
// final-memory image after halt; either is returned as an error.
func RunShape(s *Shape, v Variant) (isa.Outcome, error) {
	progs := s.Programs(v.Delays)
	sys, r := Run(sim.Workload{Name: s.Name, Programs: progs, Validate: finals(s.FinalMem())}, v)
	if r.Err != nil {
		return isa.Outcome{}, fmt.Errorf("run: %w", r.Err)
	}
	return isa.OutcomeOf(progs, func(cpu, r int) uint64 {
		return sys.Cores[cpu].Reg(r)
	}), nil
}
