package sim_test

import (
	"fmt"

	"tssim/internal/isa"
	"tssim/internal/mem"
	"tssim/internal/sim"
	"tssim/internal/workload"
)

// Assemble the simulated 4-processor machine, run one of the built-in
// workloads under the baseline protocol and under each of the paper's
// coherence techniques, and compare cycles and communication misses.
//
// A workload is a set of programs (one per CPU) in the simulator's
// small RISC ISA, plus memory initialization and a functional
// validator. The workload package ships the paper's seven; tpc-b is the
// one with the most lock-handoff communication.
func Example_quickstart() {
	w, err := workload.ByName("tpc-b", workload.Params{CPUs: 4, Scale: 1})
	if err != nil {
		panic(err)
	}
	for _, tech := range []sim.Techniques{
		{},                          // MOESI baseline
		{MESTI: true},               // original MESTI (always validate)
		{MESTI: true, EMESTI: true}, // + useful-validate prediction
		{LVP: true},                 // load value prediction
		{MESTI: true, EMESTI: true, LVP: true},
	} {
		cfg := sim.ExperimentConfig() // Table 1 latencies, scaled caches
		cfg.Tech = tech
		r := sim.RunOne(cfg, w)
		fmt.Printf("%-14s cycles=%-8d IPC=%.3f commMisses=%-5d validates=%d\n",
			tech, r.Cycles, r.IPC(),
			r.Counters["miss/comm"], r.Counters["bus/txn/validate"])
	}
	// Output:
	// Baseline       cycles=109726   IPC=3.488 commMisses=465   validates=0
	// MESTI          cycles=100619   IPC=3.695 commMisses=368   validates=155
	// E-MESTI        cycles=103066   IPC=3.768 commMisses=398   validates=112
	// LVP            cycles=117953   IPC=3.439 commMisses=508   validates=0
	// E-MESTI+LVP    cycles=111631   IPC=3.754 commMisses=460   validates=111
}

// Four CPUs each own one word of the *same* cache lines, so every write
// invalidates everyone else although no data is shared (§3.1, §5.3.2).
// MESTI cannot help: the lines never revert. LVP predicts from the
// tag-match-invalid copy, and because the words a CPU reads are never
// the words others write, every prediction verifies. It still saves no
// cycles and no communication misses: each read is followed by a write
// to the same line, which must obtain the line exclusively either way.
func Example_falsesharing() {
	const (
		cpus  = 4
		base  = 0x10000
		lines = 16
		iters = 60
	)
	progs := make([]*isa.Program, cpus)
	for cpu := range progs {
		// CPU cpu sweeps the shared lines reading and rewriting word cpu
		// of each.
		b := isa.NewBuilder(fmt.Sprintf("fs-cpu%d", cpu))
		b.Li(isa.R8, iters)
		outer := b.Here()
		b.Li(isa.R10, base+int64(cpu)*8) // my word of line 0
		b.Li(isa.R9, lines)
		inner := b.Here()
		b.Ld(isa.R11, isa.R10, 0)
		b.Addi(isa.R11, isa.R11, 1)
		b.St(isa.R11, isa.R10, 0)
		b.Addi(isa.R10, isa.R10, mem.LineSize)
		b.Addi(isa.R9, isa.R9, -1)
		b.Bne(isa.R9, isa.R0, inner)
		b.Delay(isa.R13, 300)
		b.Addi(isa.R8, isa.R8, -1)
		b.Bne(isa.R8, isa.R0, outer)
		b.Halt()
		progs[cpu] = b.Build()
	}
	w := sim.Workload{
		Name:     "falsesharing",
		Programs: progs,
		Validate: func(_ *mem.Memory, read func(uint64) uint64) error {
			for c := 0; c < cpus; c++ {
				var sum uint64
				for l := 0; l < lines; l++ {
					sum += read(base + uint64(l)*mem.LineSize + uint64(c)*8)
				}
				if sum != iters*lines {
					return fmt.Errorf("cpu %d wrote %d increments, want %d", c, sum, iters*lines)
				}
			}
			return nil
		},
	}
	for _, tech := range []sim.Techniques{{}, {MESTI: true, EMESTI: true}, {LVP: true}} {
		cfg := sim.DefaultConfig()
		cfg.Tech = tech
		r := sim.RunOne(cfg, w)
		fmt.Printf("%-9s cycles=%-8d commMisses=%-5d lvpOK=%-5d lvpFail=%-3d validates=%d\n",
			tech, r.Cycles,
			r.Counters["miss/comm"],
			r.Counters["lvp/verify_ok"],
			r.Counters["lvp/verify_fail"],
			r.Counters["bus/txn/validate"])
	}
	// Output:
	// Baseline  cycles=467179   commMisses=4817  lvpOK=0     lvpFail=0   validates=0
	// E-MESTI   cycles=467179   commMisses=4817  lvpOK=0     lvpFail=0   validates=0
	// LVP       cycles=467214   commMisses=4817  lvpOK=979   lvpFail=0   validates=0
}

// Figure 1's story on a live machine: one global lock is acquired
// (intermediate value store) and released (temporally silent store) by
// four CPUs in turn, 40 critical sections each, and each critical
// section bumps a counter on its own line.
//
// Under the baseline every handoff costs the next holder a miss on the
// lock line and another on the counter's. MESTI's release broadcasts a
// validate that re-installs the waiting CPUs' temporally invalid copies
// of the lock line, which removes nearly all of the lock's misses; the
// counter never reverts, so its misses remain and the total only
// halves. SLE elides every acquire/release pair, so the lock line is
// never written, but the counter still changes hands: the remaining
// communication misses are all the counter's.
func Example_lockhandoff() {
	const (
		cpus     = 4
		lockAddr = 0x1000
		ctrAddr  = 0x2000
		iters    = 40
		think    = 4000 // cycles of private work between acquires
	)
	progs := make([]*isa.Program, cpus)
	for cpu := range progs {
		// Acquire the global lock, bump the protected counter, release,
		// think.
		b := isa.NewBuilder(fmt.Sprintf("handoff-cpu%d", cpu))
		b.Li(isa.R10, lockAddr)
		b.Li(isa.R11, ctrAddr)
		b.Li(isa.R12, iters)
		// Stagger the start so acquires interleave instead of stampeding.
		b.Delay(isa.R13, think*cpu/cpus)
		loop := b.Here()
		workload.EmitCriticalAdd(b, isa.R10, isa.R11, 1, false)
		b.Delay(isa.R13, think)
		b.Addi(isa.R12, isa.R12, -1)
		b.Bne(isa.R12, isa.R0, loop)
		b.Halt()
		progs[cpu] = b.Build()
	}
	w := sim.Workload{
		Name:     "lockhandoff",
		Programs: progs,
		Validate: func(_ *mem.Memory, read func(uint64) uint64) error {
			if got := read(ctrAddr); got != cpus*iters {
				return fmt.Errorf("counter = %d, want %d", got, cpus*iters)
			}
			return nil
		},
	}
	for _, tech := range []sim.Techniques{{}, {MESTI: true}, {MESTI: true, EMESTI: true}, {SLE: true}} {
		cfg := sim.DefaultConfig() // full Table 1 latencies
		cfg.Tech = tech
		r := sim.RunOne(cfg, w)
		fmt.Printf("%-9s cycles=%-8d commMisses=%-4d validates=%-4d revalidates=%-4d sleSuccess=%d\n",
			tech, r.Cycles,
			r.Counters["miss/comm"],
			r.Counters["bus/txn/validate"],
			r.Counters["mesti/revalidate"],
			r.Counters["sle/success"])
	}
	// Output:
	// Baseline  cycles=177048   commMisses=321  validates=0    revalidates=0    sleSuccess=0
	// MESTI     cycles=170776   commMisses=165  validates=160  revalidates=474  sleSuccess=0
	// E-MESTI   cycles=170762   commMisses=166  validates=156  revalidates=468  sleSuccess=0
	// SLE       cycles=169931   commMisses=159  validates=0    revalidates=0    sleSuccess=160
}

// Speculative lock elision at its best and with interference (§4,
// §5.3.1). First, four CPUs update *disjoint* data under one global
// lock, the classic conservative-locking pattern: SLE elides every
// acquire/release pair and the critical sections run concurrently.
// Second, the same static LL/SC instructions also serve as an atomic
// fetch-and-add (the idiom false positive of §4.1). An elision attempt
// there never sees a release; the predictor wastes a few (noRelease)
// before it filters the rest (filtered), and SLE still wins.
func Example_slefriendly() {
	const (
		cpus     = 4
		lockAddr = 0x1000
		statAddr = 0x2000 // the shared statistics counter of part two
		dataBase = 0x4000 // per-CPU data lines (disjoint!)
		iters    = 30
	)
	program := func(cpu int, withFalsePositive bool) *isa.Program {
		b := isa.NewBuilder(fmt.Sprintf("sle-cpu%d", cpu))
		b.Li(isa.R10, lockAddr)
		b.Li(isa.R11, dataBase+int64(cpu)*64)
		b.Li(isa.R12, iters)
		loop := b.Here()
		// Lock-protected update of *private* data: non-conflicting
		// critical sections, elidable concurrently.
		workload.EmitAcquire(b, isa.R10, false, 150)
		b.Ld(isa.R14, isa.R11, 0)
		b.Addi(isa.R14, isa.R14, 1)
		b.St(isa.R14, isa.R11, 0)
		workload.EmitRelease(b, isa.R10)
		if withFalsePositive {
			// The same kind of LL/SC pair, used as fetch-and-add: no
			// reverting store ever follows.
			b.Li(isa.R15, statAddr)
			retry := b.Here()
			b.LL(isa.R1, isa.R15, 0)
			b.Addi(isa.R2, isa.R1, 1)
			b.SC(isa.R2, isa.R15, 0, isa.R3)
			b.Beq(isa.R3, isa.R0, retry)
		}
		b.Delay(isa.R13, 1500)
		b.Addi(isa.R12, isa.R12, -1)
		b.Bne(isa.R12, isa.R0, loop)
		b.Halt()
		return b.Build()
	}
	for _, withFP := range []bool{false, true} {
		progs := make([]*isa.Program, cpus)
		for i := range progs {
			progs[i] = program(i, withFP)
		}
		w := sim.Workload{
			Name:     "slefriendly",
			Programs: progs,
			Validate: func(_ *mem.Memory, read func(uint64) uint64) error {
				for c := 0; c < cpus; c++ {
					if got := read(dataBase + uint64(c)*64); got != iters {
						return fmt.Errorf("cpu %d data = %d, want %d", c, got, iters)
					}
				}
				if withFP {
					if got := read(statAddr); got != cpus*iters {
						return fmt.Errorf("shared counter = %d, want %d", got, cpus*iters)
					}
				}
				return nil
			},
		}
		fmt.Printf("fetch-add false positives: %v\n", withFP)
		for _, tech := range []sim.Techniques{{}, {SLE: true}} {
			cfg := sim.DefaultConfig()
			cfg.Tech = tech
			r := sim.RunOne(cfg, w)
			fmt.Printf("%-9s cycles=%-8d sleAttempts=%-4d success=%-4d noRelease=%-4d filtered=%d\n",
				tech, r.Cycles,
				r.Counters["sle/attempt"], r.Counters["sle/success"],
				r.Counters["sle/abort_no_release"], r.Counters["sle/filtered"])
		}
	}
	// Output:
	// fetch-add false positives: false
	// Baseline  cycles=170316   sleAttempts=0    success=0    noRelease=0    filtered=0
	// SLE       cycles=46864    sleAttempts=120  success=120  noRelease=0    filtered=0
	// fetch-add false positives: true
	// Baseline  cycles=177174   sleAttempts=0    success=0    noRelease=0    filtered=0
	// SLE       cycles=53201    sleAttempts=126  success=120  noRelease=4    filtered=120
}
