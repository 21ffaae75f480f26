package sim

import (
	"fmt"
	"testing"

	"tssim/internal/bus"
	"tssim/internal/isa"
	"tssim/internal/mem"
	"tssim/internal/workload"
)

// fastCfg scales latencies down so unit tests run quickly while
// keeping the latency ordering (L1 < L2 < addr < data).
func fastCfg(tech Techniques) Config {
	cfg := DefaultConfig()
	cfg.Tech = tech
	cfg.Bus = bus.Config{AddrLatency: 20, AddrOccupancy: 4, MemLatency: 60, C2CLatency: 50, DataOccupancy: 8}
	cfg.CheckCommits = true
	return cfg
}

// lockCounterWorkload: each CPU increments a shared counter iters
// times under one global spin lock, then halts. Functional outcome is
// exact: counter == cpus*iters and the lock ends free. think sets the
// non-critical work per iteration: small values give a heavily
// contended lock (spinners camping on the line); large values give
// the spread-out reuse pattern where validates land before the next
// consumer access.
func lockCounterWorkload(cpus int, iters, think int64, unsafeISync bool) Workload {
	const lockAddr, ctrAddr = 0x1000, 0x2000
	progs := make([]*isa.Program, cpus)
	for i := 0; i < cpus; i++ {
		b := isa.NewBuilder(fmt.Sprintf("lockctr-cpu%d", i))
		b.Li(isa.R10, lockAddr)
		b.Li(isa.R11, ctrAddr)
		b.Li(isa.R12, iters)
		// Stagger start so acquires interleave rather than stampede.
		if think > 0 {
			b.Delay(isa.R13, int(think)*i/cpus)
		}
		loop := b.Here()
		workload.EmitCriticalAdd(b, isa.R10, isa.R11, 1, unsafeISync)
		if think > 0 {
			b.Delay(isa.R13, int(think))
		}
		b.Addi(isa.R12, isa.R12, -1)
		b.Bne(isa.R12, isa.R0, loop)
		b.Halt()
		progs[i] = b.Build()
	}
	return Workload{
		Name:     "lockctr",
		Programs: progs,
		Validate: func(m *mem.Memory, read func(uint64) uint64) error {
			if got := read(ctrAddr); got != uint64(cpus)*uint64(iters) {
				return fmt.Errorf("counter = %d, want %d (mutual exclusion broken)",
					got, uint64(cpus)*uint64(iters))
			}
			if got := read(lockAddr); got != 0 {
				return fmt.Errorf("lock left held: %d", got)
			}
			return nil
		},
	}
}

// singleCPUWorkload runs prog on CPU 0 with idle (immediately halting)
// peers.
func singleCPUWorkload(name string, prog *isa.Program, cpus int) Workload {
	progs := make([]*isa.Program, cpus)
	progs[0] = prog
	for i := 1; i < cpus; i++ {
		progs[i] = isa.NewBuilder("idle").Halt().Build()
	}
	return Workload{Name: name, Programs: progs}
}

func TestSingleCPUMatchesInterpreter(t *testing.T) {
	// Run a small data-dependent program on the timing model and the
	// functional interpreter; architected results must agree.
	b := isa.NewBuilder("check")
	b.Li(isa.R10, 0x4000)
	b.Li(isa.R12, 50)
	b.Li(isa.R13, 0)
	loop := b.Here()
	b.Mix(isa.R14, isa.R12, 99)
	b.St(isa.R14, isa.R10, 0)
	b.Ld(isa.R15, isa.R10, 0)
	b.Add(isa.R13, isa.R13, isa.R15)
	b.Addi(isa.R12, isa.R12, -1)
	b.Bne(isa.R12, isa.R0, loop)
	b.Halt()
	prog := b.Build()

	w := singleCPUWorkload("check", prog, 1)
	cfg := fastCfg(Techniques{})
	cfg.CPUs = 1
	sys := New(cfg, w)
	res, err := sys.RunErr(w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("run did not finish")
	}

	in := isa.NewInterp(mem.New(), prog)
	if _, err := in.Run(10000); err != nil {
		t.Fatal(err)
	}
	// Compare the accumulator register against the interpreter.
	if got, want := sys.Cores[0].Reg(isa.R13), in.Reg(0, isa.R13); got != want {
		t.Fatalf("R13 = %d, want %d (timing model diverges from interpreter)", got, want)
	}
	if res.Retired == 0 || res.Cycles == 0 {
		t.Fatal("empty result")
	}
}

func TestMutualExclusionAllTechniques(t *testing.T) {
	for _, tech := range AllCombos() {
		tech := tech
		t.Run(tech.String(), func(t *testing.T) {
			w := lockCounterWorkload(4, 30, 50, false)
			res := RunOne(fastCfg(tech), w) // Validate panics on corruption
			if !res.Finished {
				t.Fatalf("did not finish in %d cycles", res.Cycles)
			}
			if res.Retired == 0 {
				t.Fatal("nothing retired")
			}
		})
	}
}

func TestMutualExclusionUnsafeISync(t *testing.T) {
	// Kernel-style locks with unsafe isyncs must stay correct under
	// SLE (the engine aborts and falls back to real acquisition).
	w := lockCounterWorkload(4, 20, 50, true)
	res := RunOne(fastCfg(Techniques{SLE: true}), w)
	if !res.Finished {
		t.Fatal("did not finish")
	}
	if res.Counters["sle/abort_unsafe"] == 0 {
		t.Fatal("expected unsafe-isync aborts")
	}
	if res.Counters["sle/success"] != 0 {
		t.Fatal("unsafe critical sections must never commit elided")
	}
}

func TestSLESucceedsOnCleanLocks(t *testing.T) {
	// Spread-out acquires: critical sections rarely overlap, so
	// elision attempts are conflict-free and commit.
	w := lockCounterWorkload(4, 25, 4000, false)
	res := RunOne(fastCfg(Techniques{SLE: true}), w)
	if res.Counters["sle/attempt"] == 0 {
		t.Fatal("SLE never attempted")
	}
	if res.Counters["sle/success"] == 0 {
		t.Fatalf("SLE never succeeded: %v", filterCounters(res.Counters, "sle/"))
	}
}

func TestMESTIEliminatesLockMisses(t *testing.T) {
	w := lockCounterWorkload(4, 25, 4000, false)
	base := RunOne(fastCfg(Techniques{}), w)
	mesti := RunOne(fastCfg(Techniques{MESTI: true}), w)
	if mesti.Counters["mesti/revalidate"] == 0 {
		t.Fatal("no revalidations under MESTI")
	}
	if mesti.Counters["miss/comm"] >= base.Counters["miss/comm"] {
		t.Fatalf("MESTI comm misses %d >= baseline %d",
			mesti.Counters["miss/comm"], base.Counters["miss/comm"])
	}
}

func TestTechniquesSpeedUpLockHandoff(t *testing.T) {
	// The headline direction: on a lock-handoff-dominated workload
	// with the paper's full interconnect latencies (a 400-cycle
	// memory access cannot hide under the out-of-order window),
	// every silence-exploiting technique should beat the baseline.
	w := lockCounterWorkload(4, 25, 4000, false)
	cfg := DefaultConfig()
	cfg.CheckCommits = true
	base := RunOne(cfg, w)
	for _, tech := range []Techniques{
		{MESTI: true},
		{MESTI: true, EMESTI: true},
		{SLE: true},
	} {
		c := cfg
		c.Tech = tech
		r := RunOne(c, w)
		if r.Cycles >= base.Cycles {
			t.Errorf("%s: %d cycles >= baseline %d", tech, r.Cycles, base.Cycles)
		}
	}
}

func TestRunSampleProducesSpread(t *testing.T) {
	w := lockCounterWorkload(2, 10, 50, false)
	cfg := fastCfg(Techniques{})
	cfg.CPUs = 2
	s, err := NewRunner().Sample(cfg, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 3 {
		t.Fatalf("samples = %d, want 3", s.N())
	}
	if s.Mean() <= 0 {
		t.Fatal("zero mean cycles")
	}
}

// TestEightCPUsCheckedAllBackendsAllCombos is the 8-core acceptance
// sweep: the contended lock workload under every technique combo on
// every coherence backend, with the SWMR/data-value coherence oracle
// and the in-order commit checker attached, plus the exact functional
// validator. This is where backend bugs that need more than 4 caches
// (sharer-vector bookkeeping, probe fan-out, wide snoop combining)
// die before the slower CI workload runs see them.
func TestEightCPUsCheckedAllBackendsAllCombos(t *testing.T) {
	combos := AllCombos()
	if testing.Short() {
		combos = []Techniques{{}, {MESTI: true}, {MESTI: true, EMESTI: true, LVP: true, SLE: true}}
	}
	for _, ic := range bus.Kinds() {
		ic := ic
		t.Run(ic, func(t *testing.T) {
			t.Parallel()
			for _, tech := range combos {
				w := lockCounterWorkload(8, 15, 50, false)
				cfg := fastCfg(tech)
				cfg.CPUs = 8
				cfg.Interconnect = ic
				cfg.Check = true
				res := RunOne(cfg, w) // Validate panics on corruption
				if !res.Finished {
					t.Fatalf("%s on %s did not finish in %d cycles", tech, ic, res.Cycles)
				}
			}
		})
	}
}

// The twelve legal combinations (none / MESTI / E-MESTI × LVP × SLE)
// each print a label that says what runs and parses back to itself. The
// nine Figure 7 labels are table headers and bench/golden.json keys.
func TestTechniquesString(t *testing.T) {
	const m, e, l, s = 1, 2, 4, 8
	labels := []struct {
		bits  int
		label string
	}{
		{0, "Baseline"}, {l, "LVP"}, {s, "SLE"}, {l | s, "LVP+SLE"},
		{m, "MESTI"}, {m | l, "MESTI+LVP"}, {m | s, "MESTI+SLE"}, {m | l | s, "MESTI+LVP+SLE"},
		{m | e, "E-MESTI"}, {m | e | l, "E-MESTI+LVP"}, {m | e | s, "E-MESTI+SLE"}, {m | e | l | s, "E-MESTI+LVP+SLE"},
	}
	fig7 := map[Techniques]bool{}
	for _, tech := range AllCombos() {
		fig7[tech] = true
	}
	for _, c := range labels {
		tech := Techniques{MESTI: c.bits&m != 0, EMESTI: c.bits&e != 0, LVP: c.bits&l != 0, SLE: c.bits&s != 0}
		if got := tech.String(); got != c.label {
			t.Errorf("%+v prints %q, want %q", tech, got, c.label)
		}
		if back, err := ParseTechniques(c.label); err != nil || back != tech {
			t.Errorf("ParseTechniques(%q) = %+v, %v; want %+v", c.label, back, err, tech)
		}
		delete(fig7, tech)
	}
	if len(AllCombos()) != 9 || len(fig7) != 0 {
		t.Fatalf("AllCombos() has %d combos, %d of them not among the twelve", len(AllCombos()), len(fig7))
	}

	// The CLI spellings of the same values.
	for in, want := range map[string]Techniques{
		"":               {},
		"baseline":       {},
		"all":            {MESTI: true, EMESTI: true, LVP: true, SLE: true},
		"emesti":         {MESTI: true, EMESTI: true},
		"mesti+lvp":      {MESTI: true, LVP: true},
		"sle+LVP+emesti": {MESTI: true, EMESTI: true, LVP: true, SLE: true},
	} {
		if got, err := ParseTechniques(in); err != nil || got != want {
			t.Errorf("ParseTechniques(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, in := range []string{"base", "mesti+", "mesti,lvp", "all+lvp"} {
		if got, err := ParseTechniques(in); err == nil {
			t.Errorf("ParseTechniques(%q) = %+v, want an error", in, got)
		}
	}
}

func filterCounters(m map[string]uint64, prefix string) map[string]uint64 {
	out := map[string]uint64{}
	for k, v := range m {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out[k] = v
		}
	}
	return out
}
