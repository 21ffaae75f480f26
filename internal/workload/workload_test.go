package workload

import (
	"fmt"
	"reflect"
	"testing"

	"tssim/internal/isa"
	"tssim/internal/mem"
)

// runFunctional executes a workload on the timing-free interpreter and
// applies its validator — catching program bugs (broken locks,
// miscounted loops) independent of the timing model.
func runFunctional(t *testing.T, w Workload, fuel int) {
	t.Helper()
	m := mem.New()
	if w.Init != nil {
		w.Init(m)
	}
	in := isa.NewInterp(m, w.Programs...)
	if _, err := in.Run(fuel); err != nil {
		t.Fatalf("%s at %d CPUs: %v", w.Name, len(w.Programs), err)
	}
	if w.Validate != nil {
		if err := w.Validate(m, m.ReadWord); err != nil {
			t.Fatalf("%s at %d CPUs: %v", w.Name, len(w.Programs), err)
		}
	}
}

// checkFunctional builds the named generator at cpus CPUs, checks that
// it emits one program per CPU, and runs it on the interpreter.
func checkFunctional(t *testing.T, name string, cpus int) {
	t.Helper()
	w, err := ByName(name, Params{CPUs: cpus, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Programs) != cpus {
		t.Fatalf("%s at %d CPUs: %d programs", name, cpus, len(w.Programs))
	}
	runFunctional(t, w, 2_000_000*cpus)
}

// TestAllWorkloadsFunctional runs every generator on the interpreter at
// CPU counts from 1 to 63: the powers of two the experiments use, the
// counts that do not divide tpc-h's table or raytrace's queues evenly,
// and the widths at which tpc-h's accumulator stride widens. Nothing in
// a generator may assume the historical 4-CPU machine. The 2- and
// 8-CPU rows are TestWorkloadsTwoCPUs and
// TestAllWorkloadsFunctionalEightCPUs.
func TestAllWorkloadsFunctional(t *testing.T) {
	counts := []int{1, 3, 4, 5, 6, 7, 12, 16, 24, 63}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			for _, cpus := range counts {
				t.Run(fmt.Sprintf("%dcpus", cpus), func(t *testing.T) {
					checkFunctional(t, name, cpus)
				})
			}
		})
	}
}

func TestWorkloadsTwoCPUs(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) { checkFunctional(t, name, 2) })
	}
}

func TestAllWorkloadsFunctionalEightCPUs(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) { checkFunctional(t, name, 8) })
	}
}

func TestWorkloadsFunctionalAdversarialSchedule(t *testing.T) {
	// A bursty schedule shakes out interleaving assumptions in the
	// lock and barrier kernels.
	for _, w := range All(Params{CPUs: 4, Scale: 1}) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			m := mem.New()
			if w.Init != nil {
				w.Init(m)
			}
			in := isa.NewInterp(m, w.Programs...)
			in.SetSchedule(func(s int) int { return (s / 7) % 4 })
			if _, err := in.Run(30_000_000); err != nil {
				t.Fatal(err)
			}
			if w.Validate != nil {
				if err := w.Validate(m, m.ReadWord); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestByNameAndNames(t *testing.T) {
	names := Names()
	if len(names) != 7 {
		t.Fatalf("names = %v", names)
	}
	for _, cpus := range []int{4, 16} {
		p := Params{CPUs: cpus, Scale: 1}
		all := All(p)
		for i, n := range names {
			w, err := ByName(n, p)
			if err != nil {
				t.Fatal(err)
			}
			if w.Name != n || all[i].Name != n {
				t.Fatalf("ByName(%q).Name = %q, All[%d].Name = %q", n, w.Name, i, all[i].Name)
			}
			if !reflect.DeepEqual(w.Programs, all[i].Programs) {
				t.Fatalf("ByName(%q) at %d CPUs builds different programs from All's entry", n, cpus)
			}
		}
	}
	if _, err := ByName("nosuch", Params{}); err == nil {
		t.Fatal("unknown name accepted")
	}
	// Only the named generator is built: tpc-h's layout guard (which
	// panics past 64 CPUs) must not fail a request for tpc-b.
	if _, err := ByName("tpc-b", Params{CPUs: 65, Scale: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelOpAtomicAndLockModes(t *testing.T) {
	// Directly exercise the shared kernel routine: CPU0 does atomic
	// increments, CPU1 uses the same code as a lock.
	build := func(mode int64, addr uint64, n int64) *isa.Program {
		b := isa.NewBuilder("kop")
		b.Li(rIter, n)
		loop := b.Here()
		b.Li(rKAddr, int64(addr))
		b.Li(rMode, mode)
		EmitKernelOp(b, false, 10)
		if mode != 0 {
			// critical section: bump protected word, release
			b.Li(rT3, int64(addr)+64)
			b.Ld(rT4, rT3, 0)
			b.Addi(rT4, rT4, 1)
			b.St(rT4, rT3, 0)
			EmitRelease(b, rKAddr)
		}
		b.Addi(rIter, rIter, -1)
		b.Bne(rIter, isa.R0, loop)
		b.Halt()
		return b.Build()
	}
	m := mem.New()
	in := isa.NewInterp(m,
		build(0, 0x1000, 25), // atomic incs on 0x1000
		build(1, 0x2000, 25), // locked incs of 0x2040
		build(1, 0x2000, 25),
	)
	if _, err := in.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.ReadWord(0x1000); got != 25 {
		t.Fatalf("atomic counter = %d, want 25", got)
	}
	if got := m.ReadWord(0x2040); got != 50 {
		t.Fatalf("locked counter = %d, want 50", got)
	}
	if got := m.ReadWord(0x2000); got != 0 {
		t.Fatalf("lock left held: %d", got)
	}
}

func TestBarrierKernel(t *testing.T) {
	// N CPUs pass through B barriers; a counter incremented between
	// barriers must observe lockstep phases: after the run the phase
	// counters all equal B.
	const cpus, rounds = 4, 6
	progs := make([]*isa.Program, cpus)
	for c := 0; c < cpus; c++ {
		b := isa.NewBuilder("bar")
		b.Li(rIter, rounds)
		b.Li(rOne, 1)
		b.Li(rLS, 0)
		b.Li(rA0, 0x3000) // count
		b.Li(rA1, 0x3040) // sense
		b.Li(rA2, 0x3080+int64(c)*64)
		loop := b.Here()
		b.Ld(rV0, rA2, 0)
		b.Addi(rV0, rV0, 1)
		b.St(rV0, rA2, 0)
		EmitBarrier(b, rA0, rA1, rLS, rOne, cpus)
		b.Addi(rIter, rIter, -1)
		b.Bne(rIter, isa.R0, loop)
		b.Halt()
		progs[c] = b.Build()
	}
	m := mem.New()
	in := isa.NewInterp(m, progs...)
	if _, err := in.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cpus; c++ {
		if got := m.ReadWord(0x3080 + uint64(c)*64); got != rounds {
			t.Fatalf("cpu %d phase counter = %d, want %d", c, got, rounds)
		}
	}
	if m.ReadWord(0x3000) != 0 {
		t.Fatal("barrier count not reset")
	}
}

func TestAtomicAddKernel(t *testing.T) {
	const cpus, per = 4, 40
	progs := make([]*isa.Program, cpus)
	for c := 0; c < cpus; c++ {
		b := isa.NewBuilder("faa")
		b.Li(rIter, per)
		b.Li(rA0, 0x4000)
		loop := b.Here()
		EmitAtomicAdd(b, rA0, 1, rV0, 10)
		b.Addi(rIter, rIter, -1)
		b.Bne(rIter, isa.R0, loop)
		b.Halt()
		progs[c] = b.Build()
	}
	m := mem.New()
	in := isa.NewInterp(m, progs...)
	if _, err := in.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.ReadWord(0x4000); got != cpus*per {
		t.Fatalf("counter = %d, want %d", got, cpus*per)
	}
}

func TestScaleGrowsWork(t *testing.T) {
	small := Ocean(Params{CPUs: 4, Scale: 1})
	big := Ocean(Params{CPUs: 4, Scale: 4})
	// Same code length; the iteration register differs. Run both and
	// compare retired counts functionally.
	run := func(w Workload) uint64 {
		m := mem.New()
		if w.Init != nil {
			w.Init(m)
		}
		in := isa.NewInterp(m, w.Programs...)
		if _, err := in.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		var total uint64
		for i := range w.Programs {
			total += in.Retired(i)
		}
		return total
	}
	if rs, rb := run(small), run(big); rb < 2*rs {
		t.Fatalf("scale 4 retired %d, scale 1 retired %d: scaling broken", rb, rs)
	}
}
