package isa

import (
	"testing"

	"tssim/internal/mem"
)

func TestInterpSingleCPUArithmetic(t *testing.T) {
	b := NewBuilder("arith")
	b.Li(R1, 10).Li(R2, 32).Add(R3, R1, R2).Shli(R4, R3, 1).Halt()
	m := mem.New()
	in := NewInterp(m, b.Build())
	if _, err := in.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := in.Reg(0, R3); got != 42 {
		t.Fatalf("r3 = %d, want 42", got)
	}
	if got := in.Reg(0, R4); got != 84 {
		t.Fatalf("r4 = %d, want 84", got)
	}
}

func TestInterpLoadStore(t *testing.T) {
	b := NewBuilder("ldst")
	b.Li(R1, 0x1000).Li(R2, 77).St(R2, R1, 0).Ld(R3, R1, 0).Halt()
	in := NewInterp(mem.New(), b.Build())
	if _, err := in.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := in.Reg(0, R3); got != 77 {
		t.Fatalf("loaded %d, want 77", got)
	}
}

func TestInterpLoop(t *testing.T) {
	// Sum 1..10 with a countdown loop.
	b := NewBuilder("loop")
	b.Li(R1, 10)
	loop := b.Here()
	b.Add(R2, R2, R1)
	b.Addi(R1, R1, -1)
	b.Bne(R1, R0, loop)
	b.Halt()
	in := NewInterp(mem.New(), b.Build())
	if _, err := in.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got := in.Reg(0, R2); got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
}

func TestInterpR0Hardwired(t *testing.T) {
	b := NewBuilder("r0")
	b.Li(R0, 99).Addi(R1, R0, 1).Halt()
	in := NewInterp(mem.New(), b.Build())
	if _, err := in.Run(100); err != nil {
		t.Fatal(err)
	}
	if in.Reg(0, R0) != 0 {
		t.Fatal("r0 must stay zero")
	}
	if in.Reg(0, R1) != 1 {
		t.Fatalf("r1 = %d, want 1", in.Reg(0, R1))
	}
}

func TestInterpLLSCSuccess(t *testing.T) {
	b := NewBuilder("llsc")
	b.Li(R1, 0x100).LL(R2, R1, 0).Addi(R3, R2, 1).SC(R3, R1, 0, R4).Halt()
	m := mem.New()
	m.WriteWord(0x100, 41)
	in := NewInterp(m, b.Build())
	if _, err := in.Run(100); err != nil {
		t.Fatal(err)
	}
	if in.Reg(0, R4) != 1 {
		t.Fatal("SC should succeed with intact reservation")
	}
	if m.ReadWord(0x100) != 42 {
		t.Fatalf("mem = %d, want 42", m.ReadWord(0x100))
	}
}

func TestInterpSCFailsOnRemoteWrite(t *testing.T) {
	// CPU0: ll; (wait); sc — CPU1 stores to the same line in between.
	b0 := NewBuilder("cpu0")
	b0.Li(R1, 0x100).LL(R2, R1, 0).Work(0).Work(0).SC(R2, R1, 0, R4).Halt()
	b1 := NewBuilder("cpu1")
	b1.Li(R1, 0x100).Li(R2, 5).St(R2, R1, 8).Halt() // same line, different word
	in := NewInterp(mem.New(), b0.Build(), b1.Build())
	if _, err := in.Run(1000); err != nil {
		t.Fatal(err)
	}
	if in.Reg(0, R4) != 0 {
		t.Fatal("SC must fail after a remote write to the reserved line")
	}
}

func TestInterpSCFailsWithoutReservation(t *testing.T) {
	b := NewBuilder("nores")
	b.Li(R1, 0x100).Li(R2, 9).SC(R2, R1, 0, R4).Halt()
	m := mem.New()
	in := NewInterp(m, b.Build())
	if _, err := in.Run(100); err != nil {
		t.Fatal(err)
	}
	if in.Reg(0, R4) != 0 {
		t.Fatal("SC with no reservation must fail")
	}
	if m.ReadWord(0x100) != 0 {
		t.Fatal("failed SC must not write memory")
	}
}

// buildSpinLockProgram returns a program that acquires a test-and-set
// lock at lockAddr with LL/SC, increments a shared counter at
// ctrAddr n times (acquire/release each iteration), then halts.
func buildSpinLockProgram(lockAddr, ctrAddr uint64, n int64) *Program {
	b := NewBuilder("spinlock")
	b.Li(R10, int64(lockAddr))
	b.Li(R11, int64(ctrAddr))
	b.Li(R12, n) // iterations
	outer := b.Here()
	// acquire:
	spin := b.Here()
	b.LL(R1, R10, 0)
	b.Bne(R1, R0, spin) // held -> spin
	b.Li(R2, 1)
	b.SC(R2, R10, 0, R3)
	b.Beq(R3, R0, spin) // sc failed -> retry
	b.ISync(false)
	// critical section: counter++
	b.Ld(R4, R11, 0)
	b.Addi(R4, R4, 1)
	b.St(R4, R11, 0)
	// release: store 0 (temporally silent pair with the acquire)
	b.St(R0, R10, 0)
	b.Addi(R12, R12, -1)
	b.Bne(R12, R0, outer)
	b.Halt()
	return b.Build()
}

func TestInterpMutualExclusion(t *testing.T) {
	const iters = 50
	const ncpu = 4
	progs := make([]*Program, ncpu)
	for i := range progs {
		progs[i] = buildSpinLockProgram(0x1000, 0x2000, iters)
	}
	m := mem.New()
	in := NewInterp(m, progs...)
	if _, err := in.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.ReadWord(0x2000); got != iters*ncpu {
		t.Fatalf("counter = %d, want %d (lost updates => broken mutual exclusion)", got, iters*ncpu)
	}
	if got := m.ReadWord(0x1000); got != 0 {
		t.Fatalf("lock left held: %d", got)
	}
}

func TestInterpMutualExclusionAdversarialSchedules(t *testing.T) {
	// Several skewed schedules to shake out interleaving bugs.
	schedules := []func(step int) int{
		func(s int) int { return (s / 3) % 4 },             // bursts of 3
		func(s int) int { return (s * 7) % 4 },             // stride
		func(s int) int { return (s % 4) ^ (s / 100 % 2) }, // phase flip
	}
	for si, sched := range schedules {
		progs := make([]*Program, 4)
		for i := range progs {
			progs[i] = buildSpinLockProgram(0x1000, 0x2000, 20)
		}
		m := mem.New()
		in := NewInterp(m, progs...)
		in.SetSchedule(sched)
		if _, err := in.Run(5_000_000); err != nil {
			t.Fatalf("schedule %d: %v", si, err)
		}
		if got := m.ReadWord(0x2000); got != 80 {
			t.Fatalf("schedule %d: counter = %d, want 80", si, got)
		}
	}
}

func TestInterpFuelExhaustion(t *testing.T) {
	b := NewBuilder("livelock")
	l := b.Here()
	b.Jmp(l)
	in := NewInterp(mem.New(), b.Build())
	if _, err := in.Run(1000); err == nil {
		t.Fatal("infinite loop must exhaust fuel")
	}
}

func TestInterpRetiredCounts(t *testing.T) {
	b := NewBuilder("count")
	b.Work(0).Work(0).Work(0).Halt()
	in := NewInterp(mem.New(), b.Build())
	if _, err := in.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := in.Retired(0); got != 4 {
		t.Fatalf("retired = %d, want 4", got)
	}
}
