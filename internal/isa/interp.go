package isa

import (
	"fmt"

	"tssim/internal/mem"
)

// Interp is a functional (timing-free) multiprocessor interpreter for
// the ISA. It executes N programs over one shared memory with
// sequentially consistent, instruction-at-a-time interleaving and real
// LL/SC reservation semantics.
//
// It serves two purposes: workload unit tests check functional
// properties here (mutual exclusion actually holds, barriers release,
// counters add up) without the timing model, and the simulator's
// validation tests compare architected outcomes against it in
// single-CPU mode — the same role SimOS-PPC plays for PHARMsim in the
// paper.
type Interp struct {
	Mem   *mem.Memory
	cpus  []*interpCPU
	sched func(step int) int // returns index of cpu to step next
}

type interpCPU struct {
	prog    *Program
	pc      int
	regs    [NumRegs]uint64
	halted  bool
	resAddr uint64 // reservation line address
	resOK   bool
	// Retired counts committed instructions, for fuel accounting.
	retired uint64
}

// NewInterp creates an interpreter running the given programs (one per
// CPU) over the given memory. The default schedule round-robins one
// instruction per CPU.
func NewInterp(m *mem.Memory, progs ...*Program) *Interp {
	in := &Interp{Mem: m}
	for _, p := range progs {
		in.cpus = append(in.cpus, &interpCPU{prog: p})
	}
	n := len(progs)
	in.sched = func(step int) int { return step % n }
	return in
}

// SetSchedule overrides the interleaving: fn(step) returns the CPU to
// step. Tests use adversarial schedules to probe lock correctness.
func (in *Interp) SetSchedule(fn func(step int) int) { in.sched = fn }

// Reg returns CPU cpu's register r.
func (in *Interp) Reg(cpu int, r int) uint64 { return in.cpus[cpu].regs[r] }

// AllHalted reports whether every CPU has halted.
func (in *Interp) AllHalted() bool {
	for _, c := range in.cpus {
		if !c.halted {
			return false
		}
	}
	return true
}

// Retired returns committed instruction count for the CPU.
func (in *Interp) Retired(cpu int) uint64 { return in.cpus[cpu].retired }

// Run interleaves execution until all CPUs halt or maxSteps
// instructions have executed globally. It returns the number of steps
// consumed and an error if the fuel ran out (usually a livelocked
// spin, which is a workload bug).
func (in *Interp) Run(maxSteps int) (int, error) {
	steps := 0
	for ; steps < maxSteps; steps++ {
		if in.AllHalted() {
			return steps, nil
		}
		cpu := in.sched(steps) % len(in.cpus)
		in.Step(cpu)
	}
	if in.AllHalted() {
		return steps, nil
	}
	return steps, fmt.Errorf("isa: interpreter fuel exhausted after %d steps", maxSteps)
}

// Step executes one instruction on the given CPU (no-op if halted).
func (in *Interp) Step(cpu int) {
	c := in.cpus[cpu]
	if c.halted {
		return
	}
	ins := *c.prog.At(c.pc)
	next := c.pc + 1
	switch {
	case ins.Op == OpHalt:
		c.halted = true
		c.retired++
		return
	case ins.Op == OpNop || ins.Op == OpISync:
		// no architected effect
	case ins.IsBranch():
		if BranchTaken(ins, c.regs[ins.Ra], c.regs[ins.Rb]) {
			next = int(ins.Target)
		}
	case ins.Op == OpLd:
		addr := EffAddr(ins, c.regs[ins.Ra])
		c.set(ins.Rd, in.Mem.ReadWord(addr))
	case ins.Op == OpLL:
		addr := EffAddr(ins, c.regs[ins.Ra])
		c.set(ins.Rd, in.Mem.ReadWord(addr))
		c.resAddr = mem.LineAddr(addr)
		c.resOK = true
	case ins.Op == OpSt:
		addr := EffAddr(ins, c.regs[ins.Ra])
		in.Mem.WriteWord(addr, c.regs[ins.Rd])
		in.clearReservations(cpu, mem.LineAddr(addr))
	case ins.Op == OpSC:
		addr := EffAddr(ins, c.regs[ins.Ra])
		if c.resOK && c.resAddr == mem.LineAddr(addr) {
			in.Mem.WriteWord(addr, c.regs[ins.Rd])
			in.clearReservations(cpu, mem.LineAddr(addr))
			c.resOK = false
			c.set(ins.Rb, 1)
		} else {
			c.resOK = false
			c.set(ins.Rb, 0)
		}
	default:
		c.set(ins.Rd, EvalALU(ins, c.regs[ins.Ra], c.regs[ins.Rb]))
	}
	c.pc = next
	c.retired++
}

// clearReservations kills every other CPU's reservation on the written
// line, mirroring the coherence-based reservation kill in hardware.
func (in *Interp) clearReservations(writer int, lineAddr uint64) {
	for i, c := range in.cpus {
		if i != writer && c.resOK && c.resAddr == lineAddr {
			c.resOK = false
		}
	}
}

func (c *interpCPU) set(r uint8, v uint64) {
	if r != 0 {
		c.regs[r] = v
	}
}
