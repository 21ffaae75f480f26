// Package isa defines the small RISC instruction set executed by the
// simulated cores, together with an assembler-style program builder
// and a disassembler.
//
// The ISA stands in for the paper's PowerPC environment. It is
// deliberately tiny but covers everything the studied techniques care
// about:
//
//   - word loads and stores (the sharing, silence, and LVP substrate),
//   - load-locked / store-conditional (the lwarx/stwcx analogue whose
//     idiom triggers speculative lock elision),
//   - isync, the context-serializing instruction that protects AIX
//     kernel lock routines and defeats naive SLE (§4.2.2 of the paper),
//   - ALU ops with configurable latency and conditional branches so
//     that workloads are genuine programs (spin loops, retries, and
//     data-dependent paths), not traces.
//
// All memory operands are 8-byte aligned words.
package isa

import "fmt"

// Op enumerates the instruction opcodes.
type Op uint8

// Opcode values. ALU operations compute Rd from Ra, Rb and/or Imm;
// memory operations use Ra+Imm as the effective address.
const (
	OpNop Op = iota // no effect; Lat models non-memory work

	// ALU register-register / register-immediate.
	OpAdd  // Rd = Ra + Rb
	OpAddi // Rd = Ra + Imm
	OpSub  // Rd = Ra - Rb
	OpMul  // Rd = Ra * Rb (long latency)
	OpAnd  // Rd = Ra & Rb
	OpOr   // Rd = Ra | Rb
	OpXor  // Rd = Ra ^ Rb
	OpShli // Rd = Ra << Imm
	OpShri // Rd = Ra >> Imm (logical)
	OpSlt  // Rd = (Ra < Rb) ? 1 : 0 (unsigned)
	OpSlti // Rd = (Ra < Imm) ? 1 : 0 (unsigned)
	OpMix  // Rd = splitmix64(Ra ^ Imm); deterministic pseudo-random

	// Memory.
	OpLd // Rd = MEM[Ra + Imm]
	OpSt // MEM[Ra + Imm] = Rd
	OpLL // Rd = MEM[Ra + Imm], set reservation on the line
	OpSC // if reservation held: MEM[Ra+Imm] = Rd, Rb = 1 else Rb = 0

	// Control.
	OpBeq // if Ra == Rb goto Target
	OpBne // if Ra != Rb goto Target
	OpBlt // if Ra <  Rb goto Target (unsigned)
	OpBge // if Ra >= Rb goto Target (unsigned)
	OpJmp // goto Target

	// Serialization and termination.
	OpISync // context-serializing barrier (see Instr.Unsafe)
	OpHalt  // stop this CPU's program

	opCount
)

var opNames = [...]string{
	OpNop: "nop", OpAdd: "add", OpAddi: "addi", OpSub: "sub", OpMul: "mul",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShli: "shli", OpShri: "shri",
	OpSlt: "slt", OpSlti: "slti", OpMix: "mix",
	OpLd: "ld", OpSt: "st", OpLL: "ll", OpSC: "sc",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge", OpJmp: "jmp",
	OpISync: "isync", OpHalt: "halt",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// NumRegs is the architected register-file size. Register 0 is
// hardwired to zero, like MIPS/RISC-V.
const NumRegs = 32

// Reg names for readability in workload code.
const (
	R0 = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31
)

// Instr is one decoded instruction. Programs are slices of Instr and
// the PC is a slice index; Target is the branch destination index.
type Instr struct {
	Op     Op
	Rd     uint8 // destination (or store-value source for OpSt/OpSC)
	Ra     uint8 // first source (base register for memory ops)
	Rb     uint8 // second source (SC success flag destination)
	Imm    int64 // immediate / address displacement
	Target int32 // branch target (program index)
	Lat    uint8 // extra execute latency beyond the op's base latency

	// Unsafe marks an OpISync whose following code would touch
	// context-sensitive (non-renamed) processor state. The SLE
	// safety-check mechanism of §4.2.2 can see through safe isyncs
	// but must abort elision on unsafe ones. Synthetic "kernel"
	// code sets this on a small fraction of isyncs.
	Unsafe bool
}

// opProps is everything about an opcode that does not depend on the
// instruction's fields: the single source of instruction class, which
// Instr's classifiers and (through them) the core's rename, LSQ and
// wake-up logic all read.
type opProps struct {
	load, store, branch bool
	nsrc                uint8 // source slots used: slot 0 is Ra, slot 1 is Rb,
	valRd               bool  // or Rd where that is the value a store writes
	dstRd, dstRb        bool  // the field naming the destination register, if any
}

// The operand shapes the opcodes share.
var (
	alu1 = opProps{nsrc: 1, dstRd: true}             // Rd = f(Ra, Imm)
	alu2 = opProps{nsrc: 2, dstRd: true}             // Rd = f(Ra, Rb)
	load = opProps{load: true, nsrc: 1, dstRd: true} // Rd = MEM[Ra + Imm]
	cond = opProps{branch: true, nsrc: 2}            // compare Ra, Rb
)

// opTable is indexed by any Op value (OpNop, OpISync, OpHalt and the
// undefined opcodes are inert: the zero opProps), so a lookup needs no
// bounds check.
var opTable = [256]opProps{
	OpAdd: alu2, OpSub: alu2, OpMul: alu2, OpAnd: alu2, OpOr: alu2, OpXor: alu2, OpSlt: alu2,
	OpAddi: alu1, OpShli: alu1, OpShri: alu1, OpSlti: alu1, OpMix: alu1,
	OpLd: load, OpLL: load,
	OpSt:  {store: true, nsrc: 2, valRd: true},
	OpSC:  {store: true, nsrc: 2, valRd: true, dstRb: true},
	OpBeq: cond, OpBne: cond, OpBlt: cond, OpBge: cond,
	OpJmp: {branch: true},
}

// Instr's methods take it by pointer: the core asks them of every
// instruction it fetches and dispatches, in place in the program.

// IsMem reports whether the instruction accesses memory.
func (i *Instr) IsMem() bool { p := &opTable[i.Op]; return p.load || p.store }

// IsLoad reports whether the instruction reads memory into a register.
func (i *Instr) IsLoad() bool { return opTable[i.Op].load }

// IsStore reports whether the instruction may write memory.
func (i *Instr) IsStore() bool { return opTable[i.Op].store }

// IsBranch reports whether the instruction may redirect control flow.
func (i *Instr) IsBranch() bool { return opTable[i.Op].branch }

// WritesReg reports whether the instruction writes a destination
// register, and which one. SC writes its success flag into Rb; a write
// to register 0 is discarded.
func (i *Instr) WritesReg() (uint8, bool) {
	var r uint8
	if p := &opTable[i.Op]; p.dstRd {
		r = i.Rd
	} else if p.dstRb {
		r = i.Rb
	}
	return r, r != 0
}

// SrcRegs returns the architected registers feeding the instruction's
// two source operand slots and how many of them it uses: slot 0 is Ra
// (the base register for memory ops), slot 1 is Rb for ALU ops and
// branches and Rd (the value stored) for St and SC.
func (i *Instr) SrcRegs() (s0, s1 uint8, n int) {
	p := &opTable[i.Op]
	s1 = i.Rb
	if p.valRd {
		s1 = i.Rd
	}
	return i.Ra, s1, int(p.nsrc)
}

// BaseLatency returns the execute latency of the op in cycles,
// before Instr.Lat is added. Memory op latency is determined by the
// memory system, so their base here is the address-generation cycle.
func (i *Instr) BaseLatency() int {
	base := 1
	if i.Op == OpMul {
		base = 3
	}
	return base + int(i.Lat)
}

// splitmix64 is the mixing function behind OpMix. It is a pure
// function so speculative re-execution after a squash reproduces the
// same value.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// EvalALU computes the result of a non-memory, non-branch instruction
// given its source operand values. It is shared by the out-of-order
// execute stage and the in-order commit checker so both necessarily
// agree on semantics.
func EvalALU(i Instr, ra, rb uint64) uint64 {
	switch i.Op {
	case OpAdd:
		return ra + rb
	case OpAddi:
		return ra + uint64(i.Imm)
	case OpSub:
		return ra - rb
	case OpMul:
		return ra * rb
	case OpAnd:
		return ra & rb
	case OpOr:
		return ra | rb
	case OpXor:
		return ra ^ rb
	case OpShli:
		return ra << (uint64(i.Imm) & 63)
	case OpShri:
		return ra >> (uint64(i.Imm) & 63)
	case OpSlt:
		if ra < rb {
			return 1
		}
		return 0
	case OpSlti:
		if ra < uint64(i.Imm) {
			return 1
		}
		return 0
	case OpMix:
		return splitmix64(ra ^ uint64(i.Imm))
	}
	return 0
}

// BranchTaken evaluates a branch's condition given its operand values.
func BranchTaken(i Instr, ra, rb uint64) bool {
	switch i.Op {
	case OpBeq:
		return ra == rb
	case OpBne:
		return ra != rb
	case OpBlt:
		return ra < rb
	case OpBge:
		return ra >= rb
	case OpJmp:
		return true
	}
	return false
}

// EffAddr computes a memory instruction's effective address, aligned
// to the word granule.
func EffAddr(i Instr, ra uint64) uint64 {
	return (ra + uint64(i.Imm)) &^ 7
}

// ObsReg names one architected register whose final committed value a
// litmus harness reads into the run's outcome tuple. Observations are
// declared by the program (Builder.Observe) so every consumer — the
// timing simulator, the functional interpreter, and the memory-model
// reference enumerator — assembles the tuple identically.
type ObsReg struct {
	Reg  uint8
	Name string // display label, e.g. "P1:r2"
}

// MaxOutcome bounds the outcome tuple width: the widest classic litmus
// shape (IRIW) observes four registers; headroom for richer shapes.
const MaxOutcome = 6

// Outcome is the tuple of observed final register values of one run,
// in CPU-major, declaration order. It is comparable, so it can key
// allowed/reachable outcome sets directly.
type Outcome struct {
	N int
	V [MaxOutcome]uint64
}

// String renders the tuple compactly: "(1,0)".
func (o Outcome) String() string {
	s := "("
	for i := 0; i < o.N; i++ {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", o.V[i])
	}
	return s + ")"
}

// OutcomeOf assembles the outcome tuple of a program set from any
// register source (the simulator's committed register files, the
// interpreter's, or a model state): reg(cpu, r) returns CPU cpu's
// architected register r. Panics if the programs declare more than
// MaxOutcome observations.
func OutcomeOf(progs []*Program, reg func(cpu, r int) uint64) Outcome {
	var o Outcome
	for cpu, p := range progs {
		for _, ob := range p.Observed {
			if o.N >= MaxOutcome {
				panic(fmt.Sprintf("isa: more than %d observed registers", MaxOutcome))
			}
			o.V[o.N] = reg(cpu, int(ob.Reg))
			o.N++
		}
	}
	return o
}

// ObsNames returns the declared observation labels of a program set in
// tuple order — the headings for Outcome values.
func ObsNames(progs []*Program) []string {
	var names []string
	for cpu, p := range progs {
		for _, ob := range p.Observed {
			n := ob.Name
			if n == "" {
				n = fmt.Sprintf("P%d:r%d", cpu, ob.Reg)
			}
			names = append(names, n)
		}
	}
	return names
}

// Program is an assembled instruction sequence with a name for
// reporting. PC 0 is the entry point.
type Program struct {
	Name string
	Code []Instr

	// Observed lists the registers whose final committed values form
	// this program's contribution to a litmus outcome tuple (in
	// declaration order; see OutcomeOf).
	Observed []ObsReg
}

// offEnd is what every pc outside a program holds.
var offEnd = Instr{Op: OpHalt}

// At returns the instruction at pc, in place: callers must not write
// through the pointer. Running past the end behaves like OpHalt.
func (p *Program) At(pc int) *Instr {
	if uint(pc) >= uint(len(p.Code)) {
		return &offEnd
	}
	return &p.Code[pc]
}

// Disassemble renders one instruction at a given pc.
func Disassemble(pc int, i Instr) string {
	switch i.Op {
	case OpNop, OpISync, OpHalt:
		s := i.Op.String()
		if i.Op == OpISync && i.Unsafe {
			s += " (unsafe)"
		}
		if i.Lat > 0 {
			s += fmt.Sprintf(" lat=%d", i.Lat)
		}
		return s
	case OpAddi, OpShli, OpShri, OpSlti, OpMix:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rd, i.Ra, i.Imm)
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpSlt:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Ra, i.Rb)
	case OpLd, OpLL:
		return fmt.Sprintf("%s r%d, %d(r%d)", i.Op, i.Rd, i.Imm, i.Ra)
	case OpSt:
		return fmt.Sprintf("st r%d, %d(r%d)", i.Rd, i.Imm, i.Ra)
	case OpSC:
		return fmt.Sprintf("sc r%d, %d(r%d), ok=r%d", i.Rd, i.Imm, i.Ra, i.Rb)
	case OpBeq, OpBne, OpBlt, OpBge:
		return fmt.Sprintf("%s r%d, r%d, @%d", i.Op, i.Ra, i.Rb, i.Target)
	case OpJmp:
		return fmt.Sprintf("jmp @%d", i.Target)
	}
	return fmt.Sprintf("%s ?", i.Op)
}

// Dump renders a whole program, one instruction per line.
func (p *Program) Dump() string {
	out := ""
	for pc, ins := range p.Code {
		out += fmt.Sprintf("%4d: %s\n", pc, Disassemble(pc, ins))
	}
	return out
}
