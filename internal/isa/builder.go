package isa

import "fmt"

// Label is a forward-referenceable branch target handed out by a
// Builder. Branches may reference a label before it is placed; Build
// resolves all references and fails loudly on unplaced labels.
type Label int

// Builder assembles a Program. It is the DSL the workload package uses
// to write synthetic programs: methods append instructions, labels
// mark branch targets.
type Builder struct {
	name     string
	code     []Instr
	marks    []int // label -> pc (-1 while unplaced)
	refs     []ref // pending branch fixups
	observed []ObsReg
}

type ref struct {
	pc    int
	label Label
}

// NewBuilder starts an empty program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// NewLabel allocates an unplaced label.
func (b *Builder) NewLabel() Label {
	b.marks = append(b.marks, -1)
	return Label(len(b.marks) - 1)
}

// Mark places the label at the current PC.
func (b *Builder) Mark(l Label) {
	if b.marks[l] != -1 {
		panic(fmt.Sprintf("isa: label %d marked twice in %q", l, b.name))
	}
	b.marks[l] = len(b.code)
}

// Here allocates a label and places it at the current PC.
func (b *Builder) Here() Label {
	l := b.NewLabel()
	b.Mark(l)
	return l
}

func (b *Builder) emit(i Instr) *Builder {
	b.code = append(b.code, i)
	return b
}

func (b *Builder) emitBranch(op Op, ra, rb uint8, l Label) *Builder {
	b.refs = append(b.refs, ref{pc: len(b.code), label: l})
	return b.emit(Instr{Op: op, Ra: ra, Rb: rb})
}

// Work emits a non-memory instruction with the given extra latency; it
// models computation (the paper's FP-heavy inner loops) without
// fabricating arithmetic.
func (b *Builder) Work(lat int) *Builder {
	for lat > 255 {
		b.emit(Instr{Op: OpNop, Lat: 255})
		lat -= 255
	}
	return b.emit(Instr{Op: OpNop, Lat: uint8(lat)})
}

// Delay emits a serialized delay of approximately the given number of
// cycles: a dependence chain of one-cycle adds (r = r + 0) through
// register r, one per cycle. Unlike Work, whose independent
// instructions execute in parallel (modeling compute with ILP), Delay
// models wall-clock think time. The chain uses many short links rather
// than a few long ones so the instruction count resembles real code:
// an out-of-order front end can only run ahead of think time by its
// window size, not by the whole delay.
func (b *Builder) Delay(r uint8, cycles int) *Builder {
	for ; cycles > 0; cycles-- {
		b.Mv(r, r)
	}
	return b
}

// Add emits rd = ra + rb.
func (b *Builder) Add(rd, ra, rb uint8) *Builder {
	return b.emit(Instr{Op: OpAdd, Rd: rd, Ra: ra, Rb: rb})
}

// Addi emits rd = ra + imm.
func (b *Builder) Addi(rd, ra uint8, imm int64) *Builder {
	return b.emit(Instr{Op: OpAddi, Rd: rd, Ra: ra, Imm: imm})
}

// Li loads a 64-bit constant: rd = imm.
func (b *Builder) Li(rd uint8, imm int64) *Builder { return b.Addi(rd, R0, imm) }

// Mv copies a register: rd = ra.
func (b *Builder) Mv(rd, ra uint8) *Builder { return b.Addi(rd, ra, 0) }

// And emits rd = ra & rb.
func (b *Builder) And(rd, ra, rb uint8) *Builder {
	return b.emit(Instr{Op: OpAnd, Rd: rd, Ra: ra, Rb: rb})
}

// Xor emits rd = ra ^ rb.
func (b *Builder) Xor(rd, ra, rb uint8) *Builder {
	return b.emit(Instr{Op: OpXor, Rd: rd, Ra: ra, Rb: rb})
}

// Shli emits rd = ra << imm.
func (b *Builder) Shli(rd, ra uint8, imm int64) *Builder {
	return b.emit(Instr{Op: OpShli, Rd: rd, Ra: ra, Imm: imm})
}

// Shri emits rd = ra >> imm.
func (b *Builder) Shri(rd, ra uint8, imm int64) *Builder {
	return b.emit(Instr{Op: OpShri, Rd: rd, Ra: ra, Imm: imm})
}

// Mix emits rd = splitmix64(ra ^ imm) — a deterministic pseudo-random
// mixing step used by workloads for address and value randomness.
func (b *Builder) Mix(rd, ra uint8, imm int64) *Builder {
	return b.emit(Instr{Op: OpMix, Rd: rd, Ra: ra, Imm: imm})
}

// Ld emits rd = MEM[ra+imm].
func (b *Builder) Ld(rd, ra uint8, imm int64) *Builder {
	return b.emit(Instr{Op: OpLd, Rd: rd, Ra: ra, Imm: imm})
}

// St emits MEM[ra+imm] = rv.
func (b *Builder) St(rv, ra uint8, imm int64) *Builder {
	return b.emit(Instr{Op: OpSt, Rd: rv, Ra: ra, Imm: imm})
}

// LL emits rd = MEM[ra+imm] with a reservation (load-locked).
func (b *Builder) LL(rd, ra uint8, imm int64) *Builder {
	return b.emit(Instr{Op: OpLL, Rd: rd, Ra: ra, Imm: imm})
}

// SC emits a store-conditional of rv to MEM[ra+imm]; rok receives 1 on
// success, 0 on failure.
func (b *Builder) SC(rv, ra uint8, imm int64, rok uint8) *Builder {
	return b.emit(Instr{Op: OpSC, Rd: rv, Ra: ra, Imm: imm, Rb: rok})
}

// Beq emits a branch to l when ra == rb.
func (b *Builder) Beq(ra, rb uint8, l Label) *Builder { return b.emitBranch(OpBeq, ra, rb, l) }

// Bne emits a branch to l when ra != rb.
func (b *Builder) Bne(ra, rb uint8, l Label) *Builder { return b.emitBranch(OpBne, ra, rb, l) }

// Bge emits a branch to l when ra >= rb (unsigned).
func (b *Builder) Bge(ra, rb uint8, l Label) *Builder { return b.emitBranch(OpBge, ra, rb, l) }

// Jmp emits an unconditional branch to l.
func (b *Builder) Jmp(l Label) *Builder { return b.emitBranch(OpJmp, 0, 0, l) }

// ISync emits a context-serializing barrier. unsafe marks it as one
// whose following code touches context-sensitive state (defeating SLE,
// §4.2.2).
func (b *Builder) ISync(unsafe bool) *Builder {
	return b.emit(Instr{Op: OpISync, Unsafe: unsafe})
}

// DelayVia emits a serialized delay of approximately the given number
// of cycles as a dependence chain through register r, using the fewest
// instructions (long-latency links, unlike Delay's one-cycle links).
// Threading the chain through a live register — typically the address
// register of the next memory op — guarantees an out-of-order core
// cannot issue that op until the chain resolves, making the delay an
// effective schedule-perturbation knob for litmus programs. The chain
// links are architectural no-ops (r = r + 0), so a timing-free model
// of the program is unaffected.
func (b *Builder) DelayVia(r uint8, cycles int) *Builder {
	for cycles > 0 {
		step := cycles
		if step > 256 {
			step = 256
		}
		b.emit(Instr{Op: OpAddi, Rd: r, Ra: r, Imm: 0, Lat: uint8(step - 1)})
		cycles -= step
	}
	return b
}

// Observe declares that the final committed value of reg belongs to
// the litmus outcome tuple, under the given display label (see
// isa.OutcomeOf). Declaration order is tuple order within this CPU.
func (b *Builder) Observe(reg uint8, name string) *Builder {
	b.observed = append(b.observed, ObsReg{Reg: reg, Name: name})
	return b
}

// Halt terminates the program.
func (b *Builder) Halt() *Builder { return b.emit(Instr{Op: OpHalt}) }

// Build resolves labels and returns the finished program. It panics on
// unplaced labels because that is a workload authoring bug, not a
// runtime condition.
func (b *Builder) Build() *Program {
	for _, r := range b.refs {
		target := b.marks[r.label]
		if target < 0 {
			panic(fmt.Sprintf("isa: unplaced label %d in %q", r.label, b.name))
		}
		b.code[r.pc].Target = int32(target)
	}
	code := make([]Instr, len(b.code))
	copy(code, b.code)
	obs := make([]ObsReg, len(b.observed))
	copy(obs, b.observed)
	return &Program{Name: b.name, Code: code, Observed: obs}
}
