package isa

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestEvalALU(t *testing.T) {
	cases := []struct {
		ins    Instr
		ra, rb uint64
		want   uint64
	}{
		{Instr{Op: OpAdd}, 2, 3, 5},
		{Instr{Op: OpAddi, Imm: -1}, 5, 0, 4},
		{Instr{Op: OpAnd}, 0b1100, 0b1010, 0b1000},
		{Instr{Op: OpXor}, 0b1100, 0b1010, 0b0110},
		{Instr{Op: OpShli, Imm: 4}, 1, 0, 16},
		{Instr{Op: OpShri, Imm: 4}, 32, 0, 2},
	}
	for _, c := range cases {
		if got := EvalALU(c.ins, c.ra, c.rb); got != c.want {
			t.Errorf("%s(%d,%d) = %d, want %d", c.ins.Op, c.ra, c.rb, got, c.want)
		}
	}
}

func TestMixDeterministicAndSpreading(t *testing.T) {
	ins := Instr{Op: OpMix, Imm: 12345}
	a := EvalALU(ins, 1, 0)
	b := EvalALU(ins, 1, 0)
	if a != b {
		t.Fatal("OpMix must be a pure function")
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		seen[EvalALU(ins, i, 0)] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("OpMix collided: %d distinct of 1000", len(seen))
	}
}

func TestBranchTaken(t *testing.T) {
	if !BranchTaken(Instr{Op: OpBeq}, 5, 5) || BranchTaken(Instr{Op: OpBeq}, 5, 6) {
		t.Fatal("beq")
	}
	if !BranchTaken(Instr{Op: OpBne}, 5, 6) || BranchTaken(Instr{Op: OpBne}, 5, 5) {
		t.Fatal("bne")
	}
	if !BranchTaken(Instr{Op: OpBge}, 2, 2) || BranchTaken(Instr{Op: OpBge}, 1, 2) {
		t.Fatal("bge")
	}
	if !BranchTaken(Instr{Op: OpJmp}, 0, 0) {
		t.Fatal("jmp must always be taken")
	}
}

func TestEffAddrAlignsWords(t *testing.T) {
	ins := Instr{Op: OpLd, Imm: 5}
	if got := EffAddr(ins, 0x1000); got != 0x1000 {
		t.Fatalf("EffAddr = %#x, want 0x1000", got)
	}
	ins.Imm = 8
	if got := EffAddr(ins, 0x1000); got != 0x1008 {
		t.Fatalf("EffAddr = %#x, want 0x1008", got)
	}
}

func TestInstrClassifiers(t *testing.T) {
	ld := Instr{Op: OpLd, Rd: 1}
	st := Instr{Op: OpSt, Rd: 1}
	ll := Instr{Op: OpLL, Rd: 1}
	sc := Instr{Op: OpSC, Rd: 1, Rb: 2}
	add := Instr{Op: OpAdd, Rd: 1}
	beq := Instr{Op: OpBeq}
	if !ld.IsMem() || !ld.IsLoad() || ld.IsStore() {
		t.Fatal("ld classification")
	}
	if !st.IsMem() || st.IsLoad() || !st.IsStore() {
		t.Fatal("st classification")
	}
	if !ll.IsLoad() || !sc.IsStore() {
		t.Fatal("ll/sc classification")
	}
	if add.IsMem() || add.IsBranch() {
		t.Fatal("add classification")
	}
	if !beq.IsBranch() {
		t.Fatal("beq classification")
	}
	if r, ok := sc.WritesReg(); !ok || r != 2 {
		t.Fatalf("SC writes r%d ok=%v, want r2", r, ok)
	}
	if _, ok := st.WritesReg(); ok {
		t.Fatal("plain store writes no register")
	}
	if r, ok := ld.WritesReg(); !ok || r != 1 {
		t.Fatalf("ld writes r%d ok=%v, want r1", r, ok)
	}
	// Writes to r0 are discarded.
	zero := Instr{Op: OpAdd, Rd: 0}
	if _, ok := zero.WritesReg(); ok {
		t.Fatal("write to r0 must report no destination")
	}
}

func TestSrcRegs(t *testing.T) {
	st := Instr{Op: OpSt, Rd: 3, Ra: 4}
	if s0, s1, n := st.SrcRegs(); n != 2 || s0 != 4 || s1 != 3 {
		t.Fatalf("store srcs = r%d, r%d (%d used), want r4, r3", s0, s1, n)
	}
	halt := Instr{Op: OpHalt}
	if _, _, n := halt.SrcRegs(); n != 0 {
		t.Fatalf("halt has %d srcs", n)
	}
}

// Every opcode's row of the property table, spelled out: what the
// classifiers, WritesReg and SrcRegs answer for an instruction whose
// three register fields are distinct and non-zero. An opcode added
// without a row here, or a classifier that stops reading the table,
// fails.
func TestOpTableExhaustive(t *testing.T) {
	const d, a, b = 1, 2, 3 // Rd, Ra, Rb
	type row struct {
		load, store, branch bool
		srcs                []uint8
		dst                 uint8 // 0: writes no register
	}
	alu1 := row{srcs: []uint8{a}, dst: d}
	alu2 := row{srcs: []uint8{a, b}, dst: d}
	cond := row{branch: true, srcs: []uint8{a, b}}
	want := map[Op]row{
		OpNop: {}, OpISync: {}, OpHalt: {},
		OpAdd: alu2, OpAnd: alu2, OpXor: alu2,
		OpAddi: alu1, OpShli: alu1, OpShri: alu1, OpMix: alu1,
		OpLd:  {load: true, srcs: []uint8{a}, dst: d},
		OpLL:  {load: true, srcs: []uint8{a}, dst: d},
		OpSt:  {store: true, srcs: []uint8{a, d}},
		OpSC:  {store: true, srcs: []uint8{a, d}, dst: b},
		OpBeq: cond, OpBne: cond, OpBge: cond,
		OpJmp: {branch: true},
	}
	for op := Op(0); op < opCount; op++ {
		w, ok := want[op]
		if !ok {
			t.Fatalf("%s: no expectation; add its row here and to opTable", op)
		}
		ins := Instr{Op: op, Rd: d, Ra: a, Rb: b}
		if ins.IsLoad() != w.load || ins.IsStore() != w.store || ins.IsBranch() != w.branch || ins.IsMem() != (w.load || w.store) {
			t.Errorf("%s: load=%v store=%v branch=%v mem=%v, want %+v", op, ins.IsLoad(), ins.IsStore(), ins.IsBranch(), ins.IsMem(), w)
		}
		if r, ok := ins.WritesReg(); r != w.dst || ok != (w.dst != 0) {
			t.Errorf("%s: WritesReg = r%d, %v, want r%d", op, r, ok, w.dst)
		}
		if s0, s1, n := ins.SrcRegs(); !slices.Equal([]uint8{s0, s1}[:n], w.srcs) {
			t.Errorf("%s: SrcRegs = %v, want %v", op, []uint8{s0, s1}[:n], w.srcs)
		}
	}
	if len(want) != int(opCount) {
		t.Errorf("%d expectations for %d opcodes", len(want), opCount)
	}
	for op := int(opCount); op < len(opTable); op++ {
		if opTable[op] != (opProps{}) {
			t.Errorf("undefined opcode %d has properties %+v", op, opTable[op])
		}
	}
}

func TestBuilderLabelResolution(t *testing.T) {
	b := NewBuilder("t")
	loop := b.NewLabel()
	b.Li(R1, 3)
	b.Mark(loop)
	b.Addi(R1, R1, -1)
	b.Bne(R1, R0, loop)
	b.Halt()
	p := b.Build()
	if p.Code[2].Target != 1 {
		t.Fatalf("branch target = %d, want 1", p.Code[2].Target)
	}
}

func TestBuilderForwardReference(t *testing.T) {
	b := NewBuilder("t")
	done := b.NewLabel()
	b.Beq(R0, R0, done)
	b.Work(0)
	b.Mark(done)
	b.Halt()
	p := b.Build()
	if p.Code[0].Target != 2 {
		t.Fatalf("forward target = %d, want 2", p.Code[0].Target)
	}
}

func TestBuilderUnplacedLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build with unplaced label must panic")
		}
	}()
	b := NewBuilder("t")
	l := b.NewLabel()
	b.Jmp(l)
	b.Build()
}

func TestBuilderDoubleMarkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double Mark must panic")
		}
	}()
	b := NewBuilder("t")
	l := b.NewLabel()
	b.Mark(l)
	b.Mark(l)
}

func TestWorkSplitsLongLatency(t *testing.T) {
	b := NewBuilder("t")
	b.Work(600)
	b.Halt()
	p := b.Build()
	var total int
	for _, ins := range p.Code[:len(p.Code)-1] {
		if ins.Op != OpNop {
			t.Fatalf("Work emitted %s", ins.Op)
		}
		total += int(ins.Lat)
	}
	if total != 600 {
		t.Fatalf("total Work latency = %d, want 600", total)
	}
}

func TestProgramAtOutOfRangeHalts(t *testing.T) {
	p := NewBuilder("t").Work(0).Build()
	if p.At(5).Op != OpHalt {
		t.Fatal("running past the end must behave like halt")
	}
	if p.At(-1).Op != OpHalt {
		t.Fatal("negative pc must behave like halt")
	}
}

func TestDisassembleCoverage(t *testing.T) {
	b := NewBuilder("t")
	l := b.NewLabel()
	b.Mark(l)
	b.Li(R1, 7).Add(R2, R1, R1).Ld(R3, R1, 8).St(R3, R1, 16)
	b.LL(R4, R1, 0).SC(R4, R1, 0, R5)
	b.ISync(true).Bne(R1, R0, l).Jmp(l).Work(3).Halt()
	p := b.Build()
	d := p.Dump()
	for _, want := range []string{"addi", "add r2", "ld r3, 8(r1)", "st r3, 16(r1)",
		"ll", "sc r4", "isync (unsafe)", "bne", "jmp", "lat=3", "halt"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
}

func TestEvalALUAddSubInverseProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		sum := EvalALU(Instr{Op: OpAdd}, a, b)
		return EvalALU(Instr{Op: OpAddi, Imm: -int64(b)}, sum, 0) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBranchTrichotomyProperty(t *testing.T) {
	// Property: exactly one of a < b, a == b, a > b holds, with the
	// two orders read from bge and equality from beq; bne is beq's
	// complement.
	f := func(a, b uint64) bool {
		lt := !BranchTaken(Instr{Op: OpBge}, a, b)
		gt := !BranchTaken(Instr{Op: OpBge}, b, a)
		eq := BranchTaken(Instr{Op: OpBeq}, a, b)
		if BranchTaken(Instr{Op: OpBne}, a, b) == eq {
			return false
		}
		n := 0
		for _, holds := range []bool{lt, gt, eq} {
			if holds {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
