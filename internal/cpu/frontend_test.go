package cpu

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"tssim/internal/isa"
	"tssim/internal/stats"
)

// These tests pin the front end's contracts: what a fetch slot and a
// window entry cost, where dispatch gets its instruction from, and the
// wake-up chains (entry.wake) through the events that rewrite them —
// dispatch, broadcast, squash and the recycling of the killed entries.

// The structs the per-instruction path copies and clears. A field added
// to either shows up here before it shows up in alloc_mb.
func TestLayout(t *testing.T) {
	if got := unsafe.Sizeof(fetchSlot{}); got != 16 {
		t.Errorf("fetchSlot is %d bytes, was 16 (the issue's bound is 24)", got)
	}
	if got := unsafe.Sizeof(entry{}); got != 112 {
		t.Errorf("entry is %d bytes, was 112 (160 before the wake-up chains went intrusive)", got)
	}
}

// oracleCore is newTestCore with the core made the audited twin.
func oracleCore(t *testing.T, prog *isa.Program, sle bool) (*Core, *fakeMem, *stats.Counters, *error) {
	t.Helper()
	c, f, ctrs := newTestCore(t, prog, sle)
	violation := new(error)
	c.SetOracle(violation)
	return c, f, ctrs, violation
}

// tickUntil ticks c from cycle *now until cond holds.
func tickUntil(t *testing.T, c *Core, now *uint64, what string, cond func() bool) {
	t.Helper()
	for limit := *now + 2000; !cond(); *now++ {
		if *now == limit {
			t.Fatalf("never reached: %s\n%s", what, c.DebugState())
		}
		c.Tick(*now)
	}
}

func findOp(c *Core, op isa.Op) *entry {
	for _, e := range c.ruu {
		if e.ins.Op == op {
			return e
		}
	}
	return nil
}

// add r3, r2, r2 behind a pending load of r2: both source slots of one
// consumer sit on one producer's chain, slot 1 ahead of slot 0, and one
// broadcast fills both.
func TestWakeChainBothSlotsOnOneProducer(t *testing.T) {
	b := isa.NewBuilder("both")
	b.Li(isa.R1, 0x200).Ld(isa.R2, isa.R1, 0).Add(isa.R3, isa.R2, isa.R2).Halt()
	c, f, _, violation := oracleCore(t, b.Build(), false)
	f.mem.WriteWord(0x200, 21)
	f.delayed[0x200] = true
	var now uint64
	tickUntil(t, c, &now, "load sent, add dispatched", func() bool { return len(f.pendLoad) == 1 && findOp(c, isa.OpAdd) != nil })
	ld, add := findOp(c, isa.OpLd), findOp(c, isa.OpAdd)
	if ld.wake != add || ld.wakeSlot != 1 || add.next[1] != add || add.nextSlot[1] != 0 || add.next[0] != nil {
		t.Fatalf("chain of the load: head %p slot %d, then %p slot %d, then %p; want add/1, add/0, nil (add is %p)",
			ld.wake, ld.wakeSlot, add.next[1], add.nextSlot[1], add.next[0], add)
	}
	if add.pendingSrcs != 2 || add.queued {
		t.Fatalf("add: pendingSrcs=%d queued=%v, want 2, false", add.pendingSrcs, add.queued)
	}
	f.deliver(ld.seq)
	run(t, c, 1000)
	if *violation != nil {
		t.Fatal(*violation)
	}
	if got := c.Reg(isa.R3); got != 42 {
		t.Fatalf("r3 = %d, want 42", got)
	}
}

// squashProgram parks a load of r2 at the head of the window and
// mispredicts a branch behind it: the wrong path hangs three waiters on
// the load's chain and halts, the squash kills them while the load
// survives, and the right path is dispatched into the same entries (the
// pool is LIFO) under new seqs — one of them a waiter on r2 again, the
// others not.
func squashProgram() *isa.Program {
	b := isa.NewBuilder("squash")
	skip := b.NewLabel()
	b.Li(isa.R1, 0x200).Ld(isa.R2, isa.R1, 0)
	b.Li(isa.R5, 1)
	b.Bne(isa.R5, isa.R0, skip) // taken; the cold predictor says not
	b.Add(isa.R3, isa.R2, isa.R2)
	b.Addi(isa.R4, isa.R2, 1)
	b.Halt()
	b.Mark(skip)
	b.Li(isa.R6, 7)
	b.Li(isa.R8, 9)
	b.Add(isa.R7, isa.R2, isa.R6)
	b.Halt()
	return b.Build()
}

func TestWakeChainSquashUnlinksAndEntriesRecycle(t *testing.T) {
	c, f, ctrs, violation := oracleCore(t, squashProgram(), false)
	f.mem.WriteWord(0x200, 100)
	f.delayed[0x200] = true
	var now uint64
	tickUntil(t, c, &now, "wrong path dispatched", func() bool { return findOp(c, isa.OpAdd) != nil })
	ld := findOp(c, isa.OpLd)
	var killed []*entry
	for w, i := ld.wake, ld.wakeSlot; w != nil; w, i = w.next[i], w.nextSlot[i] {
		killed = append(killed, w)
	}
	if len(killed) != 3 {
		t.Fatalf("the load has %d waiters before the squash, want 3 (addi, add twice)", len(killed))
	}
	tickUntil(t, c, &now, "mispredict squash", func() bool { return ctrs.Get("cpu/squash") == 1 })
	if ld.wake != nil {
		t.Fatalf("after the squash the load still holds seq %d", ld.wake.seq)
	}
	tickUntil(t, c, &now, "right path dispatched", func() bool { return findOp(c, isa.OpHalt) != nil })
	add := findOp(c, isa.OpAdd)
	if add != killed[2] || c.ruu[len(c.ruu)-3] != killed[0] {
		t.Fatal("the killed waiters were not recycled as the right path's li r8 and add: the test no longer covers reuse under a new seq")
	}
	if ld.wake != add || ld.wakeSlot != 0 || add.next[0] != nil {
		t.Fatalf("chain of the load after the refetch: head %p slot %d then %p, want the new add (%p) slot 0 then nil",
			ld.wake, ld.wakeSlot, add.next[0], add)
	}
	f.deliver(ld.seq)
	run(t, c, 1000)
	if *violation != nil {
		t.Fatal(*violation)
	}
	if r3, r4, r7 := c.Reg(isa.R3), c.Reg(isa.R4), c.Reg(isa.R7); r3 != 0 || r4 != 0 || r7 != 107 {
		t.Fatalf("r3=%d r4=%d r7=%d, want 0 0 107 (wrong path never commits)", r3, r4, r7)
	}
}

// The mutant the chain audit exists for: a squash that frees the killed
// entries without popping them off the survivors. The oracle must name
// the survivor's chain, both while the killed waiters sit in the pool
// and once they are back in the window under new seqs.
func TestOracleAuditLocatesSkippedSquashUnlink(t *testing.T) {
	for _, recycle := range []bool{false, true} {
		c, f, ctrs, violation := oracleCore(t, squashProgram(), false)
		f.delayed[0x200] = true
		var now uint64
		tickUntil(t, c, &now, "wrong path dispatched", func() bool { return findOp(c, isa.OpAdd) != nil })
		ld := findOp(c, isa.OpLd)
		wake, slot := ld.wake, ld.wakeSlot
		tickUntil(t, c, &now, "mispredict squash", func() bool { return ctrs.Get("cpu/squash") == 1 })
		if *violation != nil {
			t.Fatalf("before the mutation: %v", *violation)
		}
		ld.wake, ld.wakeSlot = wake, slot // what skipping the unlink leaves
		if recycle {
			for i := 0; i < 12 && *violation == nil; i++ {
				c.Tick(now)
				now++
			}
		} else {
			c.auditWakeChains()
		}
		if *violation == nil {
			t.Fatalf("recycle=%v: the oracle did not notice the stale chain", recycle)
		}
		if msg := (*violation).Error(); !strings.HasPrefix(msg, "cpu0 cycle ") || !strings.Contains(msg, "wake chain of seq 2 ") {
			t.Fatalf("recycle=%v: violation does not locate the load's chain: %s", recycle, msg)
		}
	}
}

// An elided SC completes inside the issue walk (issueSC -> tryStart ->
// broadcast): its waiter — the branch on the SC's success flag — is
// woken beyond the walk's cursor and issues in the same cycle.
func TestWakeChainElidedSCBroadcastInsideIssueWalk(t *testing.T) {
	c, _, ctrs, violation := oracleCore(t, spinLockProgram(3, false), true)
	var now uint64
	tickUntil(t, c, &now, "first elision", func() bool { return c.sle.speculating() })
	sc := c.sle.scEntry
	var beq *entry
	for _, e := range c.ruu {
		if e.seq == sc.seq+1 {
			beq = e
		}
	}
	if beq == nil || beq.ins.Op != isa.OpBeq {
		t.Fatalf("no beq behind the elided SC:\n%s", c.DebugState())
	}
	if sc.wake != nil || !beq.srcReady[0] || beq.src[0] != 1 || !beq.issued {
		t.Fatalf("the cycle the SC was elided: sc.wake=%p beq ready=%v src=%d issued=%v, want nil true 1 true",
			sc.wake, beq.srcReady[0], beq.src[0], beq.issued)
	}
	run(t, c, 20000)
	if *violation != nil {
		t.Fatal(*violation)
	}
	if got := ctrs.Get("sle/success"); got != 3 {
		t.Fatalf("sle successes = %d, want 3", got)
	}
}

// Fetch past the end of the program reads a halt at the pc it ran to,
// by falling off the last instruction or by jumping beyond it.
func TestFetchOffTheEndRetiresHalt(t *testing.T) {
	type commit struct {
		pc int
		op isa.Op
	}
	fall := isa.NewBuilder("fall")
	fall.Li(isa.R1, 1)
	jump := isa.NewBuilder("jump")
	end := jump.NewLabel()
	jump.Li(isa.R1, 1).Jmp(end).Li(isa.R1, 2)
	jump.Mark(end)
	for _, row := range []struct {
		prog *isa.Program
		want []commit
	}{
		{fall.Build(), []commit{{0, isa.OpAddi}, {1, isa.OpHalt}}},
		{jump.Build(), []commit{{0, isa.OpAddi}, {1, isa.OpJmp}, {3, isa.OpHalt}}},
	} {
		c, _, _, violation := oracleCore(t, row.prog, false)
		var got []commit
		c.OnCommitDebug = func(_ uint64, pc int, ins isa.Instr, _, _, _ uint64) { got = append(got, commit{pc, ins.Op}) }
		run(t, c, 1000)
		if *violation != nil {
			t.Fatal(*violation)
		}
		if !slices.Equal(got, row.want) {
			t.Fatalf("%s: committed %v, want %v", row.prog.Name, got, row.want)
		}
		if c.Reg(isa.R1) != 1 {
			t.Fatalf("%s: r1 = %d, want 1", row.prog.Name, c.Reg(isa.R1))
		}
	}
}

// frontEndProgram is an endless straight-line body of four interleaved
// dependent ALU chains (two of them feeding a two-source op), closed by
// an always-taken jump: every instruction waits on a producer in the
// window, no memory system call is made and no branch mispredicts.
func frontEndProgram() *isa.Program {
	b := isa.NewBuilder("frontend")
	top := b.Here()
	for i := 0; i < 256; i++ {
		b.Addi(isa.R1, isa.R1, 1)
		b.Add(isa.R2, isa.R2, isa.R1)
		b.Addi(isa.R3, isa.R3, 3)
		b.Xor(isa.R4, isa.R4, isa.R3)
	}
	b.Jmp(top)
	return b.Build()
}

// BenchmarkFrontEnd is the cost of one instruction's trip through
// fetch, dispatch (rename, chain), wake-up, issue and retire with
// nothing else in the way: ns/op is host ns per retired instruction.
func BenchmarkFrontEnd(b *testing.B) {
	c := New(DefaultConfig(), 0, frontEndProgram(), newFakeMem(), stats.NewCounters())
	var now uint64
	for ; c.Retired() < 4096; now++ { // fill the window, slide every buffer once
		c.Tick(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for target := c.Retired() + uint64(b.N); c.Retired() < target; now++ {
		c.Tick(now)
	}
}

var coreSink *Core

// BenchmarkCoreNew is what constructing one core at the default
// configuration costs: B/op is a CPU's share of a cell's alloc_mb.
func BenchmarkCoreNew(b *testing.B) {
	prog, f, ctrs := frontEndProgram(), newFakeMem(), stats.NewCounters()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		coreSink = New(DefaultConfig(), 0, prog, f, ctrs)
	}
}
