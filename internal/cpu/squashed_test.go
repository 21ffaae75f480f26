package cpu

import (
	"slices"
	"strings"
	"testing"

	"tssim/internal/isa"
)

// squashedLoadProgram parks a load of 0x200 at the head of the window and
// branches on its value: taken once the load returns 1, predicted not
// taken by the cold predictor, so the wrong path's load of 0x300 goes to
// the memory system long before the squash kills it.
func squashedLoadProgram() *isa.Program {
	b := isa.NewBuilder("squashed-load")
	skip := b.NewLabel()
	b.Li(isa.R1, 0x200).Ld(isa.R2, isa.R1, 0)
	b.Bne(isa.R2, isa.R0, skip)
	b.Li(isa.R3, 0x300).Ld(isa.R4, isa.R3, 0)
	b.Halt()
	b.Mark(skip)
	b.Halt()
	return b.Build()
}

// killWrongPathLoad runs squashedLoadProgram up to the squash and returns
// the seq of the load it killed while the memory system held it.
func killWrongPathLoad(t *testing.T, c *Core, f *fakeMem, now *uint64) uint64 {
	t.Helper()
	f.mem.WriteWord(0x200, 1)
	f.delayed[0x200], f.delayed[0x300] = true, true
	tickUntil(t, c, now, "both loads sent", func() bool { return len(f.pendLoad) == 2 })
	var head, killed uint64
	for seq, addr := range f.pendLoad {
		if addr == 0x200 {
			head = seq
		} else {
			killed = seq
		}
	}
	f.deliver(head)
	tickUntil(t, c, now, "mispredict squash", func() bool { return len(f.squashes) > 0 })
	return killed
}

// The core tells its memory system where each squash cuts, once per
// squash that kills something, and only then: here the mispredicted
// branch (seq 3) and nothing else in the run.
func TestSquashTellsTheMemorySystemWhereItCuts(t *testing.T) {
	c, f, ctrs, violation := oracleCore(t, squashedLoadProgram(), false)
	var now uint64
	killed := killWrongPathLoad(t, c, f, &now)
	if killed != 5 || !slices.Equal(f.squashes, []uint64{3}) {
		t.Fatalf("killed seq %d, Squashed cuts %v; want seq 5 killed at cut [3]", killed, f.squashes)
	}
	if _, held := f.pendLoad[killed]; held {
		t.Fatal("the fake still holds the killed load")
	}
	c.squashAfter(c.nextSeq, int(c.fetchPC)) // kills nothing
	run(t, c, 1000)
	if *violation != nil {
		t.Fatal(*violation)
	}
	if !slices.Equal(f.squashes, []uint64{3}) || ctrs.Get("cpu/squash") != 2 {
		t.Fatalf("Squashed cuts %v after %d squashes, want only [3]", f.squashes, ctrs.Get("cpu/squash"))
	}
}

// The run-time twin of the contract: an oracle core fails the run when a
// controller callback names a seq a squash killed — a waiter that
// outlived its load — and says which line it waited on. The fast path
// ignores such a seq, as it always has.
func TestOracleLocatesWaiterOutlivingSquash(t *testing.T) {
	calls := []struct {
		name string
		call func(c *Core, seq uint64)
	}{
		{"LoadDone", func(c *Core, seq uint64) { c.LoadDone(seq, 0) }},
		{"LoadsVerified", func(c *Core, seq uint64) { c.LoadsVerified([]uint64{seq}) }},
		{"SquashSpec", func(c *Core, seq uint64) { c.SquashSpec([]uint64{seq}) }},
	}
	for _, call := range calls {
		t.Run(call.name, func(t *testing.T) {
			c, f, _, violation := oracleCore(t, squashedLoadProgram(), false)
			var now uint64
			killed := killWrongPathLoad(t, c, f, &now)
			if *violation != nil {
				t.Fatalf("before the stale callback: %v", *violation)
			}
			call.call(c, killed)
			if *violation == nil {
				t.Fatal("the oracle ignored a callback naming a squashed seq")
			}
			if msg := (*violation).Error(); !strings.HasPrefix(msg, "cpu0 cycle ") ||
				!strings.HasSuffix(msg, ": controller named squashed seq 5 (line 0x300)") {
				t.Fatalf("violation does not locate the waiter: %s", msg)
			}

			fast, ff, ctrs := newTestCore(t, squashedLoadProgram(), false)
			now = 0
			call.call(fast, killWrongPathLoad(t, fast, ff, &now))
			run(t, fast, 1000)
			if fast.Reg(isa.R4) != 0 || ctrs.Get("cpu/lvp_squash") != 0 {
				t.Fatalf("the fast path acted on a squashed seq: r4=%d, %d LVP squashes", fast.Reg(isa.R4), ctrs.Get("cpu/lvp_squash"))
			}
		})
	}
}
