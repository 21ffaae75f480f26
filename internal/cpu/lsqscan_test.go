package cpu

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tssim/internal/isa"
	"tssim/internal/stats"
)

// These tests pin the verdicts of LSQ disambiguation (olderStoreScan)
// and the two facts the core's shortcuts rest on: the store queue
// answers what a walk of the whole window answers, and a load once
// found clear stays clear.

// windowScan is the reference olderStoreScan is held to: the walk the
// core made before it had a store queue, over every window entry older
// than the load.
func windowScan(c *Core, e *entry) (stall bool, fwd *entry) {
	for _, s := range c.ruu {
		if s.seq >= e.seq {
			break
		}
		if !s.isStore {
			continue
		}
		if !s.addrKnown {
			return true, nil
		}
		if s.effAddr != e.effAddr {
			continue
		}
		if s.ins.Op == isa.OpSC {
			if !s.done {
				return true, nil
			}
			if s.result == 0 {
				continue
			}
		}
		fwd = s
	}
	if fwd != nil && !fwd.srcReady[1] {
		return true, nil
	}
	return false, fwd
}

// scanCore builds a core with an empty program so the window can be
// populated by hand.
func scanCore(t *testing.T) (*Core, *fakeMem) {
	t.Helper()
	b := isa.NewBuilder("scan-stub")
	b.Halt()
	c, f, _ := newTestCore(t, b.Build(), false)
	return c, f
}

// plant puts one instruction into the window through dispatchOne, so
// ruu, stq, readyQ and lsqUsed are what the pipeline would have made
// them, and returns its entry for the test to force into the state it
// wants. Every operand is R0: nothing waits on a producer.
func plant(c *Core, op isa.Op) *entry {
	c.dispatchOne(&fetchSlot{}, &isa.Instr{Op: op})
	return c.ruu[len(c.ruu)-1]
}

func resolveStore(e *entry, addr uint64) {
	e.effAddr, e.addrKnown, e.needsAddr = addr, true, false
}

func plantStore(c *Core, op isa.Op, addr, val uint64, resolved, dataReady bool) *entry {
	e := plant(c, op)
	if resolved {
		resolveStore(e, addr)
	}
	e.src[1], e.srcReady[1] = val, dataReady
	return e
}

func plantLoad(c *Core, addr uint64) *entry {
	e := plant(c, isa.OpLd)
	e.src[0], e.effAddr, e.addrKnown = addr, addr, true
	return e
}

// scan disambiguates ld against the store queue and against the whole
// window, which must agree.
func scan(t *testing.T, c *Core, ld *entry) (stall bool, fwd *entry) {
	t.Helper()
	stall, fwd = c.olderStoreScan(ld)
	if ws, wf := windowScan(c, ld); ws != stall || wf != fwd {
		t.Fatalf("store queue answers stall=%v fwd=%p, the window stall=%v fwd=%p", stall, fwd, ws, wf)
	}
	return stall, fwd
}

// A store to a different word of the same cache line must not stall or
// forward: disambiguation is word-granular, so same-line partial
// overlap is a non-conflict.
func TestOlderStoreScanSameLinePartialOverlap(t *testing.T) {
	c, _ := scanCore(t)
	plantStore(c, isa.OpSt, 0x100, 55, true, true)
	ld := plantLoad(c, 0x108) // same 64B line, next word
	if stall, fwd := scan(t, c, ld); stall || fwd != nil {
		t.Fatalf("stall=%v fwd=%v, want false/nil", stall, fwd)
	}
}

// End-to-end twin of the partial-overlap case: the load must read
// memory, not the same-line store.
func TestSameLinePartialOverlapLoadsFromMemory(t *testing.T) {
	b := isa.NewBuilder("partial")
	b.Li(isa.R1, 0x100).Li(isa.R2, 55)
	b.St(isa.R2, isa.R1, 0)
	b.Ld(isa.R3, isa.R1, 8)
	b.Halt()
	c, f, ctrs := newTestCore(t, b.Build(), false)
	f.mem.WriteWord(0x108, 77)
	run(t, c, 1000)
	if c.Reg(isa.R3) != 77 {
		t.Fatalf("r3 = %d, want 77 (memory, not the same-line store)", c.Reg(isa.R3))
	}
	if n := ctrs.Get("cpu/lsq_forward"); n != 0 {
		t.Fatalf("lsq_forward = %d, want 0", n)
	}
}

// An older store whose address is still unresolved must stall every
// younger load; once it resolves to a non-conflicting address the
// verdict flips.
func TestOlderStoreScanUnknownAddressStalls(t *testing.T) {
	c, _ := scanCore(t)
	st := plantStore(c, isa.OpSt, 0, 55, false, true)
	ld := plantLoad(c, 0x200)
	if stall, _ := scan(t, c, ld); !stall {
		t.Fatal("unresolved older store did not stall the load")
	}
	resolveStore(st, 0x400)
	if stall, fwd := scan(t, c, ld); stall || fwd != nil {
		t.Fatalf("after resolution: stall=%v fwd=%v, want false/nil", stall, fwd)
	}
}

// A matching store whose data is not ready stalls; when the data
// arrives the load forwards from it.
func TestOlderStoreScanPendingDataStalls(t *testing.T) {
	c, _ := scanCore(t)
	st := plantStore(c, isa.OpSt, 0x100, 0, true, false)
	ld := plantLoad(c, 0x100)
	if stall, _ := scan(t, c, ld); !stall {
		t.Fatal("matching store with pending data did not stall")
	}
	st.src[1], st.srcReady[1] = 9, true
	if stall, fwd := scan(t, c, ld); stall || fwd != st {
		t.Fatalf("after data ready: stall=%v fwd=%v, want forward", stall, fwd)
	}
}

// A load must forward from the youngest older in-window store even
// when memory (and the post-retirement store buffer behind it) holds a
// different, older value: LSQ entries are younger than anything
// retired, so the in-window match wins.
func TestLSQForwardingBeatsStoreBuffer(t *testing.T) {
	c, f := scanCore(t)
	f.mem.WriteWord(0x100, 1) // what a retired store left behind
	st := plantStore(c, isa.OpSt, 0x100, 2, true, true)
	ld := plantLoad(c, 0x100)
	if stall, fwd := scan(t, c, ld); stall || fwd != st {
		t.Fatalf("scan: stall=%v fwd=%v, want forward from the in-window store", stall, fwd)
	}
	if ok, _ := c.issueLoad(ld, 0); !ok {
		t.Fatal("issueLoad refused a forwardable load")
	}
	if ld.result != 2 {
		t.Fatalf("forwarded value = %d, want 2 (LSQ), not 1 (memory/store buffer)", ld.result)
	}
}

// A failed SC wrote nothing: the load looks through it, to an older
// matching store if there is one and to memory if not.
func TestOlderStoreScanFailedSCIsTransparent(t *testing.T) {
	c, _ := scanCore(t)
	sc := plantStore(c, isa.OpSC, 0x100, 7, true, true)
	sc.done, sc.result = true, 0
	ld := plantLoad(c, 0x100)
	if stall, fwd := scan(t, c, ld); stall || fwd != nil {
		t.Fatalf("behind a failed SC: stall=%v fwd=%v, want false/nil", stall, fwd)
	}

	c, _ = scanCore(t)
	st := plantStore(c, isa.OpSt, 0x100, 5, true, true)
	sc = plantStore(c, isa.OpSC, 0x100, 7, true, true)
	sc.done, sc.result = true, 0
	ld = plantLoad(c, 0x100)
	if stall, fwd := scan(t, c, ld); stall || fwd != st {
		t.Fatalf("failed SC over a matching store: stall=%v fwd=%v, want forward from the store", stall, fwd)
	}
}

// An SC to the load's word that has not completed may still fail: the
// load waits for it, and forwards once it has succeeded. A pending SC
// to another word is no business of the load's.
func TestOlderStoreScanPendingSCStalls(t *testing.T) {
	c, _ := scanCore(t)
	plantStore(c, isa.OpSC, 0x300, 1, true, true) // other word, pending
	sc := plantStore(c, isa.OpSC, 0x100, 7, true, true)
	ld := plantLoad(c, 0x100)
	other := plantLoad(c, 0x200)
	if stall, _ := scan(t, c, ld); !stall {
		t.Fatal("pending SC to the load's word did not stall it")
	}
	if stall, fwd := scan(t, c, other); stall || fwd != nil {
		t.Fatalf("pending SCs to other words: stall=%v fwd=%v, want false/nil", stall, fwd)
	}
	sc.done, sc.result = true, 1
	if stall, fwd := scan(t, c, ld); stall || fwd != sc {
		t.Fatalf("after the SC succeeded: stall=%v fwd=%v, want forward from it", stall, fwd)
	}
}

// randomWindow drives a small core's window (so that stq slides and
// compacts often) through seeded random events, each one the pipeline
// can make — a dispatch, a store address resolving, store data
// arriving, an SC completing either way, the head retiring, a squash —
// and calls check after every one.
func randomWindow(t *testing.T, seed int64, steps int, check func(c *Core, event string)) {
	t.Helper()
	b := isa.NewBuilder("scan-stub")
	b.Halt()
	cfg := DefaultConfig()
	cfg.RUUSize, cfg.LSQSize = 24, 6
	c := New(cfg, 0, b.Build(), newFakeMem(), stats.NewCounters())
	rng := rand.New(rand.NewSource(seed))
	addr := func() uint64 { return 0x100 + 8*uint64(rng.Intn(4)) }
	pick := func(want func(e *entry) bool) *entry {
		var match []*entry
		for _, e := range c.ruu {
			if want(e) {
				match = append(match, e)
			}
		}
		if len(match) == 0 {
			return nil
		}
		return match[rng.Intn(len(match))]
	}
	for i := 0; i < steps; i++ {
		event := ""
		switch rng.Intn(8) {
		case 0, 1, 2:
			op := []isa.Op{isa.OpLd, isa.OpSt, isa.OpSt, isa.OpSC, isa.OpAddi}[rng.Intn(5)]
			if len(c.ruu) == cfg.RUUSize || op != isa.OpAddi && c.lsqUsed == cfg.LSQSize {
				continue
			}
			e := plant(c, op)
			if e.isLoad {
				e.effAddr, e.addrKnown = addr(), true
			} else if e.isStore {
				e.srcReady[1] = rng.Intn(2) == 0
			}
			event = fmt.Sprintf("dispatch %s seq %d", op, e.seq)
		case 3:
			if e := pick(func(e *entry) bool { return e.needsAddr }); e != nil {
				resolveStore(e, addr())
				event = fmt.Sprintf("resolve store seq %d to %#x", e.seq, e.effAddr)
			}
		case 4:
			if e := pick(func(e *entry) bool { return e.isStore && !e.srcReady[1] }); e != nil {
				e.srcReady[1] = true
				event = fmt.Sprintf("data of store seq %d", e.seq)
			}
		case 5:
			if e := pick(func(e *entry) bool { return e.ins.Op == isa.OpSC && e.addrKnown && !e.done }); e != nil {
				e.done, e.result = true, uint64(rng.Intn(2))
				event = fmt.Sprintf("SC seq %d done, result %d", e.seq, e.result)
			}
		case 6:
			if len(c.ruu) > 0 {
				event = fmt.Sprintf("retire seq %d", c.ruu[0].seq)
				c.retireHead()
			}
		case 7:
			if e := pick(func(*entry) bool { return true }); e != nil && rng.Intn(3) == 0 {
				event = fmt.Sprintf("squash after seq %d", e.seq)
				c.squashAfter(e.seq, 0)
			}
		}
		if event != "" {
			check(c, fmt.Sprintf("seed %d step %d (%s)", seed, i, event))
		}
	}
}

// The store queue holds exactly the window's stores, in order, and
// answers every load as a walk of the whole window does.
func TestStoreQueueMatchesWindowWalk(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		randomWindow(t, seed, 2000, func(c *Core, event string) {
			var stores []*entry
			for _, e := range c.ruu {
				if e.isStore {
					stores = append(stores, e)
				}
			}
			if !slices.Equal(stores, c.stq) {
				t.Fatalf("%s: stq holds %d entries, the window %d stores (or in another order)", event, len(c.stq), len(stores))
			}
			for _, e := range c.ruu {
				if !e.isLoad {
					continue
				}
				qs, qf := c.olderStoreScan(e)
				if ws, wf := windowScan(c, e); qs != ws || qf != wf {
					t.Fatalf("%s: load seq %d addr %#x: store queue stall=%v fwd=%p, window stall=%v fwd=%p",
						event, e.seq, e.effAddr, qs, qf, ws, wf)
				}
			}
		})
	}
}

// A clear scan is permanent: once the window answers a load (false,
// nil), no event that leaves the load in the window changes the answer.
// The retry memo depends on it: a memo'd load answered unasked is never
// scanned again.
func TestClearVerdictIsPermanent(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		clear, cleared := map[uint64]bool{}, 0
		randomWindow(t, seed, 2000, func(c *Core, event string) {
			for _, e := range c.ruu {
				if !e.isLoad {
					continue
				}
				stall, fwd := windowScan(c, e)
				if stall || fwd != nil {
					if clear[e.seq] {
						t.Fatalf("%s: load seq %d addr %#x was clear, now stall=%v fwd=%p", event, e.seq, e.effAddr, stall, fwd)
					}
				} else if !clear[e.seq] {
					clear[e.seq] = true
					cleared++
				}
			}
		})
		if cleared < 20 {
			t.Fatalf("seed %d: only %d loads ever became clear", seed, cleared)
		}
	}
}

var scanSink bool

// BenchmarkOlderStoreScan is the cost of one disambiguation of the
// window's youngest load against the store queue, and of the walk of
// the whole window it replaced.
func BenchmarkOlderStoreScan(b *testing.B) {
	for _, window := range []int{64, 192} {
		for _, stores := range []int{2, 10} {
			b.Run(fmt.Sprintf("window=%d/stores=%d", window, stores), func(b *testing.B) {
				prog := isa.NewBuilder("scan-stub")
				prog.Halt()
				c := New(DefaultConfig(), 0, prog.Build(), newFakeMem(), stats.NewCounters())
				for i := 0; i < window; i++ {
					if i%(window/stores) == 0 && len(c.stq) < stores {
						plantStore(c, isa.OpSt, 0x1000+8*uint64(i), 1, true, true)
					} else {
						plant(c, isa.OpAddi)
					}
				}
				ld := plantLoad(c, 0x100)
				for _, walk := range []struct {
					name string
					scan func(*entry) (bool, *entry)
				}{
					{"stq", c.olderStoreScan},
					{"window", func(e *entry) (bool, *entry) { return windowScan(c, e) }},
				} {
					b.Run(walk.name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							stall, fwd := walk.scan(ld)
							scanSink = stall || fwd != nil
						}
					})
				}
			})
		}
	}
}
