package cpu

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tssim/internal/isa"
	"tssim/internal/stats"
)

// The retry memo (readyRef.retryVer) is exercised on a core that is not
// idle: a load that never completes heads the window, nLoads ready
// loads behind it ask the memory system every tick, and a dependent
// add chain keeps the issue and complete stages moving, so no tick is
// answered from the idle verdict.
const (
	parkedHead  = 0x200  // word address of the head load
	parkedBase  = 0x1000 // word address of the first parked load
	parkedDep   = 0x3000 // what the head load reads: base of the loads that wait for it
	parkedChain = 120    // cycles the add chain keeps the core live
	parkedWarm  = 45     // cycles until everything is dispatched and parked
)

func parkedAddr(i int) uint64 { return parkedBase + uint64(i)*8 }

// parkedBuilder starts a program with the head load (its result lands in
// R3 when the test delivers it) and leaves parkedBase in R2.
func parkedBuilder() *isa.Builder {
	b := isa.NewBuilder("parked")
	b.Li(isa.R1, parkedHead).Ld(isa.R3, isa.R1, 0)
	return b.Li(isa.R2, parkedBase)
}

// parkLoads emits loads of the parked words [from, to).
func parkLoads(b *isa.Builder, from, to int) {
	for i := from; i < to; i++ {
		b.Ld(isa.R4, isa.R2, int64(i)*8)
	}
}

// liveChain emits the dependent adds that keep the core from going idle.
func liveChain(b *isa.Builder) *isa.Builder {
	for i := 0; i < parkedChain; i++ {
		b.Addi(isa.R5, isa.R5, 1)
	}
	return b
}

func parkedProgram(nLoads int) *isa.Program {
	b := parkedBuilder()
	parkLoads(b, 0, nLoads)
	return liveChain(b).Halt().Build()
}

// parkedCoreOn builds a full-size core over prog whose head load goes
// async; park scripts what the nLoads parked loads behind it are
// answered.
func parkedCoreOn(prog *isa.Program, nLoads int, park func(f *fakeMem, addr uint64), violation *error) (*Core, *fakeMem, *stats.Counters) {
	f := newFakeMem()
	f.delayed[parkedHead] = true
	f.mem.WriteWord(parkedHead, parkedDep)
	for i := 0; i < nLoads; i++ {
		park(f, parkedAddr(i))
	}
	ctrs := stats.NewCounters()
	c := New(DefaultConfig(), 0, prog, f, ctrs)
	f.attach(c, ctrs)
	if violation != nil {
		c.SetOracle(violation)
	}
	return c, f, ctrs
}

func parkedCore(nLoads int, park func(f *fakeMem, addr uint64), violation *error) (*Core, *fakeMem, *stats.Counters) {
	return parkedCoreOn(parkedProgram(nLoads), nLoads, park, violation)
}

func refuseCounted(f *fakeMem, addr uint64) { f.mshrFull[addr] = true }

func (c *Core) loadAt(addr uint64) *entry {
	for _, e := range c.ruu {
		if e.isLoad && e.addrKnown && e.effAddr == addr {
			return e
		}
	}
	return nil
}

// twins ticks a fast core and its oracle side by side and fails on the
// first tick after which they differ in counters, spin set or clock.
type twins struct {
	t            *testing.T
	fast, oracle *Core
	fMem, oMem   *fakeMem
	fCtr, oCtr   *stats.Counters
	violation    error
	now          uint64
}

func newTwins(t *testing.T, nLoads int, park func(*fakeMem, uint64)) *twins {
	return newTwinsOn(t, parkedProgram(nLoads), nLoads, park)
}

func newTwinsOn(t *testing.T, prog *isa.Program, nLoads int, park func(*fakeMem, uint64)) *twins {
	tw := &twins{t: t}
	tw.fast, tw.fMem, tw.fCtr = parkedCoreOn(prog, nLoads, park, nil)
	tw.oracle, tw.oMem, tw.oCtr = parkedCoreOn(prog, nLoads, park, &tw.violation)
	return tw
}

func (tw *twins) tick(n int) {
	tw.t.Helper()
	for i := 0; i < n; i++ {
		tw.fast.Tick(tw.now)
		tw.oracle.Tick(tw.now)
		if f, o := tw.fCtr.Snapshot(), tw.oCtr.Snapshot(); !reflect.DeepEqual(f, o) {
			tw.t.Fatalf("cycle %d: counters diverge:\nfast   %v\noracle %v", tw.now, f, o)
		}
		if tw.fast.spin != tw.oracle.spin {
			tw.t.Fatalf("cycle %d: spin set: fast %+v, oracle %+v", tw.now, tw.fast.spin, tw.oracle.spin)
		}
		if tw.fast.Cycles() != tw.oracle.Cycles() {
			tw.t.Fatalf("cycle %d: clock: fast %d, oracle %d", tw.now, tw.fast.Cycles(), tw.oracle.Cycles())
		}
		tw.now++
	}
}

func (tw *twins) both(fn func(*fakeMem)) { fn(tw.fMem); fn(tw.oMem) }

// memoized ticks both twins once and returns how many retries the fast
// one answered from memos; the oracle counted as many refusals or tick
// has failed.
func (tw *twins) memoized() uint64 {
	tw.t.Helper()
	before := tw.fast.MemoizedRetries()
	tw.tick(1)
	return tw.fast.MemoizedRetries() - before
}

// deliverHead completes the head load on both twins: everything that
// waits on R3 wakes on the next tick.
func (tw *twins) deliverHead() {
	tw.both(func(f *fakeMem) {
		for seq := range f.pendLoad {
			f.deliver(seq)
		}
	})
}

// done holds what every twin run must end with.
func (tw *twins) done() {
	tw.t.Helper()
	if tw.violation != nil {
		tw.t.Fatalf("oracle twin: %v", tw.violation)
	}
	if tw.oracle.MemoizedRetries() != 0 {
		tw.t.Fatalf("oracle answered %d retries from the memo", tw.oracle.MemoizedRetries())
	}
	if tw.fast.ReplayedTicks() != 0 {
		tw.t.Fatalf("the core went idle (%d replayed ticks): the memo was not what answered", tw.fast.ReplayedTicks())
	}
}

func TestRetryMemoLiveTickTwins(t *testing.T) {
	const nLoads, k = 8, 40
	tw := newTwins(t, nLoads, refuseCounted)
	tw.tick(parkedWarm)
	before, memoBefore := tw.fCtr.Get("l2/mshr_full"), tw.fast.MemoizedRetries()
	tw.tick(k)
	tw.done()
	if got := tw.fCtr.Get("l2/mshr_full") - before; got != nLoads*k {
		t.Fatalf("l2/mshr_full advanced %d over %d ticks of %d parked loads, want %d", got, k, nLoads, nLoads*k)
	}
	if got := tw.fast.MemoizedRetries() - memoBefore; got != nLoads*k {
		t.Fatalf("fast core memoized %d of %d retries under a standing version", got, nLoads*k)
	}
	if s := tw.fast.DebugState(); !strings.Contains(s, fmt.Sprintf("stq=0 readyQ=%d (%d with a retry memo)", nLoads, nLoads)) {
		t.Fatalf("post-mortem does not say what the LSQ waits on:\n%s", s)
	}

	// A new version alone invalidates: every load asks again, is refused
	// again, and is memoized under the new version.
	tw.both(func(f *fakeMem) { f.ver++ })
	memoBefore = tw.fast.MemoizedRetries()
	tw.tick(1)
	if got := tw.fast.MemoizedRetries() - memoBefore; got != 0 {
		t.Fatalf("%d retries answered from a memo of the old version", got)
	}
	tw.tick(1)
	if got := tw.fast.MemoizedRetries() - memoBefore; got != nLoads {
		t.Fatalf("memoized %d retries on the tick after the re-ask, want %d", got, nLoads)
	}

	// The answer changes under a new version: the load issues on the
	// next tick of both twins, the others stay parked.
	freed := parkedAddr(3)
	tw.both(func(f *fakeMem) { delete(f.mshrFull, freed); f.ver++ })
	tw.tick(1)
	for name, c := range map[string]*Core{"fast": tw.fast, "oracle": tw.oracle} {
		if e := c.loadAt(freed); e == nil || !e.issued {
			t.Fatalf("%s: the freed load did not issue on the tick after the version moved", name)
		}
		if e := c.loadAt(parkedAddr(4)); e == nil || e.issued {
			t.Fatalf("%s: a load that is still refused issued", name)
		}
	}
	tw.tick(5)
	tw.done()
}

// wideProgram puts work that wakes all at once, when the head load is
// delivered, between the parked loads: depLoads loads that hit, then
// twelve adds, in program order
//
//	parked 0-3 | depLoads loads | parked 4-5 | 12 adds | parked 6-7 | chain
//
// so that one issue walk meets memo'd references before and after its
// memory ports run out and before and after its IssueWidth break.
func wideProgram(depLoads int) *isa.Program {
	b := parkedBuilder()
	parkLoads(b, 0, 4)
	for i := 0; i < depLoads; i++ {
		b.Ld(isa.R7, isa.R3, int64(i)*8)
	}
	parkLoads(b, 4, 6)
	for i := 0; i < 12; i++ {
		b.Addi(isa.R6, isa.R3, int64(i))
	}
	parkLoads(b, 6, 8)
	return liveChain(b).Halt().Build()
}

// memoizedPerTick delivers the head load to warmed-up twins and checks,
// tick by tick, how many refusals the fast core answered from memos.
func memoizedPerTick(t *testing.T, tw *twins, want ...uint64) {
	t.Helper()
	tw.tick(parkedWarm)
	if got := tw.memoized(); got != 8 {
		t.Fatalf("before the head load: %d of 8 parked loads answered from memos", got)
	}
	tw.deliverHead()
	for i, w := range want {
		if got := tw.memoized(); got != w {
			t.Fatalf("tick %d after the head load: %d retries answered from memos, want %d", i+1, got, w)
		}
	}
	tw.tick(5)
	tw.done()
}

// Memo'd loads take their turn at the walk's limits exactly as asked
// ones do. Six loads wake at once: four take the ports, so parked 4-5
// are passed over uncounted, and with four adds the width is spent, so
// parked 6-7 are not reached (4 counted); next tick two loads and six
// adds go, parked 6-7 are behind the break again (6); then all eight.
func TestRetryMemoWidthAndPortLimits(t *testing.T) {
	memoizedPerTick(t, newTwinsOn(t, wideProgram(6), 8, refuseCounted), 4, 6, 8)
}

// A load issued in the middle of the walk moves the version: the memos
// met before it answered (parked 0-3), those met after it ask again in
// program order (4-5; 6-7 are behind the width break). Next tick 4-5
// answer from their new memos and the other six ask; then all eight.
func TestRetryMemoVersionMovesMidWalk(t *testing.T) {
	tw := newTwinsOn(t, wideProgram(2), 8, refuseCounted)
	tw.both(func(f *fakeMem) { f.bumps[parkedDep] = true })
	memoizedPerTick(t, tw, 4, 2, 8)
}

// truthfulLog makes the fake's RefusalStands answer what its Load would:
// a word whose loads are refused, counted, stands.
func truthfulLog(f *fakeMem) { f.log = func(addr, _ uint64) bool { return f.mshrFull[addr] } }

// loggedPerTick is memoizedPerTick on twins whose memory system keeps
// the log, its version moved before every tick when move is set: each
// tick it also requires that the fast core asked Load nothing for the
// parked loads, the log having answered every passed memo it met.
func loggedPerTick(t *testing.T, tw *twins, move bool, want ...uint64) {
	t.Helper()
	tw.both(truthfulLog)
	step := func() (memo uint64, asked int) {
		if move {
			tw.both(func(f *fakeMem) { f.ver++ })
		}
		before := tw.fMem.refused
		memo = tw.memoized()
		return memo, tw.fMem.refused - before
	}
	for i := 0; i < parkedWarm; i++ {
		step()
	}
	if memo, asked := step(); memo != 8 || asked != 0 {
		t.Fatalf("before the head load: %d of 8 parked loads answered from memos, %d refused by Load", memo, asked)
	}
	tw.deliverHead()
	for i, w := range want {
		if memo, asked := step(); memo != w || asked != 0 {
			t.Fatalf("tick %d after the head load: %d retries answered from memos, want %d; %d refused by Load, want 0", i+1, memo, w, asked)
		}
	}
	tw.tick(5)
	tw.done()
	if logged, passed := tw.fast.LoggedRetries(); logged == 0 || logged != passed {
		t.Fatalf("the log answered %d of %d passed memos, want all of them and some", logged, passed)
	}
	if logged, passed := tw.oracle.LoggedRetries(); logged != 0 || passed != 0 {
		t.Fatalf("oracle answered %d of %d passed memos from the log", logged, passed)
	}
}

// A memo whose version has passed is answered from the log, without a
// Load call, when the log says its refusal stands, and counted at the
// walk's limits exactly as a standing one: with the version moved
// before every tick, the counts of TestRetryMemoWidthAndPortLimits.
func TestRetryMemoLogAnswersPassedVersion(t *testing.T) {
	loggedPerTick(t, newTwinsOn(t, wideProgram(6), 8, refuseCounted), true, 4, 6, 8)
}

// A load issued in the middle of the walk moves the version: the memos
// met after it (parked 4-5) go to the log, not back to Load (4 + 2);
// next tick 4-5 stand and the log answers the other six.
func TestRetryMemoLogAfterMidWalkMove(t *testing.T) {
	tw := newTwinsOn(t, wideProgram(2), 8, refuseCounted)
	tw.both(func(f *fakeMem) { f.bumps[parkedDep] = true })
	loggedPerTick(t, tw, false, 6, 8, 8)
}

// A mispredicted branch squashes the younger half of the memo'd loads:
// their references leave readyQ with them, and only the older half is
// refused from then on.
func TestRetryMemoSquashCutsReadyQueue(t *testing.T) {
	b := parkedBuilder()
	parkLoads(b, 0, 4)
	out := b.NewLabel()
	b.Bne(isa.R3, isa.R0, out) // predicted not taken; taken once R3 arrives
	parkLoads(b, 4, 8)
	liveChain(b)
	b.Mark(out)
	tw := newTwinsOn(t, liveChain(b).Halt().Build(), 8, refuseCounted)
	// The branch issues on the first tick and resolves on the second.
	memoizedPerTick(t, tw, 8, 4, 4, 4)
	if n := tw.fCtr.Get("cpu/branch_mispredict"); n != 1 {
		t.Fatalf("%d mispredicts, want the one that squashes", n)
	}
	for _, r := range tw.fast.readyQ {
		if r.retryVer != 0 && r.e.effAddr >= parkedAddr(4) {
			t.Fatalf("reference to squashed load seq %d addr %#x is still queued", r.seq, r.e.effAddr)
		}
	}
}

// A refusal that flips while the version stands, or while the log says
// it stands, breaks the memo's contract: the fast core cannot see it, so
// the oracle must, and must say which load on which core.
func TestOracleAuditLocatesRetryMemoViolation(t *testing.T) {
	cases := []struct {
		name, how string
		// flip, made once the load's refusal is freed, leaves the fast
		// path a reason to keep it.
		flip func(f *fakeMem)
	}{
		{"version stands", "", func(*fakeMem) {}},
		{"the log lies", ", which the log said stands", func(f *fakeMem) {
			f.log = func(uint64, uint64) bool { return true }
			f.ver++
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var violation error
			c, f, _ := parkedCore(8, refuseCounted, &violation)
			now := uint64(0)
			for ; now < parkedWarm; now++ {
				c.Tick(now)
			}
			if violation != nil {
				t.Fatalf("violation before the change: %v", violation)
			}
			addr := parkedAddr(5)
			e := c.loadAt(addr)
			delete(f.mshrFull, addr)
			tc.flip(f)
			c.Tick(now)
			if violation == nil {
				t.Fatal("oracle ticked through a flipped refusal without reporting it")
			}
			for _, w := range []string{
				fmt.Sprintf("cpu0 cycle %d:", now), "retry memo (version 0) violated",
				fmt.Sprintf("seq %d ", e.seq), fmt.Sprintf("addr %#x ", addr), "Status:",
			} {
				if !strings.Contains(violation.Error(), w) {
					t.Errorf("violation %q does not name %q", violation, w)
				}
			}
			if !strings.HasSuffix(violation.Error(), "}"+tc.how) {
				t.Errorf("violation %q does not end with %q", violation, "}"+tc.how)
			}
			if !e.issued {
				t.Error("the oracle did not act on what the memory system answered")
			}
		})
	}
}

// The oracle's audit of the store queue, of the memo's precondition
// that its load scans clear, and of the queue the memo rides in: each
// row breaks one by hand on a core whose parked loads are all clear and
// memo'd, and the oracle must name the entry.
func TestOracleAuditLocatesLSQViolation(t *testing.T) {
	// olderStore turns the window's done `li r2` — older than every
	// parked load — into a store to ld's word that nothing queued.
	olderStore := func(c *Core, ld *entry) *entry {
		st := c.ruu[1]
		st.ins.Op, st.isStore, st.srcReady[1] = isa.OpSt, true, true
		resolveStore(st, ld.effAddr)
		return st
	}
	cases := []struct {
		name, want string
		// plant breaks the core under ld and returns the entry the
		// message must name.
		plant func(c *Core, ld *entry) *entry
	}{
		{"store queue", "store queue violated: ", olderStore},
		// A memo'd load whose older store now matches: the fast path
		// would answer it from its memo without scanning.
		{"retry memo", "retry memo (version 0) violated: ", func(c *Core, ld *entry) *entry {
			c.stq = append(c.stq, olderStore(c, ld))
			return ld
		}},
		{"ready reference", "ready reference violated: ", func(c *Core, ld *entry) *entry {
			ld.issued = true
			return ld
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var violation error
			c, _, _ := parkedCore(8, refuseCounted, &violation)
			now := uint64(0)
			for ; now < parkedWarm; now++ {
				c.Tick(now)
			}
			if violation != nil {
				t.Fatalf("violation before the change: %v", violation)
			}
			named := tc.plant(c, c.loadAt(parkedAddr(5)))
			c.Tick(now)
			if violation == nil {
				t.Fatal("oracle ticked through it without reporting")
			}
			for _, w := range []string{
				fmt.Sprintf("cpu0 cycle %d: %s", now, tc.want),
				fmt.Sprintf("seq %d addr %#x ", named.seq, named.effAddr),
			} {
				if !strings.Contains(violation.Error(), w) {
					t.Errorf("violation %q does not name %q", violation, w)
				}
			}
		})
	}
}

// An uncounted retry (a buffered SC to the load's word) is never
// memoized: it ends when the SC performs, which needs no new version
// to be honoured on the next tick.
func TestUncountedRetryIsNotMemoized(t *testing.T) {
	tw := newTwins(t, 8, func(f *fakeMem, addr uint64) { f.scBlocked[addr] = true })
	tw.tick(parkedWarm + 10)
	if tw.fast.MemoizedRetries() != 0 {
		t.Fatalf("%d uncounted retries answered from a memo", tw.fast.MemoizedRetries())
	}
	addr := parkedAddr(2)
	tw.both(func(f *fakeMem) { delete(f.scBlocked, addr) })
	tw.tick(1)
	if e := tw.fast.loadAt(addr); e == nil || !e.issued {
		t.Fatal("fast core did not re-ask a load whose uncounted retry ended under the same version")
	}
	if tw.violation != nil {
		t.Fatalf("oracle twin: %v", tw.violation)
	}
}

// BenchmarkIssueRetryStorm measures what one parked load costs the
// issue walk per tick: answered from its memo (version stands) and
// asked again (version moves every tick).
func BenchmarkIssueRetryStorm(b *testing.B) {
	for _, n := range []int{8, 32, 96} {
		for _, mode := range []string{"memo", "reask"} {
			b.Run(fmt.Sprintf("loads=%d/%s", n, mode), func(b *testing.B) {
				c, f, _ := parkedCore(n, refuseCounted, nil)
				for now := uint64(0); now < parkedWarm; now++ {
					c.Tick(now)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "reask" {
						f.ver++
					}
					c.issue()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/load")
			})
		}
	}
}
