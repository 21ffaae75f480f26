package cpu

import (
	"strings"
	"testing"

	"tssim/internal/core"
	"tssim/internal/isa"
	"tssim/internal/mem"
	"tssim/internal/stats"
)

// fakeMem is a scriptable MemSystem: loads hit with fixed latency over
// a functional memory; stores apply at commit; SCs succeed unless
// scripted otherwise. Optional hooks let tests inject misses,
// speculative (LVP) deliveries, delayed SC results, and the
// controller's refusals (which count themselves through handles
// resolved on the shared counter set, as the real controller's do). A
// load that hits counts l1/hit and takes the next recency stamp of its
// line, as an L1 hit on the real controller does.
type fakeMem struct {
	mem      *mem.Memory
	loadLat  int
	scFail   map[uint64]bool   // fail SC at this word address once
	pendLoad map[uint64]uint64 // seq -> addr for delayed loads
	delayed  map[uint64]bool   // word addrs whose loads go async
	spec     map[uint64]uint64 // word addr -> speculative value to deliver
	core     *Core
	cnt      struct{ l1Hit, l1Miss, l2Miss, l2MSHRFull, storeBufFull stats.Counter }
	clock    uint64      // recency: the last stamp handed out
	lru      []lineStamp // each line hit, in the order first hit

	ver       uint64          // StateVersion; tests bump it when they change an answer
	bumps     map[uint64]bool // word addrs whose loads move ver themselves when they hit
	sbFull    bool            // StoreCommit refuses, counting store/buffer_full
	mshrFull  map[uint64]bool // word addrs whose loads get a counted retry
	scBlocked map[uint64]bool // word addrs whose loads get a pure retry
	refused   int             // counted retries Load gave
	// log answers RefusalStands; nil answers false, so every passed
	// memo is asked again.
	log func(addr, ver uint64) bool

	squashes     []uint64 // the cut of every Squashed call
	prefetches   []uint64
	sleCommits   [][]core.SpecStore
	sleWritable  bool
	reservations bool
}

// lineStamp is a line's recency stamp in fakeMem.
type lineStamp struct{ line, stamp uint64 }

func newFakeMem() *fakeMem {
	return &fakeMem{
		mem:          mem.New(),
		loadLat:      2,
		scFail:       map[uint64]bool{},
		pendLoad:     map[uint64]uint64{},
		delayed:      map[uint64]bool{},
		spec:         map[uint64]uint64{},
		bumps:        map[uint64]bool{},
		mshrFull:     map[uint64]bool{},
		scBlocked:    map[uint64]bool{},
		sleWritable:  true,
		reservations: true,
	}
}

// attach points the fake at its core and the shared counter set.
func (f *fakeMem) attach(c *Core, ctrs *stats.Counters) {
	f.core = c
	f.cnt.l1Hit = ctrs.Counter("l1/hit")
	f.cnt.l1Miss = ctrs.Counter("l1/miss")
	f.cnt.l2Miss = ctrs.Counter("l2/miss")
	f.cnt.l2MSHRFull = ctrs.Counter("l2/mshr_full")
	f.cnt.storeBufFull = ctrs.Counter("store/buffer_full")
}

func (f *fakeMem) Load(seq uint64, addr uint64, isLL bool) core.LoadResult {
	if f.scBlocked[addr] {
		return core.LoadResult{Status: core.LoadRetry}
	}
	if f.mshrFull[addr] {
		f.refused++
		f.ReplayRefusals(1, 0)
		return core.LoadResult{Status: core.LoadRetry, Counted: true}
	}
	if v, ok := f.spec[addr]; ok {
		return core.LoadResult{Status: core.LoadSpec, Value: v, Lat: f.loadLat}
	}
	if f.delayed[addr] {
		f.pendLoad[seq] = addr
		return core.LoadResult{Status: core.LoadMiss}
	}
	if f.bumps[addr] {
		f.ver++
	}
	f.ReplayL1Hits([]uint64{addr})
	return core.LoadResult{Status: core.LoadHit, Value: f.mem.ReadWord(addr), Lat: f.loadLat}
}

func (f *fakeMem) ReplayL1Hits(addrs []uint64) {
	for _, a := range addrs {
		f.clock++
		i := 0
		for i < len(f.lru) && f.lru[i].line != mem.LineAddr(a) {
			i++
		}
		if i == len(f.lru) {
			f.lru = append(f.lru, lineStamp{line: mem.LineAddr(a)})
		}
		f.lru[i].stamp = f.clock
		if f.cnt.l1Hit != (stats.Counter{}) { // attached
			f.cnt.l1Hit.Inc()
		}
	}
}

func (f *fakeMem) ReplayRefusals(loads, stores uint64) {
	if f.cnt.l1Miss != (stats.Counter{}) { // attached
		f.cnt.l1Miss.Add(loads)
		f.cnt.l2Miss.Add(loads)
		f.cnt.l2MSHRFull.Add(loads)
		f.cnt.storeBufFull.Add(stores)
	}
}

func (f *fakeMem) StoreCommit(seq, pc, addr, val uint64) bool {
	if f.sbFull {
		f.ReplayRefusals(0, 1)
		return false
	}
	f.mem.WriteWord(addr, val)
	return true
}

func (f *fakeMem) SCExecute(seq, pc, addr, val uint64) bool {
	if f.scFail[addr] {
		delete(f.scFail, addr)
		f.core.SCDone(seq, false)
		return true
	}
	f.mem.WriteWord(addr, val)
	f.core.SCDone(seq, true)
	return true
}

func (f *fakeMem) HasReservation(lineAddr, seq uint64) bool { return f.reservations }
func (f *fakeMem) PrefetchExclusive(addr uint64)            { f.prefetches = append(f.prefetches, addr) }
func (f *fakeMem) HoldsWritable(addr uint64) bool           { return f.sleWritable }
func (f *fakeMem) StateVersionWord() *uint64                { return &f.ver }
func (f *fakeMem) RefusalStands(addr, ver uint64) bool      { return f.log != nil && f.log(addr, ver) }
func (f *fakeMem) Squashed(after uint64) {
	f.squashes = append(f.squashes, after)
	for seq := range f.pendLoad {
		if seq > after {
			delete(f.pendLoad, seq)
		}
	}
}
func (f *fakeMem) SLECommitStores(st []core.SpecStore) bool {
	if !f.sleWritable {
		return false
	}
	cp := append([]core.SpecStore(nil), st...)
	f.sleCommits = append(f.sleCommits, cp)
	for _, s := range st {
		f.mem.WriteWord(s.Addr, s.Value)
	}
	return true
}

// deliver completes a pending (delayed) load with the current memory
// value.
func (f *fakeMem) deliver(seq uint64) {
	addr, ok := f.pendLoad[seq]
	if !ok {
		panic("no pending load")
	}
	delete(f.pendLoad, seq)
	f.core.LoadDone(seq, f.mem.ReadWord(addr))
}

func newTestCore(t *testing.T, prog *isa.Program, sle bool) (*Core, *fakeMem, *stats.Counters) {
	t.Helper()
	f := newFakeMem()
	ctrs := stats.NewCounters()
	cfg := DefaultConfig()
	cfg.SLE = sle
	c := New(cfg, 0, prog, f, ctrs)
	var diverged error
	c.EnableChecker(&diverged)
	t.Cleanup(func() {
		if diverged != nil {
			t.Error(diverged)
		}
	})
	f.attach(c, ctrs)
	return c, f, ctrs
}

func run(t *testing.T, c *Core, maxCycles int) {
	t.Helper()
	for i := 0; i < maxCycles; i++ {
		if c.Halted() {
			return
		}
		c.Tick(uint64(i))
	}
	t.Fatalf("core did not halt within %d cycles", maxCycles)
}

// The in-order commit checker ends the run with a located error, not a
// panic: a planted wrong ALU result is named with the cpu, the cycle,
// the pc and both values, and the core runs on to its halt.
func TestCommitCheckerLocatesDivergence(t *testing.T) {
	b := isa.NewBuilder("planted")
	b.Li(isa.R1, 6).Li(isa.R2, 7).Add(isa.R3, isa.R1, isa.R2).Halt()
	f, ctrs := newFakeMem(), stats.NewCounters()
	c := New(DefaultConfig(), 0, b.Build(), f, ctrs)
	f.attach(c, ctrs)
	var diverged error
	c.EnableChecker(&diverged)
	planted := false
	for cyc := uint64(0); cyc < 1000 && !c.Halted(); cyc++ {
		c.Tick(cyc)
		for _, e := range c.ruu {
			if !planted && e.done && e.ins.Op == isa.OpAdd {
				e.result++ // 14: the broadcast already carried 13
				planted = true
			}
		}
	}
	if !planted || !c.Halted() {
		t.Fatalf("planted %v, halted %v", planted, c.Halted())
	}
	if diverged == nil {
		t.Fatal("a wrong ALU result retired unnoticed")
	}
	msg := diverged.Error()
	for _, want := range []string{"cpu0 cycle ", "pc 2 ", "retired 14", "in order 13"} {
		if !strings.Contains(msg, want) {
			t.Errorf("divergence %q does not name %q", msg, want)
		}
	}
}

// TestCommitCheckerReadsCommittedOperands plants a wrong operand after
// rename: execute computes a consistent result from it, so only an
// in-order evaluation on the committed registers can tell that the
// retiring add read something no older instruction wrote.
func TestCommitCheckerReadsCommittedOperands(t *testing.T) {
	b := isa.NewBuilder("planted-operand")
	b.Li(isa.R1, 6).Li(isa.R2, 7)
	for i := 0; i < 16; i++ {
		b.Work(0) // the add dispatches after both producers are done
	}
	b.Add(isa.R3, isa.R1, isa.R2).Halt()
	f, ctrs := newFakeMem(), stats.NewCounters()
	c := New(DefaultConfig(), 0, b.Build(), f, ctrs)
	f.attach(c, ctrs)
	var diverged error
	c.EnableChecker(&diverged)
	planted := false
	for cyc := uint64(0); cyc < 1000 && !c.Halted(); cyc++ {
		c.Tick(cyc)
		for _, e := range c.ruu {
			if !planted && e.ins.Op == isa.OpAdd && !e.issued && e.srcReady[0] && e.srcReady[1] {
				e.src[0]++ // 7: execute will compute and broadcast 14
				planted = true
			}
		}
	}
	if !planted || !c.Halted() {
		t.Fatalf("planted %v, halted %v", planted, c.Halted())
	}
	if diverged == nil {
		t.Fatal("an add that read a wrong operand retired unnoticed")
	}
	msg := diverged.Error()
	for _, want := range []string{"cpu0 cycle ", "pc 18 ", "retired 14", "in order 13"} {
		if !strings.Contains(msg, want) {
			t.Errorf("divergence %q does not name %q", msg, want)
		}
	}
}

func TestPipelineArithmetic(t *testing.T) {
	b := isa.NewBuilder("arith")
	b.Li(isa.R1, 6).Li(isa.R2, 7).Add(isa.R3, isa.R1, isa.R2)
	b.Addi(isa.R4, isa.R3, 100).Halt()
	c, _, _ := newTestCore(t, b.Build(), false)
	run(t, c, 1000)
	if c.Reg(isa.R3) != 13 || c.Reg(isa.R4) != 113 {
		t.Fatalf("r3=%d r4=%d", c.Reg(isa.R3), c.Reg(isa.R4))
	}
	if c.Retired() != 5 {
		t.Fatalf("retired %d, want 5", c.Retired())
	}
}

func TestLoopAndBranchRecovery(t *testing.T) {
	// A data-dependent loop exercises branch prediction and
	// mispredict squash (the first and last iterations mispredict).
	b := isa.NewBuilder("loop")
	b.Li(isa.R1, 20)
	loop := b.Here()
	b.Add(isa.R2, isa.R2, isa.R1)
	b.Addi(isa.R1, isa.R1, -1)
	b.Bne(isa.R1, isa.R0, loop)
	b.Halt()
	c, _, ctrs := newTestCore(t, b.Build(), false)
	run(t, c, 5000)
	if c.Reg(isa.R2) != 210 {
		t.Fatalf("sum = %d, want 210", c.Reg(isa.R2))
	}
	if ctrs.Get("cpu/branch_mispredict") == 0 {
		t.Fatal("expected at least one mispredict")
	}
}

func TestLoadStoreThroughMemSystem(t *testing.T) {
	b := isa.NewBuilder("ldst")
	b.Li(isa.R1, 0x100).Li(isa.R2, 55).St(isa.R2, isa.R1, 0).Ld(isa.R3, isa.R1, 0).Halt()
	c, _, ctrs := newTestCore(t, b.Build(), false)
	run(t, c, 1000)
	if c.Reg(isa.R3) != 55 {
		t.Fatalf("r3 = %d, want 55 (LSQ forward)", c.Reg(isa.R3))
	}
	if ctrs.Get("cpu/lsq_forward") == 0 {
		t.Fatal("load should have forwarded from the in-flight store")
	}
}

func TestDelayedLoadCompletion(t *testing.T) {
	b := isa.NewBuilder("miss")
	b.Li(isa.R1, 0x200).Ld(isa.R3, isa.R1, 0).Addi(isa.R4, isa.R3, 1).Halt()
	c, f, _ := newTestCore(t, b.Build(), false)
	f.mem.WriteWord(0x200, 9)
	f.delayed[0x200] = true
	for i := 0; i < 200 && !c.Halted(); i++ {
		c.Tick(uint64(i))
		if len(f.pendLoad) > 0 && i > 50 {
			for seq := range f.pendLoad {
				f.deliver(seq)
			}
		}
	}
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	if c.Reg(isa.R4) != 10 {
		t.Fatalf("r4 = %d, want 10", c.Reg(isa.R4))
	}
}

func TestLVPVerifiedSpeculation(t *testing.T) {
	// A speculative load blocks retirement until LoadsVerified.
	b := isa.NewBuilder("lvp")
	b.Li(isa.R1, 0x300).Ld(isa.R3, isa.R1, 0).Addi(isa.R4, isa.R3, 1).Halt()
	c, f, _ := newTestCore(t, b.Build(), false)
	f.spec[0x300] = 7
	specSeq := uint64(0)
	for i := 0; i < 100; i++ {
		c.Tick(uint64(i))
		if specSeq == 0 {
			for _, e := range c.ruu {
				if e.specVal {
					specSeq = e.seq
				}
			}
		}
	}
	if c.Halted() {
		t.Fatal("core must not retire unverified speculative loads")
	}
	if specSeq == 0 {
		t.Fatal("no speculative load observed")
	}
	c.LoadsVerified([]uint64{specSeq})
	run(t, c, 200)
	if c.Reg(isa.R4) != 8 {
		t.Fatalf("r4 = %d, want 8", c.Reg(isa.R4))
	}
}

func TestLVPSquashRecovery(t *testing.T) {
	b := isa.NewBuilder("lvpsquash")
	b.Li(isa.R1, 0x300).Ld(isa.R3, isa.R1, 0).Addi(isa.R4, isa.R3, 1).Halt()
	c, f, ctrs := newTestCore(t, b.Build(), false)
	f.mem.WriteWord(0x300, 100) // true value differs from the spec 7
	f.spec[0x300] = 7
	var specSeq uint64
	for i := 0; i < 60; i++ {
		c.Tick(uint64(i))
		for _, e := range c.ruu {
			if e.specVal {
				specSeq = e.seq
			}
		}
	}
	// Misprediction: squash; the re-executed load hits (spec removed).
	delete(f.spec, 0x300)
	c.SquashSpec([]uint64{specSeq})
	run(t, c, 500)
	if c.Reg(isa.R4) != 101 {
		t.Fatalf("r4 = %d, want 101 after recovery", c.Reg(isa.R4))
	}
	if ctrs.Get("cpu/lvp_squash") != 1 {
		t.Fatalf("lvp squashes = %d, want 1", ctrs.Get("cpu/lvp_squash"))
	}
}

func TestSquashSpecDeadSeqsIgnored(t *testing.T) {
	b := isa.NewBuilder("dead")
	b.Li(isa.R1, 1).Halt()
	c, _, ctrs := newTestCore(t, b.Build(), false)
	c.SquashSpec([]uint64{12345}) // never-dispatched seq
	run(t, c, 100)
	if ctrs.Get("cpu/lvp_squash") != 0 {
		t.Fatal("dead seq must not squash")
	}
}

// spinLockProgram: acquire via LL/SC, bump a word, release, repeat.
func spinLockProgram(iters int64, unsafeISync bool) *isa.Program {
	b := isa.NewBuilder("lock")
	b.Li(isa.R10, 0x1000)
	b.Li(isa.R11, 0x2000)
	b.Li(isa.R12, iters)
	loop := b.Here()
	spin := b.Here()
	b.LL(isa.R1, isa.R10, 0)
	b.Bne(isa.R1, isa.R0, spin)
	b.Li(isa.R2, 1)
	b.SC(isa.R2, isa.R10, 0, isa.R3)
	b.Beq(isa.R3, isa.R0, spin)
	b.ISync(unsafeISync)
	b.Ld(isa.R4, isa.R11, 0)
	b.Addi(isa.R4, isa.R4, 1)
	b.St(isa.R4, isa.R11, 0)
	b.St(isa.R0, isa.R10, 0)
	b.Addi(isa.R12, isa.R12, -1)
	b.Bne(isa.R12, isa.R0, loop)
	b.Halt()
	return b.Build()
}

func TestSLEElidesCleanLock(t *testing.T) {
	c, f, ctrs := newTestCore(t, spinLockProgram(5, false), true)
	run(t, c, 20000)
	if ctrs.Get("sle/success") != 5 {
		t.Fatalf("sle successes = %d, want 5", ctrs.Get("sle/success"))
	}
	// The lock itself is never written: the fake memory's lock word
	// stays zero, while the protected counter advanced via atomic
	// region commits.
	if got := f.mem.ReadWord(0x1000); got != 0 {
		t.Fatalf("lock word = %d, want 0 (elided)", got)
	}
	if got := f.mem.ReadWord(0x2000); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if len(f.sleCommits) != 5 {
		t.Fatalf("atomic commits = %d, want 5", len(f.sleCommits))
	}
}

func TestSLEUnsafeISyncAborts(t *testing.T) {
	c, f, ctrs := newTestCore(t, spinLockProgram(3, true), true)
	run(t, c, 20000)
	if ctrs.Get("sle/success") != 0 {
		t.Fatal("unsafe critical sections must not elide")
	}
	if ctrs.Get("sle/abort_unsafe") == 0 {
		t.Fatal("expected unsafe aborts")
	}
	if got := f.mem.ReadWord(0x2000); got != 3 {
		t.Fatalf("counter = %d, want 3 (real locking fallback)", got)
	}
}

func TestSLEConflictAborts(t *testing.T) {
	c, f, ctrs := newTestCore(t, spinLockProgram(1, false), true)
	// Run until speculating, then inject a conflicting remote write
	// snoop on the counter line.
	for i := 0; i < 20000 && !c.Halted(); i++ {
		c.Tick(uint64(i))
		if c.sle.speculating() && c.sle.writeSet[mem.LineAddr(0x2000)] {
			c.ExternalSnoop(mem.LineAddr(0x2000), true)
		}
	}
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	if ctrs.Get("sle/abort_conflict") == 0 {
		t.Fatal("expected a conflict abort")
	}
	if got := f.mem.ReadWord(0x2000); got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
}

func TestSLEReservationLostDeclines(t *testing.T) {
	f := newFakeMem()
	ctrs := stats.NewCounters()
	cfg := DefaultConfig()
	cfg.SLE = true
	c := New(cfg, 0, spinLockProgram(1, false), f, ctrs)
	f.core = c
	f.reservations = false // reservation always lost
	run(t, c, 20000)
	if ctrs.Get("sle/attempt") != 0 {
		t.Fatal("elision must not start without a live reservation")
	}
	if ctrs.Get("sle/reservation_lost") == 0 {
		t.Fatal("reservation_lost not counted")
	}
	if got := f.mem.ReadWord(0x2000); got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
}

func TestSLEAtomicIncFalsePositive(t *testing.T) {
	// ll/add/sc with no reverting store: the attempt must fail with
	// no_release and the predictor must disable the PC.
	b := isa.NewBuilder("faa")
	b.Li(isa.R10, 0x1000)
	b.Li(isa.R12, 4)
	loop := b.Here()
	b.LL(isa.R1, isa.R10, 0)
	b.Addi(isa.R2, isa.R1, 1)
	b.SC(isa.R2, isa.R10, 0, isa.R3)
	b.Beq(isa.R3, isa.R0, loop)
	b.Addi(isa.R12, isa.R12, -1)
	b.Bne(isa.R12, isa.R0, loop)
	b.Halt()
	c, f, ctrs := newTestCore(t, b.Build(), true)
	run(t, c, 100000)
	if got := f.mem.ReadWord(0x1000); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if ctrs.Get("sle/abort_no_release") == 0 {
		t.Fatal("expected no_release aborts")
	}
	if ctrs.Get("sle/success") != 0 {
		t.Fatal("fetch-and-add must never 'succeed' as an elision")
	}
}

func TestLoadReplayOnSnoop(t *testing.T) {
	// A bound-but-unretired load must be squashed and re-executed
	// when a remote write snoops its line (R10K-style SC). A
	// long-latency op ahead of the load keeps it from retiring while
	// it is already bound.
	b := isa.NewBuilder("replay")
	b.Li(isa.R1, 0x400)
	b.Work(200) // retires late, stalling commit past the load
	b.Ld(isa.R3, isa.R1, 0)
	b.Halt()
	c, f, ctrs := newTestCore(t, b.Build(), false)
	f.mem.WriteWord(0x400, 1)
	fired := false
	for i := 0; i < 5000 && !c.Halted(); i++ {
		c.Tick(uint64(i))
		if !fired {
			for _, e := range c.ruu {
				if e.ins.Op == isa.OpLd && e.done {
					// Load bound: remote write changes the value,
					// then the snoop arrives.
					f.mem.WriteWord(0x400, 2)
					c.ExternalSnoop(mem.LineAddr(0x400), true)
					fired = true
				}
			}
		}
	}
	if !fired {
		t.Fatal("load never bound before the long op retired")
	}
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	if got := c.Reg(isa.R3); got != 2 {
		t.Fatalf("r3 = %d, want 2 (replayed value)", got)
	}
	if ctrs.Get("cpu/load_replay") == 0 {
		t.Fatal("replay not counted")
	}
}

func TestISyncDrainsDispatch(t *testing.T) {
	b := isa.NewBuilder("isync")
	b.Li(isa.R1, 1).ISync(false).Li(isa.R2, 2).Halt()
	c, _, _ := newTestCore(t, b.Build(), false)
	run(t, c, 1000)
	if c.Reg(isa.R2) != 2 {
		t.Fatalf("r2 = %d", c.Reg(isa.R2))
	}
	if c.Retired() != 4 {
		t.Fatalf("retired %d, want 4", c.Retired())
	}
}

func TestBpredLearns(t *testing.T) {
	p := newBpred(64)
	const ins = isa.OpBne
	if p.predict(4, ins) {
		t.Fatal("initial prediction should be not-taken")
	}
	p.update(4, true)
	p.update(4, true)
	if !p.predict(4, ins) {
		t.Fatal("two taken updates should flip the prediction")
	}
	if !p.predict(4, isa.OpJmp) {
		t.Fatal("jmp must always predict taken")
	}
}
