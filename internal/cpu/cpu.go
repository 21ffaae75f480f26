// Package cpu models the out-of-order processor core: a unified
// RUU/LSQ window in the style of the paper's SimpleScalar-derived core
// (Table 1: 256-entry RUU, 128-entry LSQ, 8-wide pipeline, 6 stages),
// with tag-based wakeup, branch prediction, squash recovery, the
// consumer half of LVP (speculative loads that cannot retire until
// verified — the commit-pointer rule of §3.2), context-serializing
// isync handling, and the SLE engine of §4 (in-core speculation
// buffering bounded by a fraction of the RUU).
package cpu

import (
	"fmt"

	"tssim/internal/core"
	"tssim/internal/isa"
	"tssim/internal/mem"
	"tssim/internal/stats"
	"tssim/internal/trace"
)

// MemSystem is the memory-side interface the core drives; implemented
// by core.Controller and by fakes in tests.
type MemSystem interface {
	Load(seq uint64, addr uint64, isLL bool) core.LoadResult
	StoreCommit(seq, pc, addr, val uint64) bool
	SCExecute(seq, pc, addr, val uint64) bool
	HasReservation(lineAddr, seq uint64) bool
	PrefetchExclusive(addr uint64)
	HoldsWritable(addr uint64) bool
	SLECommitStores(stores []core.SpecStore) bool

	// StateVersionWord is where the memory system keeps its state
	// version, which the core reads in place. The version changes
	// whenever a refusal — a LoadRetry, a refused StoreCommit or
	// SCExecute, HoldsWritable false — may be answered otherwise: a
	// line's state, the MSHR file or the store-buffer head was written
	// (core.Controller.setState has the contract). The core snapshots it
	// with its idle verdict and revalidates before trusting the verdict,
	// and keys each load's memoized counted refusal on it (readyRef).
	StateVersionWord() *uint64
	// RefusalStands reports whether a load of addr refused, counted,
	// under state version ver would be refused, counted, now; false when
	// it cannot tell (core.Controller.RefusalStands has the contract).
	RefusalStands(addr, ver uint64) bool

	// ReplayL1Hits applies L1-hit loads of addrs unanswered (steady.go).
	ReplayL1Hits(addrs []uint64)
	// ReplayRefusals applies loads counted load refusals and stores
	// refused StoreCommits unasked (the idle verdict, the retry memo).
	ReplayRefusals(loads, stores uint64)
	// Squashed tells the memory system that a squash killed every op
	// younger than after. From then on no callback names one of them:
	// LoadDone, LoadsVerified and SquashSpec name only seqs in the window
	// (an oracle core checks it, see SetOracle).
	Squashed(after uint64)
}

// The core's shape, fixed by the paper's Table 1: 8-wide, 6 stages,
// with 4 memory ports.
const (
	FetchWidth  = 8 // instructions fetched/dispatched per cycle
	IssueWidth  = 8 // instructions issued per cycle
	CommitWidth = 8 // instructions retired per cycle
	PipeDepth   = 6 // fetch-to-dispatch stages
	MemPorts    = 4 // loads/stores issued to memory per cycle
)

// Config sizes the window and selects SLE.
type Config struct {
	RUUSize int  // unified window capacity
	LSQSize int  // memory-op subwindow capacity
	SLE     bool // speculative lock elision
}

// DefaultConfig returns the paper's Table 1 window: 256-entry RUU,
// 128-entry LSQ.
func DefaultConfig() Config {
	return Config{RUUSize: 256, LSQSize: 128}
}

// entry is one RUU slot. A core's RUUSize entries rotate through
// entryPool; the fields are ordered widest first so the struct packs
// into the allocator's 112-byte class (TestLayout holds the size).
type entry struct {
	seq uint64
	ins *isa.Instr // into prog.Code (or isa's off-the-end halt): never written through

	// Operand tracking: two source slots whose meaning depends on
	// the op (base/value for stores, comparands for branches).
	src [2]uint64

	doneAt  uint64 // cycle the result becomes available
	result  uint64
	effAddr uint64

	// The wake-up chain. A producer holds its youngest waiter — entry
	// wake, whose source slot wakeSlot is unready for this result — and
	// each waiting source slot holds the chain's next link in
	// next/nextSlot. dispatchOne is the only place a link is made and it
	// runs in seq order, so a chain is strictly descending in (seq,
	// slot): the waiters a squash kills are a prefix, which squashAfter
	// pops off every surviving producer before the killed entries are
	// recycled. broadcast drains the chain; a done entry has none. The
	// oracle checks all of it (auditWakeChains).
	wake *entry
	next [2]*entry

	pc int32

	wakeSlot    int8
	nextSlot    [2]int8
	pendingSrcs int8  // count of not-yet-ready source operands
	dst         uint8 // architected register the result is written to; 0: none
	srcReady    [2]bool

	issued    bool // sent to a functional unit / memory
	done      bool // result available (broadcast happened)
	executing bool // between issue and doneAt

	// Classification, copied from the instruction at dispatch so the
	// per-cycle scheduler loops do not chase ins.
	isLoad    bool
	isStore   bool
	isBranch  bool
	needsAddr bool // store whose address is not yet resolved

	// Memory state.
	addrKnown bool
	memSent   bool // request handed to the memory system
	specVal   bool // LVP: value is speculative, retire blocked

	predTaken bool // branch: the direction fetch predicted
	scSent    bool

	// dead marks an entry returned to the pool (retired or squashed).
	// execQ holds seq-tagged references that a squash leaves stale, and
	// readyQ can hold one to an SC that has retired; dead plus a seq
	// mismatch is how they are detected lazily.
	dead bool

	// queued: this entry has been placed on the core's readyQ. Set at
	// most once per entry lifetime — once issued/done/dead an entry
	// can never become actionable again — so it doubles as the
	// enqueue-dedup guard (slot-0 and slot-1 wakeups may both fire).
	queued bool
}

// entryRef is a seq-tagged reference into the window, execQ's element.
// A squash leaves stale references behind; they are skipped when the
// slot is dead or was recycled under a new seq. Seqs strictly increase
// and are never reused, so the tag is unambiguous.
type entryRef struct {
	e   *entry
	seq uint64
}

// readyRef is readyQ's element: an entryRef that also carries a load's
// memoized counted refusal — the state version plus 1 at its last
// LoadRetry{Counted}, 0 when it has none. While the version stands the
// refusal stands, and issue makes its counter bumps without asking
// again or touching the entry: squashAfter cuts readyQ's tail and only
// a squash kills an unissued load, so a reference that carries a memo
// is a live, unissued load that scanned clear, by construction. A
// reference without one is checked like an entryRef (an SC stays queued
// until done, and may have retired since).
type readyRef struct {
	e             *entry
	seq, retryVer uint64
}

// fetchSlot is an instruction in the front-end pipeline: where it is
// (dispatch reads the instruction itself from the program), the branch
// direction predicted at fetch (targets are exact: the instruction
// encodes them), and when it reaches dispatch.
type fetchSlot struct {
	readyAt   uint64
	pc        int32
	predTaken bool
}

// cpuCounters holds the core's pre-resolved counter handles (see
// stats.Counter).
type cpuCounters struct {
	loads         stats.Counter
	stores        stats.Counter
	branchMispred stats.Counter
	squash        stats.Counter
	scIssued      stats.Counter
	lsqForward    stats.Counter
	loadSpec      stats.Counter
	lsqFull       stats.Counter
	lvpSquash     stats.Counter
	loadReplay    stats.Counter

	// l1Hit is the controller's handle (the counters object is shared
	// machine-wide): it tells the steady verdict an L1 hit.
	l1Hit stats.Counter
}

func resolveCPUCounters(cs *stats.Counters) cpuCounters {
	return cpuCounters{
		loads:         cs.Counter("cpu/loads"),
		stores:        cs.Counter("cpu/stores"),
		branchMispred: cs.Counter("cpu/branch_mispredict"),
		squash:        cs.Counter("cpu/squash"),
		scIssued:      cs.Counter("cpu/sc_issued"),
		lsqForward:    cs.Counter("cpu/lsq_forward"),
		loadSpec:      cs.Counter("cpu/load_spec"),
		lsqFull:       cs.Counter("cpu/lsq_full"),
		lvpSquash:     cs.Counter("cpu/lvp_squash"),
		loadReplay:    cs.Counter("cpu/load_replay"),
		l1Hit:         cs.Counter("l1/hit"),
	}
}

// Core is one simulated CPU.
type Core struct {
	cfg    Config
	id     int
	prog   *isa.Program
	memsys MemSystem
	ctrs   *stats.Counters
	cnt    cpuCounters
	tr     *trace.Tracer

	now     uint64
	nextSeq uint64

	regs    [isa.NumRegs]uint64 // committed architected state
	regProd [isa.NumRegs]*entry // latest in-flight producer per register

	ruu     []*entry // program order, oldest first
	ruuBuf  []*entry // backing storage: ruu slides forward as heads retire and is compacted back onto this buffer when the capacity is reached
	lsqUsed int

	// stq is the store queue: the window's stores in program order, what
	// a load disambiguates against. dispatchOne appends, retireHead pops
	// the head, squashAfter cuts the tail; it slides over stqBuf as ruu
	// does over ruuBuf.
	stq    []*entry
	stqBuf []*entry

	// entryPool holds the window entries not in flight: RUUSize of them
	// exist, fetch keeps len(fetchQ)+len(ruu) within that, and a retired
	// or squashed entry comes straight back, so dispatch always finds one.
	entryPool []*entry

	// Scheduler fast-path bookkeeping.
	numExecuting int // entries between issue and completion

	// execQ holds the executing entries sorted by seq, so complete
	// touches only in-flight work instead of walking the whole window.
	// readyQ holds the actionable unissued entries sorted by seq — the
	// issue loop's working set. An entry becomes actionable (and is
	// enqueued exactly once, see entry.queued) when its last operand
	// broadcast arrives, or, for a store, when its base register is
	// ready for address resolution; operand-blocked entries are never
	// visited. A squash cuts readyQ's tail (see readyRef) and leaves
	// execQ's stale references to be pruned lazily (see entryRef).
	execQ  []entryRef
	readyQ []readyRef

	fetchQ    []fetchSlot
	fetchBuf  []fetchSlot // backing storage for fetchQ, compacted like ruuBuf
	fetchPC   int
	fetchStop bool // halt fetched (or fetch redirected off the end)

	bpred *bpred

	// isync drain: dispatch stalls while a serializing instruction is
	// in flight (outside an SLE region).
	drainISync *entry

	// Last committed load-locked, for SLE idiom detection.
	lastLL struct {
		valid bool
		addr  uint64
		value uint64
	}

	sle *sleEngine

	halted  bool
	retired uint64

	// startAt gates the whole pipeline: the core performs no work
	// before this cycle (fetch, dispatch, everything). It is the
	// per-core start-offset schedule-perturbation knob the litmus
	// enumeration mode sweeps; 0 (the default) is the historical
	// behavior. The gate is fast-forward-exact: a pre-start tick moves
	// nothing, so its idle verdict wakes the core at startAt.
	startAt uint64

	// Machine-wide aggregation hooks (see AttachMachine): bumped at
	// the retirement event itself so the system's run loop never has
	// to re-scan every core per cycle.
	machRetired *uint64
	machHalted  *int

	// checker, when non-nil, re-executes every committed instruction
	// in order against the committed register file and latches the
	// first divergence there (the PHARMsim-vs-SimOS validation idea).
	checker *error

	// OnCommitDebug, when non-nil, observes every retired instruction in
	// program order, with its captured operands and result.
	OnCommitDebug func(seq uint64, pc int, ins isa.Instr, src0, src1, result uint64)

	// What the tick in progress has done so far: the stages that moved
	// something (set where the move happens) and the stall counters it
	// bumped (set where they are bumped).
	acted stages
	spin  coreSpin

	// The idle verdict. A tick that moved nothing leaves the core
	// exactly as it found it, so every later tick repeats it — bumps
	// idleSpin and nothing else — until something the pipeline reads
	// changes: a core.Client callback (each clears idle), the memory
	// system (its state version no longer equals idleMemVer), or the
	// clock reaching idleUntil, the earliest execution-done or
	// fetch-ready time in flight. While the verdict holds, Tick and SkipCycles
	// replay idleSpin instead of running the pipeline.
	idle       bool
	idleUntil  uint64
	idleMemVer uint64

	// memVer is where the memory system keeps its state version
	// (MemSystem.StateVersionWord), read in place.
	memVer *uint64

	// Sleep (see Doze): an asleep core is not ticked and owes the ticks
	// after the last it ran, which its idle verdict answers; wake replays
	// them in one step. clock is its loop's: the first cycle whose core
	// phase has not run, so the cycle a callback's wake replays up to;
	// bit is set in *awake while the core is awake. Nil: the core never
	// sleeps.
	asleep bool
	clock  *uint64
	awake  *uint64
	bit    uint64

	idleSpin coreSpin

	st steady // the steady verdict (steady.go)

	// audit, when non-nil, makes this core the oracle (see SetOracle).
	audit    *error
	replayed uint64 // ticks answered from the verdict
	memoized uint64 // load retries answered from readyRef.retryVer
	// Of the memos met with a port free after their version passed:
	// those RefusalStands answered, and all of them.
	logged, passed uint64

	// graves, on an oracle, is a ring of the last loads squashes killed
	// while the memory system held them, so that a callback naming one
	// can say which line it waited on (see bury).
	graves    []grave
	nextGrave int
}

// grave is a killed load's seq and line.
type grave struct{ seq, line uint64 }

// New builds a core running prog against the given memory system. id
// is used only for diagnostics.
func New(cfg Config, id int, prog *isa.Program, m MemSystem, counters *stats.Counters) *Core {
	if counters == nil {
		counters = stats.NewCounters()
	}
	c := &Core{
		cfg:      cfg,
		id:       id,
		prog:     prog,
		ctrs:     counters,
		cnt:      resolveCPUCounters(counters),
		ruuBuf:   make([]*entry, cfg.RUUSize),
		stqBuf:   make([]*entry, cfg.LSQSize),
		fetchBuf: make([]fetchSlot, cfg.RUUSize),
		bpred:    newBpred(1024),
	}
	c.ruu = c.ruuBuf[:0]
	c.stq = c.stqBuf[:0]
	c.fetchQ = c.fetchBuf[:0]
	// Preallocate the scheduler structures to their worst-case bounds
	// so the cycle loop never allocates: execQ holds at most the window
	// plus compaction slack in stale references, readyQ the window plus
	// the one SC that retired since the last walk, and every window
	// entry there will ever be is in the pool.
	c.execQ = make([]entryRef, 0, 2*cfg.RUUSize)
	c.readyQ = make([]readyRef, 0, cfg.RUUSize+1)
	c.entryPool = make([]*entry, cfg.RUUSize)
	for i := range c.entryPool {
		c.entryPool[i] = &entry{}
	}
	if cfg.SLE {
		c.sle = newSLEEngine(c, counters)
	}
	if m != nil {
		c.SetMemSystem(m)
	}
	return c
}

// SetMemSystem binds the memory system after construction. The core
// and its controller reference each other (the controller's client is
// the core), so one side must be bound late; New accepts a nil m for
// this purpose. It must be called before the first Tick.
func (c *Core) SetMemSystem(m MemSystem) { c.memsys, c.memVer = m, m.StateVersionWord() }

// EnableChecker turns on in-order commit checking: the first retired
// instruction whose result an in-order evaluation disagrees with is
// stored in *violation, unless an earlier finding stands, for the run
// loop to fail on (the same sink SetOracle takes).
func (c *Core) EnableChecker(violation *error) { c.checker = violation }

// SetStartCycle delays the core's first cycle of work: no fetch,
// dispatch, or execution happens before cycle at. Must be called
// before the first Tick. A deterministic schedule-perturbation knob
// (sim.Config.StartOffsets): shifting one core's start re-times every
// one of its memory accesses relative to its rivals without touching
// any latency parameter.
func (c *Core) SetStartCycle(at uint64) { c.startAt = at }

// SetOracle makes this core the slow twin the fast path is compared
// against (sim.Config.NoFastForward): every Tick runs the full
// pipeline, never the verdict's replay, and every ready load is
// disambiguated and put to the memory system, never answered from its
// retry memo. Each shortcut is audited: a tick the verdict called idle
// must move nothing and bump exactly the cached spin set; the store
// queue must hold exactly the window's stores and the wake-up chains
// exactly the window's unready source slots; a reference carrying a
// memo must be to a live unissued load that still scans clear and that
// the memory system refuses, counted, while the memo's version stands
// or RefusalStands says the refusal does, and no squash may run inside
// the issue walk. A controller callback must name a seq in the window
// (MemSystem.Squashed), where the fast path ignores one that is not.
// The first violation machine-wide is stored in *violation for the run
// loop to fail on. Must be called before the first Tick.
func (c *Core) SetOracle(violation *error) {
	c.audit = violation
	c.graves = make([]grave, c.cfg.LSQSize) // one squash kills at most this many loads
}

// violated latches the oracle's finding unless an earlier one stands.
func (c *Core) violated(format string, args ...any) {
	if *c.audit == nil {
		*c.audit = fmt.Errorf("cpu%d cycle %d: "+format, append([]any{c.id, c.now}, args...)...)
	}
}

// ReplayedTicks counts the cycles this core answered from its idle
// verdict instead of running the pipeline: ticks, and cycles it slept
// through or skipped (always 0 on an oracle).
func (c *Core) ReplayedTicks() uint64 { return c.replayed }

// MemoizedRetries counts the counted load retries this core answered
// from the load's retry memo instead of asking the memory system
// (always 0 on an oracle).
func (c *Core) MemoizedRetries() uint64 { return c.memoized }

// LoggedRetries counts, of the retry memos met with a memory port free
// after their version had passed, those answered from the memory
// system's log (RefusalStands) instead of asked again, and all of them
// (both 0 on an oracle). The answered ones are also MemoizedRetries.
func (c *Core) LoggedRetries() (answered, passed uint64) { return c.logged, c.passed }

// AttachMachine registers machine-wide aggregation targets: retired is
// incremented once per committed instruction and halted once when this
// core retires its Halt. A run loop keeps its progress watchdog and
// termination check O(1) per cycle by reading these aggregates instead
// of scanning every core (sim.System reads halted only). Either pointer
// may be nil.
func (c *Core) AttachMachine(retired *uint64, halted *int) {
	c.machRetired = retired
	c.machHalted = halted
}

// SetTracer attaches the event tracer (nil disables tracing).
func (c *Core) SetTracer(tr *trace.Tracer) { c.tr = tr }

// Halted reports whether the program has fully retired its halt.
func (c *Core) Halted() bool { return c.halted }

// Retired returns the number of committed instructions.
func (c *Core) Retired() uint64 { return c.retired }

// Cycles returns the core's cycle count.
func (c *Core) Cycles() uint64 { return c.now }

// Reg returns a committed architected register (tests, results).
func (c *Core) Reg(r int) uint64 { return c.regs[r] }

// ElidedLockValue reports the lock word and speculative (never
// performed) acquire value of the currently active SLE region. The
// coherence checker's retired-load oracle consults it: a region load
// of the elided lock legitimately observes the acquire value even
// though no store ever becomes globally visible.
func (c *Core) ElidedLockValue() (addr, val uint64, ok bool) {
	if c.sle == nil || !c.sle.active {
		return 0, 0, false
	}
	return c.sle.lockAddr, c.sle.specVal, true
}

// freeEntry returns a dead RUU entry to the pool for reuse by
// dispatchOne. Callers must have dropped every strong reference to it
// first (regProd, drainISync, stq, the SLE engine's region view, the
// wake-up chains of surviving producers); the lazy seq-tagged references
// in execQ and readyQ see the dead flag.
func (c *Core) freeEntry(e *entry) {
	e.dead = true
	c.entryPool = append(c.entryPool, e)
}

// entryBySeq resolves a sequence number to its window entry, or nil
// when the seq is not in flight. The window is sorted by seq but not
// contiguous — a squash kills a tail of seqs that are never reused,
// so a refetch resumes at a higher seq — hence binary search rather
// than head-relative indexing. Callbacks that need it (LoadDone,
// SCDone, LVP verification) fire per memory event, not per cycle.
func (c *Core) entryBySeq(seq uint64) *entry {
	lo, hi := 0, len(c.ruu)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.ruu[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.ruu) && c.ruu[lo].seq == seq {
		return c.ruu[lo]
	}
	return nil
}

// markExecuting moves an entry into the executing state and registers
// it with complete's queue, keeping execQ sorted by seq (insertion
// from the back: out-of-order wakeups such as a LoadDone for an old
// load land behind already-queued younger entries).
func (c *Core) markExecuting(e *entry) {
	e.executing = true
	c.numExecuting++
	q := append(c.execQ, entryRef{})
	i := len(q) - 1
	for i > 0 && q[i-1].seq > e.seq {
		q[i] = q[i-1]
		i--
	}
	q[i] = entryRef{e, e.seq}
	c.execQ = q
}

// enqueueReady registers an actionable unissued entry with the issue
// queue, keeping readyQ sorted by seq. Safe to call from a broadcast
// fired inside the issue walk (an elided SC waking its consumers):
// consumers are strictly younger than the broadcasting entry at the
// walk cursor, so the insertion lands beyond the cursor and is picked
// up by the same cycle's walk — exactly as the old full-window scan
// saw entries woken ahead of it.
func (c *Core) enqueueReady(e *entry) {
	if e.queued || e.issued || e.done || e.dead {
		return
	}
	e.queued = true
	q := append(c.readyQ, readyRef{})
	i := len(q) - 1
	for i > 0 && q[i-1].seq > e.seq {
		q[i] = q[i-1]
		i--
	}
	q[i] = readyRef{e: e, seq: e.seq}
	c.readyQ = q
}

// Tick advances the core one cycle. A sleeping core first replays the
// ticks it owes (Doze). While the idle or the steady verdict holds the
// pipeline is not run: the tick is known to repeat the one that
// established the verdict, so its effects are replayed in O(1).
// Otherwise the pipeline runs, and if no stage moved anything that tick
// becomes the idle verdict (the steady one: observeSteady). An oracle
// core (SetOracle) always runs the pipeline and checks it against a
// verdict that holds.
func (c *Core) Tick(now uint64) {
	if c.asleep {
		c.wake(now)
	}
	held := c.idle && c.idleUntil > now && *c.memVer == c.idleMemVer
	if held && c.audit == nil {
		c.wake(now + 1)
		return
	}
	c.now = now
	if c.st.on && *c.memVer != c.st.memVer {
		c.hear()
	} else if c.st.on && c.audit == nil {
		c.replaySteady()
		return
	}
	retired, seq, armed := c.retired, c.nextSeq, c.st.armed
	if armed {
		c.ctrs.Delta(nil)
	}
	c.st.armed, c.st.calls, c.st.cur.nhit, c.st.cur.hits = false, 0, 0, [MemPorts]uint64{}
	c.acted, c.spin = stages{}, coreSpin{}
	if !c.halted && now >= c.startAt {
		c.commit()
		c.complete()
		if c.audit != nil && !held {
			// A held verdict's tick moves nothing (checked below): the
			// chains are the ones audited last.
			c.auditWakeChains()
		}
		c.issue()
		c.dispatch()
		c.fetch()
	}
	c.idle = c.acted == stages{}
	if held && (!c.idle || c.spin != c.idleSpin) {
		c.violated("idle verdict (wake at %d) violated: moved %+v; spin set expected %+v, ticked %+v",
			c.idleUntil, c.acted, c.idleSpin, c.spin)
	}
	if c.idle {
		c.idleUntil = c.wakeAt()
		c.idleSpin = c.spin
		c.idleMemVer = *c.memVer
	}
	c.observeSteady(retired, seq, armed)
}

// stages names the pipeline stages that moved something in one tick.
type stages struct{ commit, complete, issue, dispatch, fetch bool }

// coreSpin counts the stall-counter bumps one tick made. A stalled
// machine is not silent: a dispatch blocked on the LSQ bumps lsq_full
// and a refused StoreCommit bumps store/buffer_full (each 0 or 1 per
// tick), and every ready load whose retry reaches the exhausted MSHR
// file bumps l1/miss, l2/miss and l2/mshr_full.
type coreSpin struct {
	lsqFull, storeBufFull, loadRetries uint64
}

// wakeAt is the horizon of the verdict the tick that just ran
// establishes: the earliest cycle the clock alone makes a stage move,
// or ^uint64(0) when only a callback or the memory system can.
func (c *Core) wakeAt() uint64 {
	const never = ^uint64(0)
	if c.halted {
		return never
	}
	if c.now < c.startAt {
		return c.startAt
	}
	next := never
	// complete just pruned execQ to the live in-flight entries, and a
	// tick that moved nothing added none since.
	for _, r := range c.execQ {
		if r.e.doneAt < next {
			next = r.e.doneAt
		}
	}
	// A fetch-queue head that is already ready is stalled (window or
	// LSQ full, isync drain) until commit moves, not until a time.
	if len(c.fetchQ) > 0 {
		if h := c.fetchQ[0].readyAt; h > c.now && h < next {
			next = h
		}
	}
	return next
}

// NextEvent returns the earliest future cycle at which Tick could do
// anything but repeat the idle verdict's counter bumps, ^uint64(0)
// when the core waits on an external callback, or now when no verdict
// holds: idleness is only ever observed, so a core that has not just
// ticked idle must be ticked to find out.
func (c *Core) NextEvent(now uint64) uint64 {
	if c.idle && *c.memVer == c.idleMemVer {
		return c.idleUntil
	}
	return now
}

// SkipCycles replays the side effects of ticking every cycle in
// [from, to) under the idle verdict (the caller has just seen
// NextEvent(from) >= to): the verdict's spin counters advance by the
// skipped cycle count, and the clock lands on to-1 — the value
// Tick(to-1) would have left, which controller callbacks firing during
// the next cycle's bus phase (LoadDone, SCDone) read before the core's
// next Tick. from is the cycle after the last tick, which the core knows.
func (c *Core) SkipCycles(from, to uint64) { c.wake(to) }

// SleepOn lets a loop put the core to sleep (Doze). clock is the loop's:
// the first cycle whose core phase has not run; bit is set in *awake
// while the core is awake, so the loop can pass over a sleeping core
// without reading it. Must be called before the first Tick, with bit
// set in *awake, and never on an oracle (SetOracle), which runs every
// tick.
func (c *Core) SleepOn(clock, awake *uint64, bit uint64) {
	c.clock, c.awake, c.bit = clock, awake, bit
}

// Doze puts the core to sleep if its idle verdict stands at now, the
// cycle after its last tick or later, and returns the cycle it must
// next be ticked at: the verdict's horizon, or now when no verdict
// stands (or the core may not sleep, see SleepOn). A loop ticks the
// core at now only if Doze returns now or earlier. A sleeping core
// wakes on a core.Client callback, and at the first Doze after its
// memory system's state version moves or the clock reaches the
// horizon; the loop must ask it every cycle either can have happened.
// A wake replays every tick slept through in one step, up to *clock or
// to the cycle a Tick runs.
func (c *Core) Doze(now uint64) uint64 {
	if c.clock == nil || !c.idle || *c.memVer != c.idleMemVer || c.idleUntil <= now {
		return now
	}
	if !c.asleep {
		c.asleep = true
		*c.awake &^= c.bit
	}
	return c.idleUntil
}

// Wake replays the ticks a sleeping core owes, through the cycle before
// its loop's clock, and leaves it awake: counters read between cycles
// are then exact. It does nothing to a core that is awake.
func (c *Core) Wake() {
	if c.asleep {
		c.wake(*c.clock)
	}
}

// wake answers the ticks (c.now, until) from the idle verdict in one
// step: held ticks, cycles slept through and skipped cycles alike.
func (c *Core) wake(until uint64) {
	k := until - c.now - 1
	c.replaySpin(c.idleSpin, k)
	c.replayed += k
	if c.asleep {
		*c.awake |= c.bit
	}
	c.now, c.asleep = until-1, false
}

// replaySpin applies k ticks' worth of the counter bumps in spin.
func (c *Core) replaySpin(spin coreSpin, k uint64) {
	c.cnt.lsqFull.Add(k * spin.lsqFull)
	c.memsys.ReplayRefusals(k*spin.loadRetries, k*spin.storeBufFull)
}

// ---------------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------------

func (c *Core) commit() {
	if c.sle != nil && c.sle.speculating() {
		// While an elision is live the commit pointer is frozen at
		// the region head; the engine decides when the whole region
		// commits atomically (or aborts). It rescans the region and
		// re-requests its write set every cycle, so a live region is
		// never idle.
		c.acted.commit = true
		c.sle.tick()
		return
	}
	for n := 0; n < CommitWidth && len(c.ruu) > 0; n++ {
		e := c.ruu[0]
		if !e.done || e.specVal {
			return
		}
		if e.ins.Op == isa.OpSt {
			// The store performs at retirement; a full store buffer
			// stalls commit.
			c.st.calls++
			if !c.memsys.StoreCommit(e.seq, uint64(e.pc), e.effAddr, e.src[1]) {
				c.spin.storeBufFull = 1 // the refusal counted itself
				return
			}
		}
		c.retireHead()
	}
}

// retireHead retires ruu[0] into architected state.
func (c *Core) retireHead() {
	c.acted.commit = true
	e := c.ruu[0]
	c.ruu = c.ruu[1:]
	if e.isStore {
		c.stq = c.stq[1:]
	}
	if e.executing {
		c.numExecuting--
	}
	if c.OnCommitDebug != nil {
		c.OnCommitDebug(e.seq, int(e.pc), *e.ins, e.src[0], e.src[1], e.result)
	}
	if e.isLoad || e.isStore {
		c.lsqUsed--
	}
	if c.checker != nil {
		c.checkCommit(e)
	}
	if rd := e.dst; rd != 0 {
		c.regs[rd] = e.result
		if c.regProd[rd] == e {
			c.regProd[rd] = nil
		}
	}
	if e.ins.Op == isa.OpLL {
		c.lastLL.valid = true
		c.lastLL.addr = e.effAddr
		c.lastLL.value = e.result
	}
	if c.drainISync == e {
		c.drainISync = nil
	}
	if e.ins.Op == isa.OpHalt {
		c.halted = true
		if c.machHalted != nil {
			*c.machHalted++
		}
	}
	if e.isLoad {
		c.cnt.loads.Inc()
	} else if e.isStore {
		c.cnt.stores.Inc()
	}
	c.retired++
	if c.machRetired != nil {
		*c.machRetired++
	}
	c.freeEntry(e)
}

// checkCommit re-evaluates the instruction in order on the committed
// registers, before it writes its own, and compares. Loads and SCs keep
// the out-of-order value (memory order is the bus's to define).
func (c *Core) checkCommit(e *entry) {
	ins := *e.ins
	if ins.IsMem() || ins.IsBranch() || ins.Op == isa.OpNop ||
		ins.Op == isa.OpISync || ins.Op == isa.OpHalt {
		return
	}
	want := isa.EvalALU(ins, c.regs[ins.Ra], c.regs[ins.Rb])
	if want != e.result && *c.checker == nil {
		*c.checker = fmt.Errorf("cpu%d cycle %d: in-order commit checker: pc %d (%s) retired %d, in order %d",
			c.id, c.now, e.pc, isa.Disassemble(int(e.pc), ins), e.result, want)
	}
}

// ---------------------------------------------------------------------------
// Complete / wakeup
// ---------------------------------------------------------------------------

func (c *Core) complete() {
	if c.numExecuting == 0 {
		// Only stale squash leftovers can remain queued; drop them so
		// the queue cannot grow without bound.
		if len(c.execQ) > 0 {
			c.execQ = c.execQ[:0]
		}
		return
	}
	// Walk the executing set in program (seq) order — the same order
	// the old full-window walk visited entries, which matters because
	// resolving a mispredicted branch squashes everything younger.
	// Entries killed by such a squash sit behind the branch in the
	// queue and are skipped by the dead check, exactly as the
	// truncated window hid them from the indexed walk.
	out := c.execQ[:0]
	for i := 0; i < len(c.execQ); i++ {
		r := c.execQ[i]
		e := r.e
		if e.dead || e.seq != r.seq || !e.executing {
			continue // stale reference from a squash
		}
		if e.doneAt > c.now {
			out = append(out, r)
			continue
		}
		c.acted.complete = true
		e.executing = false
		c.numExecuting--
		e.done = true
		c.broadcast(e)
		if e.isBranch {
			c.resolveBranch(e)
		}
	}
	c.execQ = out
}

// broadcast wakes the consumers chained on e at dispatch, youngest
// first. Wake order is immaterial: the per-slot effects are disjoint
// and enqueueReady's sorted insert canonicalizes the issue order.
func (c *Core) broadcast(e *entry) {
	w, i := e.wake, e.wakeSlot
	e.wake = nil
	for w != nil {
		nw, ni := w.next[i], w.nextSlot[i]
		w.next[i] = nil
		w.srcReady[i] = true
		w.src[i] = e.result
		w.pendingSrcs--
		if w.pendingSrcs == 0 || (i == 0 && w.needsAddr) {
			// Fully woken, or a store whose address can now
			// resolve: it becomes the issue walk's business.
			c.enqueueReady(w)
		}
		w, i = nw, ni
	}
}

func (c *Core) resolveBranch(e *entry) {
	taken := isa.BranchTaken(*e.ins, e.src[0], e.src[1])
	next := e.pc + 1
	if taken {
		next = e.ins.Target
	}
	c.bpred.update(int(e.pc), taken)
	if taken == e.predTaken {
		return
	}
	c.cnt.branchMispred.Inc()
	c.squashAfter(e.seq, int(next))
}

// ---------------------------------------------------------------------------
// Squash
// ---------------------------------------------------------------------------

// squashAfter kills every entry younger than seq and redirects fetch.
func (c *Core) squashAfter(seq uint64, newPC int) {
	keep := c.ruu[:0]
	c.regProd = [isa.NumRegs]*entry{} // renamed again from the survivors
	for _, e := range c.ruu {
		if e.seq <= seq {
			keep = append(keep, e)
			if e.dst != 0 {
				c.regProd[e.dst] = e
			}
			// The killed waiters are the head of this survivor's chain.
			for e.wake != nil && e.wake.seq > seq {
				e.wake, e.wakeSlot = e.wake.next[e.wakeSlot], e.wake.nextSlot[e.wakeSlot]
			}
		} else {
			if e.isLoad || e.isStore {
				c.lsqUsed--
			}
			if e.executing {
				c.numExecuting--
			}
			if c.drainISync == e {
				c.drainISync = nil
			}
		}
	}
	// Program order makes seq monotone over the window, so the killed
	// entries are exactly the tail past the survivors.
	killed := c.ruu[len(keep):]
	c.ruu = keep
	if len(killed) > 0 {
		c.st.calls++
		c.memsys.Squashed(seq)
		if c.audit != nil {
			c.bury(killed)
		}
	}
	// stq and readyQ are seq-sorted too: cut their killed tails.
	for n := len(c.stq); n > 0 && c.stq[n-1].seq > seq; n-- {
		c.stq = c.stq[:n-1]
	}
	for n := len(c.readyQ); n > 0 && c.readyQ[n-1].seq > seq; n-- {
		c.readyQ = c.readyQ[:n-1]
	}
	c.fetchQ = c.fetchQ[:0]
	c.fetchPC = newPC
	c.fetchStop = false
	if c.sle != nil {
		c.sle.onSquash(seq)
	}
	// Recycle the dead tail only after the SLE engine has observed the
	// squash (it may still read its frozen SC entry there). The slots
	// are left pointing at the pooled entries: callers snapshotting the
	// window across a squash may still walk them.
	for _, e := range killed {
		c.freeEntry(e)
	}
	c.cnt.squash.Inc()
}

// bury records, on an oracle, the killed loads the memory system still
// holds a waiter for: sent and not yet done, or delivered a speculative
// value not yet verified.
func (c *Core) bury(killed []*entry) {
	for _, e := range killed {
		if e.isLoad && (e.memSent || e.specVal) {
			c.graves[c.nextGrave] = grave{e.seq, mem.LineAddr(e.effAddr)}
			c.nextGrave = (c.nextGrave + 1) % len(c.graves)
		}
	}
}

// namedSquashed is the oracle's finding that a controller callback named
// a seq that is not in the window: a waiter outlived the squash that
// killed its load.
func (c *Core) namedSquashed(seq uint64) {
	for _, g := range c.graves {
		if g.seq == seq && seq != 0 {
			c.violated("controller named squashed seq %d (line %#x)", seq, g.line)
			return
		}
	}
	c.violated("controller named squashed seq %d (line unknown)", seq)
}

// SquashFromSeq kills the entry with the given seq and everything
// younger, re-fetching from that instruction (LVP misprediction
// recovery).
func (c *Core) squashFromSeq(seq uint64) {
	e := c.entryBySeq(seq)
	if e == nil {
		return
	}
	c.squashAfter(seq-1, int(e.pc))
}

// ---------------------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------------------

func (c *Core) issue() {
	if c.audit != nil {
		c.auditStoreQueue()
	}
	issued, memIssued, window := 0, 0, len(c.ruu)
	// refused counts the loads refused again from their memo.
	var refused uint64
	// Walk the actionable entries in program order, compacting
	// in place with a write cursor. The queue can grow mid-walk (an
	// elided SC's broadcast enqueues consumers, always beyond the read
	// cursor), so the loop re-reads the slice each iteration rather
	// than snapshotting it.
	w := 0
	for i := 0; i < len(c.readyQ); i++ {
		if issued >= IssueWidth {
			// Width exhausted: like the old walk's early return, no
			// further store address may resolve this cycle.
			w += copy(c.readyQ[w:], c.readyQ[i:])
			break
		}
		r := c.readyQ[i]
		if r.retryVer != 0 && c.audit == nil {
			ver := *c.memVer + 1
			stands := r.retryVer == ver
			if !stands && memIssued < MemPorts {
				// Passed: the memory system's log may still vouch for the
				// refusal, which then counts as the call it replaces and
				// is memoized under the version it would have got.
				c.passed++
				if c.memsys.RefusalStands(r.e.effAddr, r.retryVer-1) {
					stands, r.retryVer = true, ver
					c.logged++
					c.st.calls++
				}
			}
			if stands {
				// The refusal stands (see readyRef): the load takes its
				// turn at the port limit and is refused again, unasked.
				if memIssued < MemPorts {
					refused++
				}
				c.readyQ[w] = r
				w++
				continue
			}
		}
		e := r.e
		if e.dead || e.seq != r.seq || e.issued || e.done {
			// Issued, completed or retired since (an SC): memo-less
			// references are pruned lazily.
			if r.retryVer != 0 && c.audit != nil {
				c.violated("ready reference violated: seq %d addr %#x carries retry memo %d, its entry has seq %d dead=%v issued=%v done=%v",
					r.seq, e.effAddr, r.retryVer-1, e.seq, e.dead, e.issued, e.done)
			}
			continue
		}
		// Store addresses resolve as soon as the base register is
		// ready, independent of the data operand — real LSQs compute
		// them separately, and the SLE release scan and load
		// disambiguation both depend on early address resolution.
		if e.needsAddr && e.srcReady[0] {
			c.acted.issue = true
			e.effAddr = isa.EffAddr(*e.ins, e.src[0])
			e.addrKnown = true
			e.needsAddr = false
			if c.sle != nil && e.ins.Op == isa.OpSt {
				c.sle.onStoreResolved(e)
			}
		}
		keep := true
		if e.pendingSrcs != 0 {
			// Resolved-address store awaiting its data broadcast.
		} else {
			switch {
			case e.isLoad:
				if memIssued < MemPorts {
					var ok bool
					ok, r.retryVer = c.issueLoad(e, r.retryVer)
					if ok {
						c.acted.issue = true
						issued++
						memIssued++
						keep = false
					}
				}
			case e.ins.Op == isa.OpSt:
				// Stores "execute" once address and data are known; the
				// write happens at retirement.
				c.acted.issue = true
				e.issued = true
				e.done = true
				e.result = 0
				issued++
				keep = false
			case e.ins.Op == isa.OpSC:
				// SC executes only at the head of the window (a
				// serialization the real stwcx. shares). It stays queued
				// until its completion or elision marks it done.
				if len(c.ruu) > 0 && e == c.ruu[0] && !e.scSent {
					c.issueSC(e)
				}
				keep = !e.done
			case e.isBranch || e.ins.Op == isa.OpNop || e.ins.Op == isa.OpISync || e.ins.Op == isa.OpHalt:
				c.acted.issue = true
				e.issued = true
				e.doneAt = c.now + uint64(e.ins.BaseLatency())
				c.markExecuting(e)
				issued++
				keep = false
			default: // ALU
				c.acted.issue = true
				e.issued = true
				e.doneAt = c.now + uint64(e.ins.BaseLatency())
				e.result = isa.EvalALU(*e.ins, e.src[0], e.src[1])
				c.markExecuting(e)
				issued++
				keep = false
			}
		}
		if keep {
			c.readyQ[w] = r
			w++
		}
	}
	c.readyQ = c.readyQ[:w]
	if refused > 0 {
		c.memsys.ReplayRefusals(refused, 0)
		c.spin.loadRetries += refused
		c.memoized += refused
	}
	// The write cursor assumes nothing cut the queue under it: Load and
	// SCExecute answer without a squashing callback.
	if c.audit != nil && len(c.ruu) != window {
		c.violated("ready reference violated: a squash inside the issue walk cut the window from %d to %d entries", window, len(c.ruu))
	}
}

// issueSC starts a store-conditional at the window head: either the
// SLE engine elides it, or it goes to the memory system.
func (c *Core) issueSC(e *entry) {
	// Even an attempt that ends in a refused SCExecute has consulted
	// the elision engine, which counts and trains on every ask.
	c.acted.issue = true
	if c.sle != nil && c.sle.tryStart(e) {
		return // elided: engine completed the SC
	}
	// Mark before the call: a memory system is allowed to answer
	// SCDone synchronously.
	e.scSent = true
	c.st.calls++
	if c.memsys.SCExecute(e.seq, uint64(e.pc), e.effAddr, e.src[1]) {
		c.cnt.scIssued.Inc()
	} else {
		e.scSent = false // store buffer full; retry next cycle
	}
}

// olderStoreScan performs conservative LSQ disambiguation for a load
// whose address is known, against the store queue: it reports whether
// the load must stall (an unresolved older store address, an unresolved
// older SC, or a matching store whose data operand is not ready) and
// otherwise the youngest older store to the same word to forward from
// (nil: go to memory). Failed SCs are transparent (they wrote nothing).
func (c *Core) olderStoreScan(e *entry) (stall bool, fwd *entry) {
	for _, s := range c.stq {
		if s.seq >= e.seq {
			break
		}
		if !s.addrKnown {
			return true, nil // unresolved older store address: stall
		}
		if s.effAddr != e.effAddr {
			continue
		}
		if s.ins.Op == isa.OpSC {
			if !s.done {
				return true, nil
			}
			if s.result == 0 {
				continue // failed SC: transparent
			}
		}
		fwd = s // youngest match so far wins
	}
	if fwd != nil && !fwd.srcReady[1] {
		return true, nil // matching store, data not ready
	}
	return false, fwd
}

// auditStoreQueue is the oracle's check of the store queue, made before
// anything scans it: it must hold exactly the window's stores, in
// order, so that a scan of it answers what a walk of the whole window
// would.
func (c *Core) auditStoreQueue() {
	q, bad, how := c.stq, (*entry)(nil), ""
	for _, e := range c.ruu {
		if !e.isStore {
			continue
		}
		if len(q) == 0 || q[0] != e {
			bad, how = e, "is in the window and not next in the queue"
			break
		}
		q = q[1:]
	}
	if bad == nil && len(q) > 0 {
		bad, how = q[0], "is queued and not in the window"
	}
	if bad != nil {
		c.violated("store queue violated: seq %d addr %#x %s (%d window entries, %d queued)",
			bad.seq, bad.effAddr, how, len(c.ruu), len(c.stq))
	}
}

// auditWakeChains is the oracle's check of the wake-up chains (see
// entry.wake) against a rename of the window made from scratch, youngest
// entry first: the unready source slots met since the last writer of a
// register are, in the order met, exactly the chain of the next writer
// down — which therefore descends strictly in (seq, slot), reaches
// every waiting slot once and nothing else (no ready slot, no entry
// that left the window or was recycled under a new seq), and is empty
// on an entry that is done or writes no register.
func (c *Core) auditWakeChains() {
	type link struct {
		e    *entry
		slot int8
	}
	after := func(l link) link { return link{l.e.next[l.slot], l.e.nextSlot[l.slot]} }
	seq := func(e *entry) uint64 { // 0: no entry
		if e == nil {
			return 0
		}
		return e.seq
	}
	// Per register, of the waiters met since its last writer: the
	// youngest, the link after the oldest, and whether any was not the
	// link after the one before.
	var first, expect [isa.NumRegs]link
	var broken [isa.NumRegs]bool
	for k := len(c.ruu) - 1; k >= 0; k-- {
		e := c.ruu[k]
		want, intact := link{}, true
		if rd := e.dst; rd != 0 {
			want, intact = first[rd], !broken[rd] && expect[rd].e == nil
			first[rd], expect[rd], broken[rd] = link{}, link{}, false
		}
		if !intact || e.wake != want.e || want.e != nil && (e.wakeSlot != want.slot || e.done) {
			c.violated("wake chain of seq %d (done=%v) violated: it starts at seq %d slot %d; the youngest slot waiting on r%d is seq %d slot %d (seq 0: none), chained in order down to the oldest and no further: %v",
				e.seq, e.done, seq(e.wake), e.wakeSlot, e.dst, seq(want.e), want.slot, intact)
			return
		}
		if e.pendingSrcs == 0 {
			continue
		}
		s0, s1, n := e.ins.SrcRegs()
		for i := int8(n) - 1; i >= 0; i-- {
			if e.srcReady[i] {
				continue
			}
			r, w := [2]uint8{s0, s1}[i], link{e, i}
			if first[r].e == nil {
				first[r] = w
			} else if expect[r] != w {
				broken[r] = true
			}
			expect[r] = after(w)
		}
	}
	for r, w := range first {
		if w.e != nil {
			c.violated("wake chain of seq %d slot %d missing: it waits on r%d, which no older entry in the window writes", w.e.seq, w.slot, r)
			return
		}
	}
}

// issueLoad tries to issue one load whose readyQ reference carries
// retryVer; ok reports that it consumed a port, refusedAt is the memo
// the reference carries from here on. Conservative LSQ disambiguation:
// the load waits for all older store addresses, forwards from an exact
// match, and otherwise goes to memory.
func (c *Core) issueLoad(e *entry, retryVer uint64) (ok bool, refusedAt uint64) {
	if !e.addrKnown {
		c.acted.issue = true // the address resolves even if the load then stalls
		e.effAddr = isa.EffAddr(*e.ins, e.src[0])
		e.addrKnown = true
	}
	// A memo'd load scanned clear to get its refusal, and a clear scan is
	// permanent (DESIGN.md §7): only an oracle scans it again.
	if retryVer == 0 || c.audit != nil {
		stall, fwd := c.olderStoreScan(e)
		if retryVer != 0 && (stall || fwd != nil) {
			c.violated("retry memo (version %d) violated: seq %d addr %#x now answers stall=%v forward=%v", retryVer-1, e.seq, e.effAddr, stall, fwd != nil)
		}
		if stall {
			return false, 0
		}
		if fwd != nil {
			e.issued = true
			e.doneAt = c.now + 1
			e.result = fwd.src[1]
			c.markExecuting(e)
			c.cnt.lsqForward.Inc()
			if c.sle != nil {
				c.sle.onLoadIssued(e)
			}
			return true, 0
		}
	}
	// A counted refusal (L1 miss, L2 miss, MSHR file full) stands until
	// the memory system's version moves: only this node's own grants
	// and completions free an MSHR or fill a line, a snooped validate
	// restoring permission bumps the version too, and no store that can
	// still retire ahead of a load that scanned clear writes its word.
	ver := *c.memVer + 1 // never 0, a reference without a memo
	// An oracle asks the log of every passed memo too, and Load after it.
	logged := c.audit != nil && retryVer != 0 && retryVer != ver && c.memsys.RefusalStands(e.effAddr, retryVer-1)
	r := c.memsys.Load(e.seq, e.effAddr, e.ins.Op == isa.OpLL)
	c.st.calls++
	if c.audit != nil && (retryVer == ver || logged) && r != (core.LoadResult{Status: core.LoadRetry, Counted: true}) {
		how := ""
		if logged {
			how = ", which the log said stands"
		}
		c.violated("retry memo (version %d) violated: seq %d addr %#x answered %+v%s", retryVer-1, e.seq, e.effAddr, r, how)
	}
	switch r.Status {
	case core.LoadRetry:
		if r.Counted {
			c.spin.loadRetries++
			return false, ver
		}
		return false, 0
	case core.LoadHit:
		e.issued = true
		e.doneAt = c.now + uint64(r.Lat)
		e.result = r.Value
		c.markExecuting(e)
		if e.ins.Op != isa.OpLL { // a port each: at most MemPorts a tick
			c.st.cur.hits[c.st.cur.nhit] = e.effAddr
			c.st.cur.nhit++
		}
	case core.LoadSpec:
		e.issued = true
		e.doneAt = c.now + uint64(r.Lat)
		e.result = r.Value
		e.specVal = true
		c.markExecuting(e)
		c.cnt.loadSpec.Inc()
	case core.LoadMiss:
		e.issued = true
		e.memSent = true
		// Completion arrives via LoadDone.
	}
	if c.sle != nil {
		c.sle.onLoadIssued(e)
	}
	return true, 0
}

// ---------------------------------------------------------------------------
// Dispatch / fetch
// ---------------------------------------------------------------------------

func (c *Core) dispatch() {
	for n := 0; n < FetchWidth; n++ {
		if len(c.fetchQ) == 0 || c.fetchQ[0].readyAt > c.now {
			return
		}
		slot := &c.fetchQ[0]
		ins := c.prog.At(int(slot.pc))
		if ins.IsMem() && c.lsqUsed >= c.cfg.LSQSize {
			c.cnt.lsqFull.Inc()
			c.spin.lsqFull = 1
			return
		}
		// A serializing isync blocks younger dispatch until it
		// commits — unless the SLE engine is speculating through it
		// (§4.2.2's safety-check mechanism): a *safe* isync inside
		// the elision region does not drain. (An unsafe one aborts
		// the region at tryStart or dispatch time.)
		if c.drainISync != nil {
			speculatingThrough := c.sle != nil && c.sle.speculating() &&
				c.drainISync.seq > c.sle.scEntry.seq && !c.drainISync.ins.Unsafe
			if !speculatingThrough {
				return
			}
		}
		// Popped first: dispatchOne can squash (an unsafe isync entering
		// an elision region), which empties fetchQ. Nothing writes the
		// slot's storage before fetch runs.
		c.fetchQ = c.fetchQ[1:]
		c.dispatchOne(slot, ins)
	}
}

// renameSrc fills source slot i of the entry being dispatched from
// architected register r: its committed value, the result of its
// in-flight producer, or a place on that producer's wake-up chain.
// Register 0 never has a producer and its committed value stays 0.
func (c *Core) renameSrc(e *entry, i int8, r uint8) {
	switch p := c.regProd[r]; {
	case p == nil:
		e.src[i], e.srcReady[i] = c.regs[r], true
	case p.done:
		e.src[i], e.srcReady[i] = p.result, true
	default:
		// e becomes the head of p's chain.
		e.next[i], e.nextSlot[i] = p.wake, p.wakeSlot
		p.wake, p.wakeSlot = e, i
		e.pendingSrcs++
	}
}

// dispatchOne renames ins, fetched as slot, into a window entry.
func (c *Core) dispatchOne(slot *fetchSlot, ins *isa.Instr) {
	c.acted.dispatch = true
	c.nextSeq++
	n := len(c.entryPool) - 1
	e := c.entryPool[n]
	c.entryPool = c.entryPool[:n]
	*e = entry{}
	e.seq, e.ins, e.pc = c.nextSeq, ins, slot.pc
	e.predTaken = slot.predTaken
	e.isLoad, e.isStore, e.isBranch = ins.IsLoad(), ins.IsStore(), ins.IsBranch()
	e.needsAddr = e.isStore
	s0, s1, nsrc := ins.SrcRegs()
	if nsrc > 0 {
		c.renameSrc(e, 0, s0)
	}
	if nsrc > 1 {
		c.renameSrc(e, 1, s1)
	}
	if e.isStore {
		if len(c.stq) == cap(c.stq) {
			c.stq = c.stqBuf[:copy(c.stqBuf, c.stq)] // slid off the end: see ruu below
		}
		c.stq = append(c.stq, e)
	}
	if e.dst, _ = ins.WritesReg(); e.dst != 0 {
		c.regProd[e.dst] = e
	}
	if e.isLoad || e.isStore {
		c.lsqUsed++
	}
	if ins.Op == isa.OpISync {
		inSLE := c.sle != nil && c.sle.speculating()
		if inSLE {
			if ins.Unsafe {
				c.sle.onUnsafeISync()
			}
			// Safe isync inside an elision region does not drain.
		} else {
			c.drainISync = e
		}
	}
	if len(c.ruu) == cap(c.ruu) {
		// The window slid forward off the front of ruuBuf as heads
		// retired; slide it back to the start. fetch keeps
		// len(fetchQ)+len(ruu) <= RUUSize, so the slots fetchQ holds
		// (a pipeline's worth when dispatch flows) are dispatched before
		// the next slide.
		n := copy(c.ruuBuf, c.ruu)
		c.ruu = c.ruuBuf[:n]
	}
	c.ruu = append(c.ruu, e)
	if e.pendingSrcs == 0 || (e.needsAddr && e.srcReady[0]) {
		c.enqueueReady(e) // actionable at dispatch; seq-order append
	}
}

func (c *Core) fetch() {
	for n := 0; n < FetchWidth; n++ {
		if c.fetchStop {
			return
		}
		if len(c.fetchQ)+len(c.ruu) >= c.cfg.RUUSize {
			return
		}
		ins := c.prog.At(c.fetchPC)
		slot := fetchSlot{pc: int32(c.fetchPC), readyAt: c.now + PipeDepth}
		next := c.fetchPC + 1
		if ins.IsBranch() {
			slot.predTaken = c.bpred.predict(c.fetchPC, ins.Op)
			if slot.predTaken {
				next = int(ins.Target)
			}
		}
		if ins.Op == isa.OpHalt {
			c.fetchStop = true
		}
		if len(c.fetchQ) == cap(c.fetchQ) {
			// Compact the queue back onto its backing buffer (it slid
			// forward as dispatch consumed the front).
			n := copy(c.fetchBuf, c.fetchQ)
			c.fetchQ = c.fetchBuf[:n]
		}
		c.acted.fetch = true
		c.fetchQ = append(c.fetchQ, slot)
		c.fetchPC = next
	}
}

// ---------------------------------------------------------------------------
// core.Client implementation (controller callbacks)
// ---------------------------------------------------------------------------

// LoadDone implements core.Client.
func (c *Core) LoadDone(seq uint64, value uint64) {
	c.hear()
	e := c.entryBySeq(seq)
	if e == nil && c.audit != nil {
		c.namedSquashed(seq)
	}
	if e == nil || !e.memSent || e.done {
		return // squashed or stale
	}
	e.result = value
	e.doneAt = c.now
	e.memSent = false
	c.markExecuting(e)
}

// LoadsVerified implements core.Client: LVP predictions confirmed;
// the loads may now retire.
func (c *Core) LoadsVerified(seqs []uint64) {
	c.hear()
	for _, s := range seqs {
		if e := c.entryBySeq(s); e != nil {
			e.specVal = false
		} else if c.audit != nil {
			c.namedSquashed(s)
		}
	}
}

// SquashSpec implements core.Client (LVP value misprediction): squash
// from the oldest of the named ops that is still in flight. Ops
// already killed by earlier squashes were re-fetched clean and their
// replacements carry no speculative value from the failed line, so a
// fully dead list is a no-op (a controller that honours Squashed names
// no dead op at all).
func (c *Core) SquashSpec(seqs []uint64) {
	c.hear()
	var oldest uint64
	found := false
	for _, s := range seqs {
		live := c.entryBySeq(s) != nil
		if !live && c.audit != nil {
			c.namedSquashed(s)
		}
		if live && (!found || s < oldest) {
			oldest = s
			found = true
		}
	}
	if !found {
		return
	}
	c.cnt.lvpSquash.Inc()
	c.squashFromSeq(oldest)
}

// SCDone implements core.Client.
func (c *Core) SCDone(seq uint64, success bool) {
	c.hear()
	e := c.entryBySeq(seq)
	if e == nil || !e.scSent {
		return
	}
	e.doneAt = c.now
	if success {
		e.result = 1
	} else {
		e.result = 0
	}
	c.markExecuting(e)
}

// ExternalSnoop implements core.Client: routed to the SLE engine for
// atomicity-violation detection, and implements the MIPS R10K-style
// speculative-load replay that the machine's sequential-consistency
// model requires (Table 1, [35]/[13]): a snooped invalidation hitting
// a line read by a not-yet-retired load squashes that load and
// everything younger, forcing it to re-execute and observe the write.
func (c *Core) ExternalSnoop(lineAddr uint64, isWrite bool) {
	c.hear()
	if c.sle != nil {
		c.sle.onSnoop(lineAddr, isWrite)
	}
	if !isWrite {
		return
	}
	for _, e := range c.ruu {
		if !e.isLoad || !e.addrKnown || mem.LineAddr(e.effAddr) != lineAddr {
			continue
		}
		if e.done || e.executing || e.memSent {
			c.cnt.loadReplay.Inc()
			c.squashFromSeq(e.seq)
			return
		}
	}
}

// windowAfter returns the RUU entries at and after the given seq
// (oldest first) — the SLE engine's view of its region.
func (c *Core) windowAfter(seq uint64) []*entry {
	for i, e := range c.ruu {
		if e.seq >= seq {
			return c.ruu[i:]
		}
	}
	return nil
}

var _ core.Client = (*Core)(nil)

// DebugState renders the core's window for deadlock diagnostics.
func (c *Core) DebugState() string {
	c.Wake()
	c.catchUp()
	memos := 0
	for _, r := range c.readyQ {
		if r.retryVer != 0 {
			memos++
		}
	}
	out := fmt.Sprintf("cpu%d halted=%v retired=%d fetchPC=%d fetchQ=%d drain=%v ruu=%d lsq=%d stq=%d readyQ=%d (%d with a retry memo) steady=%v (last formed at cycle %d, Δseq %d, %d cycles ago)\n",
		c.id, c.halted, c.retired, c.fetchPC, len(c.fetchQ), c.drainISync != nil, len(c.ruu), c.lsqUsed, len(c.stq), len(c.readyQ), memos,
		c.st.on, c.st.since, c.st.dseq, c.now-c.st.since)
	if c.sle != nil {
		out += fmt.Sprintf("  sle active=%v", c.sle.active)
		if c.sle.active {
			out += fmt.Sprintf(" lock=%#x orig=%d", c.sle.lockAddr, c.sle.origVal)
		}
		out += "\n"
	}
	for i, e := range c.ruu {
		if i >= 12 {
			out += "  ...\n"
			break
		}
		out += fmt.Sprintf("  [%d] seq=%d pc=%d %s done=%v issued=%v memSent=%v scSent=%v spec=%v addr=%#x ready=%v,%v\n",
			i, e.seq, e.pc, isa.Disassemble(int(e.pc), *e.ins), e.done, e.issued, e.memSent, e.scSent,
			e.specVal, e.effAddr, e.srcReady[0], e.srcReady[1])
	}
	return out
}
