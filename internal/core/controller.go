package core

import (
	"fmt"

	"tssim/internal/bus"
	"tssim/internal/cache"
	"tssim/internal/mem"
	"tssim/internal/predictor"
	"tssim/internal/stale"
	"tssim/internal/stats"
	"tssim/internal/trace"
)

// storeEntry is one retired store waiting in the post-retirement store
// buffer for permission to perform.
type storeEntry struct {
	seq     uint64
	pc      uint64
	addr    uint64 // word-aligned
	val     uint64
	isSC    bool
	waiting bool // a bus transaction for permission is outstanding
}

// wbEntry is one evicted dirty line awaiting its writeback grant.
type wbEntry struct {
	data    mem.Line // what snoops are supplied
	pending int      // writebacks in flight: a line can be evicted twice
}

// ctrlCounters holds the controller's pre-resolved counter handles,
// interned once at construction so steady-state events are single
// pointer bumps (see stats.Counter).
type ctrlCounters struct {
	l1StoreForward      stats.Counter
	l1Hit               stats.Counter
	l1Miss              stats.Counter
	l2Hit               stats.Counter
	l2Miss              stats.Counter
	l2MSHRFull          stats.Counter
	l2MSHROrphanFill    stats.Counter
	l2LLExclusiveFetch  stats.Counter
	l2EvictDirty        stats.Counter
	l2EvictClean        stats.Counter
	lvpSpecDeliver      stats.Counter
	lvpVerifyFail       stats.Counter
	lvpVerifyOK         stats.Counter
	storeBufferFull     stats.Counter
	storeSCFail         stats.Counter
	storeSCSuccess      stats.Counter
	storeUSDetected     stats.Counter
	storeUSSquash       stats.Counter
	storePerformed      stats.Counter
	storePerformAtGrant stats.Counter
	missComm            stats.Counter
	missMem             stats.Counter
	cohUpgradeConverted stats.Counter
	cohUpgradeStolen    stats.Counter
	cohWBBufferSupply   stats.Counter
	mestiTSDetect       stats.Counter
	mestiValRequested   stats.Counter
	mestiValSuppressed  stats.Counter
	mestiValCancelled   stats.Counter
	mestiValMismatch    stats.Counter
	mestiRevalidate     stats.Counter
	mestiEnterT         stats.Counter
	mestiTReinvalidated stats.Counter
	emestiVSUse         stats.Counter
	emestiVSSilentSnoop stats.Counter
	slePrefetchUpgrade  stats.Counter
	slePrefetchReadX    stats.Counter
	sleStoreCommitted   stats.Counter
}

func resolveCtrlCounters(cs *stats.Counters) ctrlCounters {
	return ctrlCounters{
		l1StoreForward:      cs.Counter("l1/store_forward"),
		l1Hit:               cs.Counter("l1/hit"),
		l1Miss:              cs.Counter("l1/miss"),
		l2Hit:               cs.Counter("l2/hit"),
		l2Miss:              cs.Counter("l2/miss"),
		l2MSHRFull:          cs.Counter("l2/mshr_full"),
		l2MSHROrphanFill:    cs.Counter("l2/mshr_orphan_fill"),
		l2LLExclusiveFetch:  cs.Counter("l2/ll_exclusive_fetch"),
		l2EvictDirty:        cs.Counter("l2/evict_dirty"),
		l2EvictClean:        cs.Counter("l2/evict_clean"),
		lvpSpecDeliver:      cs.Counter("lvp/spec_deliver"),
		lvpVerifyFail:       cs.Counter("lvp/verify_fail"),
		lvpVerifyOK:         cs.Counter("lvp/verify_ok"),
		storeBufferFull:     cs.Counter("store/buffer_full"),
		storeSCFail:         cs.Counter("store/sc_fail"),
		storeSCSuccess:      cs.Counter("store/sc_success"),
		storeUSDetected:     cs.Counter("store/us_detected"),
		storeUSSquash:       cs.Counter("store/us_squash"),
		storePerformed:      cs.Counter("store/performed"),
		storePerformAtGrant: cs.Counter("store/perform_at_grant"),
		missComm:            cs.Counter("miss/comm"),
		missMem:             cs.Counter("miss/mem"),
		cohUpgradeConverted: cs.Counter("coherence/upgrade_converted"),
		cohUpgradeStolen:    cs.Counter("coherence/upgrade_stolen_refetch"),
		cohWBBufferSupply:   cs.Counter("coherence/wb_buffer_supply"),
		mestiTSDetect:       cs.Counter("mesti/ts_detect"),
		mestiValRequested:   cs.Counter("mesti/validate_requested"),
		mestiValSuppressed:  cs.Counter("mesti/validate_suppressed"),
		mestiValCancelled:   cs.Counter("mesti/validate_cancelled"),
		mestiValMismatch:    cs.Counter("mesti/validate_mismatch"),
		mestiRevalidate:     cs.Counter("mesti/revalidate"),
		mestiEnterT:         cs.Counter("mesti/enter_t"),
		mestiTReinvalidated: cs.Counter("mesti/t_reinvalidated"),
		emestiVSUse:         cs.Counter("emesti/vs_use"),
		emestiVSSilentSnoop: cs.Counter("emesti/vs_silent_snoop"),
		slePrefetchUpgrade:  cs.Counter("sle/prefetch_upgrade"),
		slePrefetchReadX:    cs.Counter("sle/prefetch_readx"),
		sleStoreCommitted:   cs.Counter("sle/store_committed"),
	}
}

// Controller is one node's cache and coherence controller.
type Controller struct {
	cfg    Config
	tech   Techniques // as run (Effective)
	id     int
	bus    *bus.Bus
	client Client
	cnt    ctrlCounters
	tr     *trace.Tracer
	sink   CheckSink // coherence checker's store-visibility tap (nil when off)
	now    uint64    // last ticked cycle (latency accounting)

	// Scratch slices reused across serveMSHR calls (the client does
	// not retain them).
	scratchSpec     []uint64
	scratchVerified []uint64

	// Occupancy and reuse-distance histograms, shared via counters.
	hOccMSHR *stats.Hist
	hOccSB   *stats.Hist
	hVreuse  *stats.Hist

	// Countdown to the next occupancy observation (occSampleEvery).
	occCountdown uint64

	l1    *cache.Cache // presence only; data lives in the L2
	l2    *cache.Cache
	mshrs *cache.MSHRFile

	detector stale.Detector               // temporal-silence candidates (MESTI)
	vpred    *predictor.ValidatePredictor // useful-validate predictor (E-MESTI)

	storeBuf []storeEntry

	// LL/SC reservation: the line, and the seq of the load-locked that
	// armed it (0 = none).
	resAddr uint64
	resSeq  uint64

	// wb is the writeback buffer, which still supplies snoops: an entry
	// exists exactly while writebacks of its line are in flight.
	wb map[uint64]wbEntry

	stateVer uint64 // see setState

	// moved is the seam's log: moved[v%movedSlots] is the line the move
	// to version v touched (noLine for a free or a pop), for the last
	// movedSlots versions (see RefusalStands).
	moved [movedSlots]uint64

	// idle is the idle verdict: the last Tick moved nothing (see
	// tickStore) and nothing has called in since, so the next would
	// repeat it. Whatever can change what tickStore reads drops the
	// verdict where it writes: an accepted StoreCommit or SCExecute,
	// every Load that is not refused, PrefetchExclusive, SLECommitStores
	// and the three bus callbacks. skipped counts the ticks answered
	// from it; audit, when non-nil, runs those ticks and checks them
	// (see SetOracle).
	idle    bool
	skipped uint64
	audit   *error

	// Sleep (see Doze): an asleep controller is not ticked and owes the
	// ticks after the last it ran, which its idle verdict answers; wake
	// replays them in one step. clock is its loop's: the first cycle
	// whose node phase has not run, so the cycle a call's wake replays up
	// to; bit is set in *awake while the controller is awake. Nil: the
	// controller never sleeps.
	asleep bool
	clock  *uint64
	awake  *uint64
	bit    uint64
}

// NewController builds a controller running tech's protocol
// techniques (MESTI, E-MESTI, LVP), attaches it to the interconnect,
// and returns it. All controllers in a system share counters.
func NewController(cfg Config, tech Techniques, b *bus.Bus, client Client, counters *stats.Counters) *Controller {
	tech = tech.Effective()
	d := DefaultConfig()
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = d.MSHRs
	}
	if cfg.StoreBuf <= 0 {
		cfg.StoreBuf = d.StoreBuf
	}
	if counters == nil {
		counters = stats.NewCounters()
	}
	c := &Controller{
		cfg:          cfg,
		tech:         tech,
		bus:          b,
		client:       client,
		cnt:          resolveCtrlCounters(counters),
		l1:           cache.New(cfg.L1),
		l2:           cache.New(cfg.L2),
		mshrs:        cache.NewMSHRFile(cfg.MSHRs),
		wb:           make(map[uint64]wbEntry),
		hOccMSHR:     counters.Hist("occ/mshr"),
		hOccSB:       counters.Hist("occ/storebuf"),
		hVreuse:      counters.Hist("lat/validate_reuse"),
		occCountdown: 1, // sample cycle 0 so short runs still populate
	}
	if tech.MESTI {
		if cfg.StaleBytes > 0 {
			c.detector = stale.NewFinite(cfg.L1, cache.Config{SizeBytes: cfg.StaleBytes, Assoc: 8})
		} else {
			c.detector = stale.NewPerfect()
		}
		if tech.EMESTI {
			p := cfg.ValidateParams
			if p == (predictor.ValidateParams{}) {
				p = predictor.DefaultValidateParams()
			}
			c.vpred = predictor.NewValidatePredictor(p)
		}
	}
	// Never evict a line with an outstanding miss: the fill would
	// have nowhere to land.
	c.l2.Evictable = func(l *cache.Line) bool {
		return c.mshrs.Lookup(l.Addr) == nil
	}
	c.id = b.Attach(c)
	return c
}

// SetTracer attaches the event tracer (nil disables tracing).
func (c *Controller) SetTracer(tr *trace.Tracer) { c.tr = tr }

// SetCheckSink attaches the coherence checker's store-visibility tap
// (nil disables it).
func (c *Controller) SetCheckSink(s CheckSink) { c.sink = s }

// SetOracle makes the controller audit its idle verdict on the
// every-cycle loop (sim.Config.NoFastForward), where NextEvent is never
// asked: a Tick that finds the verdict standing and then moves something
// is one the fast path would have skipped. The first violation
// machine-wide goes to *violation, the latch the oracle cores share.
func (c *Controller) SetOracle(violation *error) { c.audit = violation }

// SkippedTicks counts the cycles this controller answered from its idle
// verdict instead of retrying the store-buffer head: ticks, and cycles it
// slept through or skipped (always 0 on an oracle).
func (c *Controller) SkippedTicks() uint64 { return c.skipped }

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// ---------------------------------------------------------------------------
// The seam: the four mutators that move stateVer
// ---------------------------------------------------------------------------

// setState is the only assignment to a line's State in this package: it
// emits the KState trace event and moves stateVer, so no transition goes
// untraced or unversioned.
//
// stateVer is the contract with the attached core (StateVersion), which
// keys its idle verdict and each load's retry memo on it: while it
// stands, every refusal stands — a LoadRetry, a full store buffer,
// HoldsWritable false. Those read a line's state (written here; a frame
// is gained and lost only in a fill, through installL2), the MSHR file
// (allocMSHR, freeMSHR) and the store-buffer head (popStore). Snooped
// transitions move it like local ones: ExternalSnoop says that a snoop
// happened, not what it did.
//
// A StoreCommit or SCExecute push does not move it: it is the core's
// own move, so no idle verdict stands across it, and it cannot put a
// forwarding entry in front of a memoized load, whose store-queue scan
// came back clear for good — no store that can still retire ahead of
// it writes its word. Nor do L1 presence (it prices a hit, and a hit is
// no refusal), the reservation (written by the core's own Load or with
// a Client callback) or line data (popStore, the core's own
// SLECommitStores, a fill).
//
// Each mutator also logs the line its move touched (see RefusalStands).
func (c *Controller) setState(l *cache.Line, to State) {
	c.tr.Emit(trace.Event{Kind: trace.KState, Node: int32(c.id), Addr: l.Addr, A: l.State, B: to})
	l.State = to
	c.stateVer++
	c.moved[c.stateVer%movedSlots] = l.Addr
}

func (c *Controller) allocMSHR(la uint64, write bool) *cache.MSHR {
	m := c.mshrs.Alloc(la, write)
	if m != nil {
		c.stateVer++
		c.moved[c.stateVer%movedSlots] = la
	}
	return m
}

func (c *Controller) freeMSHR(m *cache.MSHR) {
	c.mshrs.Free(m)
	c.stateVer++
	c.moved[c.stateVer%movedSlots] = noLine
}

func (c *Controller) popStore() {
	n := copy(c.storeBuf, c.storeBuf[1:])
	c.storeBuf = c.storeBuf[:n]
	c.stateVer++
	c.moved[c.stateVer%movedSlots] = noLine
}

// movedSlots is how many version moves the seam's log reaches back;
// noLine, never a line address, is what a move that touched none logs.
const (
	movedSlots = 16
	noLine     = ^uint64(0)
)

// RefusalStands implements cpu.MemSystem: whether a load of addr that
// Load refused, counted, under version ver would be refused, counted,
// now. Such a refusal found no store-buffer entry for the word (the
// core's clear scan keeps it so), the line neither in the L1 nor
// readable in the L2 and without an MSHR (each changes only through a
// setState or an allocMSHR of the line), and a full file, read here. So
// it stands while the file is full and no move logged since ver touched
// the line; a log that no longer reaches back to ver answers false.
func (c *Controller) RefusalStands(addr, ver uint64) bool {
	if c.stateVer-ver > movedSlots || c.mshrs.InUse() < c.cfg.MSHRs {
		return false
	}
	la := mem.LineAddr(addr)
	for v := ver + 1; v <= c.stateVer; v++ {
		if c.moved[v%movedSlots] == la {
			return false
		}
	}
	return true
}

// StateVersionWord implements cpu.MemSystem: where stateVer is kept, for
// a core that reads it in place (see setState). Only the seam writes it.
func (c *Controller) StateVersionWord() *uint64 { return &c.stateVer }

// useVS is the "local request" arc of §2.3: a Validate_Shared line moves
// to Shared — it has now been *used* since its validate, so future
// useful snoop responses assert — and reports whether it did.
func (c *Controller) useVS(l *cache.Line) bool {
	if l.State != StateVS {
		return false
	}
	c.setState(l, StateS)
	c.cnt.emestiVSUse.Inc()
	return true
}

// noteReuse observes the validate-to-reuse distance on the first local
// access to a revalidated line and reports whether it observed one. The
// modular distance is exact below 2^32 cycles.
func (c *Controller) noteReuse(l *cache.Line) bool {
	if l.Flags&FlagRevalidated == 0 {
		return false
	}
	l.Flags &^= FlagRevalidated
	c.hVreuse.Observe(uint64(uint32(c.now) - l.Stamp))
	return true
}

// request enqueues a dataless transaction for la, drawing from the
// bus's transaction free list so the steady-state miss path does not
// allocate.
func (c *Controller) request(ty bus.TxnType, la uint64) {
	t := c.bus.NewTxn()
	t.Type, t.Addr, t.Src = ty, la, c.id
	c.bus.Request(t)
}

// ---------------------------------------------------------------------------
// CPU-facing request paths
// ---------------------------------------------------------------------------

// Load services a load (or load-locked) issued by the core's LSQ.
func (c *Controller) Load(seq uint64, addr uint64, isLL bool) LoadResult {
	c.Wake()
	addr = mem.AlignWord(addr)
	la := mem.LineAddr(addr)
	slot := mem.WordIndex(addr)

	// Forward from the post-retirement store buffer: buffered stores
	// are older than any issuing load. Scan youngest-first. Pending
	// SCs may still fail, so a matching SC blocks the load instead of
	// forwarding a value that might never be written.
	for i := len(c.storeBuf) - 1; i >= 0; i-- {
		e := &c.storeBuf[i]
		if e.addr != addr {
			continue
		}
		if e.isSC {
			return LoadResult{Status: LoadRetry}
		}
		c.idle = false
		c.cnt.l1StoreForward.Inc()
		if isLL {
			c.setReservation(la, seq)
		}
		return LoadResult{Status: LoadHit, Value: e.val, Lat: L1Latency}
	}

	l2line := c.l2.Lookup(la)

	// L1 hit: presence implies the L2 holds the line readable.
	if l1line := c.l1.Lookup(la); l1line != nil {
		if l2line == nil || !Readable(l2line.State) {
			panic(fmt.Sprintf("core: L1 presence without readable L2 line at %#x", la))
		}
		c.idle = false
		c.l1.Touch(l1line)
		c.cnt.l1Hit.Inc()
		c.noteReuse(l2line)
		if isLL {
			c.setReservation(la, seq)
		}
		return LoadResult{Status: LoadHit, Value: l2line.Data.Word(slot), Lat: L1Latency}
	}
	c.cnt.l1Miss.Inc()

	// L2 hit with read permission.
	if l2line != nil && Readable(l2line.State) {
		c.idle = false
		c.useVS(l2line)
		c.l2.Touch(l2line)
		c.cnt.l2Hit.Inc()
		c.noteReuse(l2line)
		c.fillL1(la)
		if isLL {
			c.setReservation(la, seq)
		}
		return LoadResult{Status: LoadHit, Value: l2line.Data.Word(slot), Lat: L1Latency + L2Latency}
	}
	c.cnt.l2Miss.Inc()

	// Miss: merge into an existing MSHR or allocate one. A
	// load-locked miss fetches the line *exclusively* (read with
	// intent to modify), as real LL/SC implementations do: the
	// store-conditional can then perform locally, shrinking the
	// window in which a remote write can kill the reservation from a
	// full bus round-trip to a handful of core cycles — without it, a
	// contended fetch-and-add can make no forward progress at these
	// interconnect latencies.
	m := c.mshrs.Lookup(la)
	if m == nil {
		m = c.allocMSHR(la, isLL)
		if m == nil {
			c.cnt.l2MSHRFull.Inc()
			return LoadResult{Status: LoadRetry, Counted: true}
		}
		ty := bus.TxnRead
		if isLL {
			ty = bus.TxnReadX
			c.cnt.l2LLExclusiveFetch.Inc()
		}
		c.request(ty, la)
	}
	c.idle = false
	w := cache.Waiter{Seq: seq, WordIdx: slot}

	// LVP: a tag-match invalid line (state I after an invalidation or
	// eviction of permission, or T under MESTI) supplies a value
	// prediction (§3.1-3.2).
	if c.tech.LVP && l2line != nil {
		v := l2line.Data.Word(slot)
		m.RecordSpec(slot, seq, v)
		w.GotSpec = true
		m.Merge(w, isLL)
		c.cnt.lvpSpecDeliver.Inc()
		c.tr.Emit(trace.Event{Kind: trace.KLVPPredict, Node: int32(c.id), Addr: addr, Arg: v})
		return LoadResult{Status: LoadSpec, Value: v, Lat: L1Latency + L2Latency}
	}
	m.Merge(w, isLL)
	return LoadResult{Status: LoadMiss}
}

// ReplayL1Hits is Load's side of L1 hits (not load-locked) on lines hit
// before under this StateVersion, unanswered: the core's steady verdict.
func (c *Controller) ReplayL1Hits(addrs []uint64) {
	c.Wake()
	for _, a := range addrs {
		c.l1.Touch(c.l1.Lookup(a))
	}
	c.cnt.l1Hit.Add(uint64(len(addrs)))
	c.idle = false
}

// ReplayRefusals bumps what loads counted Load refusals (MSHR file full)
// and stores refused StoreCommits bump, unasked (the core's idle verdict
// and retry memo); like them it leaves the idle verdict standing, and it
// wakes nothing: it writes only counters.
func (c *Controller) ReplayRefusals(loads, stores uint64) {
	c.cnt.l1Miss.Add(loads)
	c.cnt.l2Miss.Add(loads)
	c.cnt.l2MSHRFull.Add(loads)
	c.cnt.storeBufferFull.Add(stores)
}

// StoreCommit accepts a retired store into the store buffer. A false
// return means the buffer is full and the core must stall retirement.
func (c *Controller) StoreCommit(seq, pc, addr, val uint64) bool {
	if !c.pushStore(storeEntry{seq: seq, pc: pc, addr: mem.AlignWord(addr), val: val}) {
		c.cnt.storeBufferFull.Inc()
		return false
	}
	return true
}

// SCExecute submits a store-conditional. The outcome arrives via
// Client.SCDone once the store reaches the coherence point; the core
// keeps the SC at the head of its window until then.
func (c *Controller) SCExecute(seq, pc, addr, val uint64) bool {
	return c.pushStore(storeEntry{seq: seq, pc: pc, addr: mem.AlignWord(addr), val: val, isSC: true})
}

// pushStore appends to the store buffer unless it is full: the one
// write of what the core is answered from that is outside the seam (see
// setState for why it can be).
func (c *Controller) pushStore(e storeEntry) bool {
	if len(c.storeBuf) >= c.cfg.StoreBuf {
		return false
	}
	c.Wake()
	c.idle = false
	c.storeBuf = append(c.storeBuf, e)
	if c.sink != nil {
		c.sink.StoreBuffered(c.id, e.addr, e.val, e.isSC)
	}
	return true
}

// StoreBufEmpty reports whether all retired stores have performed.
func (c *Controller) StoreBufEmpty() bool { return len(c.storeBuf) == 0 }

// Squashed implements cpu.MemSystem: a squash killed every op younger
// than after, so no MSHR waits for their loads any longer. It moves
// neither stateVer nor the idle verdict and wakes nothing: no refusal,
// nothing tickStore reads and no occupancy sample looks at a waiter list.
func (c *Controller) Squashed(after uint64) { c.mshrs.DropWaitersAfter(after) }

// setReservation arms the reservation on lineAddr for the load-locked
// seq. A live reservation on the same line keeps the older seq: the line
// has stayed reserved since that load-locked.
func (c *Controller) setReservation(lineAddr, seq uint64) {
	if c.resSeq != 0 && c.resAddr == lineAddr && c.resSeq < seq {
		return
	}
	c.resAddr, c.resSeq = lineAddr, seq
}

// HasReservation reports whether the line's reservation is live and was
// armed by a load-locked older than seq: the question a store-conditional
// at seq asks when it performs, and SLE's when it would elide one. A
// younger load-locked that re-armed the line after a remote write killed
// the reservation does not answer for an older SC.
func (c *Controller) HasReservation(lineAddr, seq uint64) bool {
	return c.resSeq != 0 && c.resSeq < seq && c.resAddr == mem.LineAddr(lineAddr)
}

// ---------------------------------------------------------------------------
// Tick: store buffer drain
// ---------------------------------------------------------------------------

// Tick advances the controller one cycle: it samples the occupancy
// histograms and tries to perform the store at the head of the store
// buffer. A tick that moved nothing becomes the idle verdict; while it
// stands the retry would repeat that tick, so only the oracle runs it.
// A sleeping controller first replays the ticks it owes (Doze).
func (c *Controller) Tick(now uint64) {
	if c.asleep {
		c.wake(now)
	}
	if c.idle && c.audit == nil {
		c.wake(now + 1)
		return
	}
	c.now = now
	if c.occCountdown--; c.occCountdown == 0 {
		c.occCountdown = occSampleEvery
		c.hOccMSHR.Observe(uint64(c.mshrs.InUse()))
		c.hOccSB.Observe(uint64(len(c.storeBuf)))
	}
	// Only a buffered store can move, and a move may pop it: read the
	// head the audit would name before the tick.
	var head storeEntry
	held := c.idle && len(c.storeBuf) > 0
	if held {
		head = c.storeBuf[0]
	}
	c.idle = !c.tickStore()
	if held && !c.idle && *c.audit == nil {
		*c.audit = fmt.Errorf("node %d cycle %d: controller idle verdict violated: the tick moved store-buffer head seq %d addr %#x (line %#x, sc=%v waiting=%v) and nothing had called in since it stalled",
			c.id, now, head.seq, head.addr, mem.LineAddr(head.addr), head.isSC, head.waiting)
	}
}

// NextEvent returns ^uint64(0) while the idle verdict stands and now
// otherwise: the controller keeps no timers, so once a tick has moved
// nothing it stays idle until its core or the bus calls into it (the
// interconnect's horizon bounds the bus). Idleness is only ever
// observed: a woken controller must be ticked to find out, which costs
// at most one tick per wake.
func (c *Controller) NextEvent(now uint64) uint64 {
	if c.idle {
		return ^uint64(0)
	}
	return now
}

// SkipCycles replays the side effects of ticking every cycle in
// [from, to) while the controller is quiescent: the occupancy
// histograms sample the (constant) occupancy at the same cycles the
// naive loop would, and the clock lands on to-1 — the value Tick(to-1)
// would have left, which bus-phase callbacks (SnoopTxn timestamping
// a line's Stamp) read before the controller's next Tick. from is the
// cycle after the last tick, which the controller knows.
func (c *Controller) SkipCycles(from, to uint64) { c.wake(to) }

// SleepOn lets a loop put the controller to sleep (Doze). clock is the
// loop's: the first cycle whose node phase has not run; bit is set in
// *awake while the controller is awake, so the loop can pass over a
// sleeping one without reading it. Must be called before the first Tick,
// with bit set in *awake, and never on an oracle (SetOracle), which runs
// every tick.
func (c *Controller) SleepOn(clock, awake *uint64, bit uint64) {
	c.clock, c.awake, c.bit = clock, awake, bit
}

// Doze puts the controller to sleep if its idle verdict stands (and it
// may sleep, see SleepOn); it then sleeps until a call wakes it, the
// controller keeping no timers. A loop does not tick a sleeping
// controller: every way in that writes what a tick reads, drops the
// verdict or reads the clock wakes it first (Wake), replaying every
// tick slept through in one step, through the cycle before *clock —
// the cycle in progress, once its node phase has run.
func (c *Controller) Doze() {
	if c.clock != nil && c.idle && !c.asleep {
		c.asleep = true
		*c.awake &^= c.bit
	}
}

// Wake replays the ticks a sleeping controller owes, through the cycle
// before its loop's clock, and leaves it awake: counters and histograms
// read between cycles are then exact. It does nothing to a controller
// that is awake.
func (c *Controller) Wake() {
	if c.asleep {
		c.wake(*c.clock)
	}
}

// wake answers the ticks (c.now, until) from the idle verdict in one step —
// held ticks, cycles slept through and skipped cycles alike: the
// occupancy histograms sample the (constant) occupancy at the cycles
// the naive loop would.
func (c *Controller) wake(until uint64) {
	k := until - c.now - 1
	if c.occCountdown <= k {
		m := 1 + (k-c.occCountdown)/occSampleEvery
		c.hOccMSHR.ObserveN(uint64(c.mshrs.InUse()), m)
		c.hOccSB.ObserveN(uint64(len(c.storeBuf)), m)
		c.occCountdown = c.occCountdown + m*occSampleEvery - k
	} else {
		c.occCountdown -= k
	}
	c.skipped += k
	if c.asleep {
		*c.awake |= c.bit
	}
	c.now, c.asleep = until-1, false
}

// tickStore performs the head of the store buffer if it can, else gets
// it the permission it lacks, and reports whether it moved anything:
// the head consumed (performed, squashed, SC failed), a validate-to-reuse
// distance observed, a VS line moved to S, a permission request issued.
// A false return is a pure stall — a transaction outstanding, or the
// MSHR file in the way — that repeats until something calls in.
func (c *Controller) tickStore() bool {
	if c.tryPerformHead() {
		return true
	}
	if len(c.storeBuf) == 0 {
		return false
	}
	e := &c.storeBuf[0]
	la := mem.LineAddr(e.addr)

	if e.waiting {
		return false // permission transaction outstanding
	}

	// Invalid (I/T/absent) takes a ReadX; a node that holds current data
	// takes a dataless Upgrade.
	ty, moved := bus.TxnReadX, false
	l2line := c.l2.Lookup(la)
	if l2line != nil {
		moved = c.noteReuse(l2line) // a store is a use of a revalidated line too
		moved = c.useVS(l2line) || moved
		if Upgradable(l2line.State) {
			ty = bus.TxnUpgrade
		}
	}
	if c.mshrs.Lookup(la) != nil || c.allocMSHR(la, true) == nil {
		// A miss to the line is in flight, or the file is exhausted: the
		// head retries when a completion lands.
		return moved
	}
	if c.vpred != nil && l2line != nil && l2line.Flags&FlagSilent != 0 {
		// The intermediate-value store is being made visible (by an
		// Upgrade: a silent line is dirty, and short of write permission
		// that is O); the predictor moves to its upgrade-request state
		// and will consume the combined useful snoop response.
		c.vpred.OnIntermediateStoreVisible(la)
	}
	c.request(ty, la)
	e.waiting = true
	return true
}

// tryPerformHead performs the store at the head of the store buffer
// if it can complete right now (writable line, update-silent squash,
// or SC failure). It returns true when the head was consumed. It is
// called every tick and — critically — at the grant instant of the
// head store's upgrade: the write is ordered at the bus serialization
// point, so a contender snooping the line a cycle later already sees
// the new value. Deferring the write to the upgrade *completion* would
// let contenders steal the line during the address-phase latency and
// the store would ping-pong without ever performing.
func (c *Controller) tryPerformHead() bool {
	if len(c.storeBuf) == 0 {
		return false
	}
	e := &c.storeBuf[0]
	la := mem.LineAddr(e.addr)
	slot := mem.WordIndex(e.addr)

	// SC: the reservation must still be live when the store reaches
	// the coherence point, and armed by an LL older than the SC.
	if e.isSC && !c.HasReservation(la, e.seq) {
		c.resSeq = 0
		c.cnt.storeSCFail.Inc()
		c.client.SCDone(e.seq, false)
		if c.sink != nil {
			c.sink.StoreDrained(c.id, e.addr, false)
		}
		c.popStore()
		return true
	}

	l2line := c.l2.Lookup(la)

	// Update-silent store squashing: a store whose value matches the
	// current content of a readable line has no architectural effect
	// and is dropped without acquiring write permission (§1, [21]). It
	// accompanies the silence-exploiting protocols, as in the paper's
	// lineage ([21] precedes [22]).
	if c.tech.MESTI && l2line != nil && Readable(l2line.State) &&
		l2line.Data.Word(slot) == e.val {
		c.cnt.storeUSDetected.Inc()
		c.cnt.storeUSSquash.Inc()
		if e.isSC {
			c.resSeq = 0
			c.cnt.storeSCSuccess.Inc()
			c.client.SCDone(e.seq, true)
		}
		if c.sink != nil {
			c.sink.StoreDrained(c.id, e.addr, false)
		}
		c.popStore()
		return true
	}

	// Permission held: perform.
	if l2line != nil && Writable(l2line.State) {
		c.performStore(l2line, e, slot)
		if c.sink != nil {
			c.sink.StoreDrained(c.id, e.addr, true)
		}
		c.popStore()
		return true
	}
	return false
}

// performStore writes one word into a line held in M or E and runs the
// MESTI temporal-silence machinery.
func (c *Controller) performStore(l *cache.Line, e *storeEntry, slot int) {
	la := l.Addr
	if l.State == StateE {
		// E -> M is a visibility boundary: the current (clean,
		// globally visible) contents become the reversion candidate
		// (the bold PrWr arcs of Figure 2).
		if c.detector != nil {
			c.detector.SaveStale(la, l.Data)
		}
		c.setState(l, StateM)
	}
	prevSilent := l.Flags&FlagSilent != 0
	if l.Data.Word(slot) == e.val {
		// Update-silent store that was not squashed (squashing off,
		// or the line only became readable now): counted for the
		// Table 2 characterization.
		c.cnt.storeUSDetected.Inc()
	}
	l.Data.SetWord(slot, e.val)
	c.l2.Touch(l)
	c.cnt.storePerformed.Inc()
	if c.sink != nil {
		c.sink.StorePerformed(c.id, e.addr, e.val)
	}
	if e.isSC {
		c.resSeq = 0
		c.cnt.storeSCSuccess.Inc()
		c.client.SCDone(e.seq, true)
	}

	if c.detector == nil {
		return
	}
	cand, ok := c.detector.Candidate(la)
	nowSilent := ok && l.Data.Equal(&cand)
	switch {
	case nowSilent && !prevSilent:
		// Temporal silence detected: the line has reverted to its
		// previous globally visible value.
		l.Flags |= FlagSilent
		c.cnt.mestiTSDetect.Inc()
		c.tr.Emit(trace.Event{Kind: trace.KTSDetect, Node: int32(c.id), Addr: la})
		send := true
		if c.vpred != nil {
			send = c.vpred.OnTSDetect(la)
		}
		if send {
			t := c.bus.NewTxn()
			t.Type, t.Addr, t.Src, t.WData = bus.TxnValidate, la, c.id, l.Data
			c.bus.Request(t)
			c.cnt.mestiValRequested.Inc()
			c.tr.Emit(trace.Event{Kind: trace.KValIssue, Node: int32(c.id), Addr: la})
		} else {
			c.cnt.mestiValSuppressed.Inc()
			c.tr.Emit(trace.Event{Kind: trace.KValSuppress, Node: int32(c.id), Addr: la})
		}
	case !nowSilent && prevSilent:
		// The silent period ended with a store that needed no bus
		// transaction (the validate had been suppressed, or was
		// cancelled before grant). No useful snoop response exists.
		l.Flags &^= FlagSilent
		if c.vpred != nil {
			c.vpred.OnIntermediateStoreSilentlyLocal(la)
		}
	}
}

// ---------------------------------------------------------------------------
// SLE support
// ---------------------------------------------------------------------------

// PrefetchExclusive requests write permission for a line the SLE
// engine has speculatively written, so the eventual atomic commit can
// perform instantly. Best effort: structural hazards are simply
// dropped and retried by the engine.
func (c *Controller) PrefetchExclusive(addr uint64) {
	c.Wake()
	la := mem.LineAddr(addr)
	l := c.l2.Lookup(la)
	if l != nil && Writable(l.State) {
		return
	}
	if c.mshrs.Lookup(la) != nil || c.allocMSHR(la, true) == nil {
		return
	}
	c.idle = false
	if l != nil {
		c.useVS(l)
	}
	if l != nil && Upgradable(l.State) {
		c.request(bus.TxnUpgrade, la)
		c.cnt.slePrefetchUpgrade.Inc()
	} else {
		c.request(bus.TxnReadX, la)
		c.cnt.slePrefetchReadX.Inc()
	}
}

// HoldsWritable reports whether the line can be written with no bus
// transaction right now.
func (c *Controller) HoldsWritable(addr uint64) bool {
	l := c.l2.Lookup(mem.LineAddr(addr))
	return l != nil && Writable(l.State)
}

// SLECommitStores atomically performs a speculative critical section's
// stores. All target lines must be writable at this instant (between
// bus grants nothing can intervene); otherwise nothing is performed
// and false is returned so the engine keeps prefetching or aborts.
func (c *Controller) SLECommitStores(stores []SpecStore) bool {
	c.Wake()
	for i := range stores {
		if !c.HoldsWritable(stores[i].Addr) {
			return false
		}
	}
	c.idle = false
	for i := range stores {
		s := &stores[i]
		la := mem.LineAddr(s.Addr)
		l := c.l2.Lookup(la)
		e := storeEntry{addr: mem.AlignWord(s.Addr), val: s.Value}
		c.performStore(l, &e, mem.WordIndex(s.Addr))
		c.cnt.sleStoreCommitted.Inc()
	}
	return true
}

// ---------------------------------------------------------------------------
// Fills and evictions
// ---------------------------------------------------------------------------

func (c *Controller) fillL1(la uint64) {
	if c.l1.Lookup(la) != nil {
		return
	}
	f, ev := c.l1.Allocate(la)
	if ev.Allocated && c.detector != nil {
		c.detector.OnL1Evict(ev.Addr)
	}
	c.l1.Touch(f)
	if c.detector != nil {
		c.detector.OnL1Fill(la)
	}
}

// installL2 places arrived data into the L2, reusing a tag-match frame
// or allocating (with eviction handling).
func (c *Controller) installL2(la uint64, data mem.Line, state State) {
	l := c.l2.Lookup(la)
	if l == nil {
		var ev cache.Line
		l, ev = c.l2.Allocate(la)
		if ev.Allocated {
			c.evictL2(&ev)
		}
	}
	l.Data = data
	c.setState(l, state)
	c.l2.Touch(l)
}

func (c *Controller) evictL2(victim *cache.Line) {
	la := victim.Addr
	if Dirty(victim.State) {
		c.wb[la] = wbEntry{data: victim.Data, pending: c.wb[la].pending + 1}
		t := c.bus.NewTxn()
		t.Type, t.Addr, t.Src, t.WData = bus.TxnWriteback, la, c.id, victim.Data
		c.bus.Request(t)
		c.cnt.l2EvictDirty.Inc()
	} else {
		c.cnt.l2EvictClean.Inc()
	}
	if c.detector != nil {
		c.detector.Drop(la)
	}
	if c.vpred != nil {
		c.vpred.Evict(la)
	}
	c.l1.Drop(la) // inclusion
}

// dropFromL1 removes a line from the L1 presence array when the L2
// loses read permission.
func (c *Controller) dropFromL1(la uint64) {
	if c.l1.Drop(la) && c.detector != nil {
		c.detector.OnL1Evict(la)
	}
}

// ---------------------------------------------------------------------------
// Introspection for tests and invariant checks
// ---------------------------------------------------------------------------

// LineState returns the L2 state of the line containing addr (StateI
// when absent).
func (c *Controller) LineState(addr uint64) State {
	if l := c.l2.Lookup(mem.LineAddr(addr)); l != nil {
		return l.State
	}
	return StateI
}

// LineData returns the L2 data of the line containing addr.
func (c *Controller) LineData(addr uint64) (mem.Line, bool) {
	if l := c.l2.Lookup(mem.LineAddr(addr)); l != nil {
		return l.Data, true
	}
	return mem.Line{}, false
}

// Predictor exposes the useful-validate predictor (nil unless EMESTI).
func (c *Controller) Predictor() *predictor.ValidatePredictor { return c.vpred }

// ForEachL2 visits every allocated L2 frame (invariant checks).
func (c *Controller) ForEachL2(fn func(l *cache.Line)) { c.l2.ForEach(fn) }

// L1Holds reports whether the L1 presence array holds the line
// containing addr (the inclusion invariant: L1 presence requires a
// readable L2 line).
func (c *Controller) L1Holds(addr uint64) bool {
	return c.l1.Lookup(mem.LineAddr(addr)) != nil
}

// WBInfo reports how many writebacks of the line are in flight; the
// writeback buffer holds the line exactly while that is above zero.
func (c *Controller) WBInfo(addr uint64) (pending int) {
	return c.wb[mem.LineAddr(addr)].pending
}

// ForEachWB visits every line held in the writeback buffer.
func (c *Controller) ForEachWB(fn func(la uint64)) {
	for la := range c.wb {
		fn(la)
	}
}

// MSHRsInUse returns the number of live MSHRs (leak detection at
// quiesce).
func (c *Controller) MSHRsInUse() int { return c.mshrs.InUse() }

// DebugMSHRs renders live MSHRs (diagnostics): a stuck miss shows its
// live waiters, whether a load merged into it and the oldest load-locked
// that did (ll=0: none).
func (c *Controller) DebugMSHRs() string {
	out := ""
	c.mshrs.ForEach(func(m *cache.MSHR) {
		out += fmt.Sprintf("  mshr addr=%#x write=%v spec=%v live waiters=%d merged load=%v ll=%d oldest=%d\n",
			m.Addr, m.Write, m.SpecDelivered, len(m.Waiters), m.LoadMerged, m.LLSeq, m.OldestSeq)
	})
	if len(c.storeBuf) > 0 {
		out += fmt.Sprintf("  storeBuf=%d head={addr=%#x sc=%v waiting=%v}\n",
			len(c.storeBuf), c.storeBuf[0].addr, c.storeBuf[0].isSC, c.storeBuf[0].waiting)
	}
	return out
}

// DebugStoreBuf renders every buffered store (post-mortem dumps).
func (c *Controller) DebugStoreBuf() string {
	if len(c.storeBuf) == 0 {
		return ""
	}
	out := fmt.Sprintf("  storeBuf (%d entries):\n", len(c.storeBuf))
	for i, e := range c.storeBuf {
		st := c.LineState(e.addr)
		out += fmt.Sprintf("    [%d] seq=%d pc=%d addr=%#x val=%d sc=%v waiting=%v line=%s\n",
			i, e.seq, e.pc, e.addr, e.val, e.isSC, e.waiting, StateName(st))
	}
	return out
}
