package cpu

import (
	"slices"

	"tssim/internal/core"
	"tssim/internal/isa"
	"tssim/internal/mem"
	"tssim/internal/predictor"
	"tssim/internal/stats"
	"tssim/internal/trace"
)

// SLE's in-core buffering bound and restart threshold.
const (
	// robFrac bounds the speculative critical section to this fraction of
	// the RUU (§4.2.1).
	robFrac = 0.5
	// restartLimit is the number of consecutive aborted attempts at one PC
	// before one non-elided execution is forced.
	restartLimit = 2
)

// sleCounters holds the engine's pre-resolved counter handles,
// including one abort counter per elision outcome (replacing the
// "sle/abort_"+outcome.String() concatenation).
type sleCounters struct {
	idiomMiss       stats.Counter
	reservationLost stats.Counter
	suppressedOnce  stats.Counter
	filtered        stats.Counter
	attempt         stats.Counter
	success         stats.Counter
	abort           [predictor.ElisionOutcomeCount]stats.Counter
}

func resolveSLECounters(cs *stats.Counters) sleCounters {
	sc := sleCounters{
		idiomMiss:       cs.Counter("sle/idiom_miss"),
		reservationLost: cs.Counter("sle/reservation_lost"),
		suppressedOnce:  cs.Counter("sle/suppressed_once"),
		filtered:        cs.Counter("sle/filtered"),
		attempt:         cs.Counter("sle/attempt"),
		success:         cs.Counter("sle/success"),
	}
	for o := 0; o < predictor.ElisionOutcomeCount; o++ {
		sc.abort[o] = cs.Counter("sle/abort_" + predictor.ElisionOutcome(o).String())
	}
	return sc
}

// sleEngine implements speculative lock elision (§4) with in-core
// buffering: the reorder buffer is the speculation buffer, so critical
// sections are bounded by a fraction of the RUU (§4.2.1). The elision
// idiom is the load-locked/store-conditional pair (§4.1); the
// store-conditional is elided at the window head, every instruction
// until the reverting (release) store is held uncommitted, and the
// whole region retires atomically once the release resolves and the
// write set is exclusively held.
type sleEngine struct {
	core *Core
	pred *predictor.ElisionPredictor
	cnt  sleCounters

	active   bool
	scEntry  *entry
	lockAddr uint64 // word address of the elided lock
	lockLine uint64
	origVal  uint64 // pre-acquire lock value the release must restore
	specVal  uint64 // the elided SC's (never-performed) store value

	readSet  map[uint64]bool // lines read inside the region
	writeSet map[uint64]bool // lines speculatively written

	consecFails  map[uint64]int // per-PC consecutive aborts
	suppressOnce map[uint64]bool

	// Scratch buffers reused across ticks (prefetch address ordering
	// and the atomic-commit store list).
	lineBuf  []uint64
	storeBuf []core.SpecStore

	maxRegion int // RUU-entry bound for the region
}

func newSLEEngine(c *Core, counters *stats.Counters) *sleEngine {
	return &sleEngine{
		core:         c,
		pred:         predictor.NewElisionPredictor(),
		cnt:          resolveSLECounters(counters),
		readSet:      make(map[uint64]bool),
		writeSet:     make(map[uint64]bool),
		consecFails:  make(map[uint64]int),
		suppressOnce: make(map[uint64]bool),
		maxRegion:    int(robFrac * float64(c.cfg.RUUSize)),
	}
}

func (s *sleEngine) speculating() bool { return s.active }

// Predictor exposes the elision-confidence predictor (tests).
func (s *sleEngine) Predictor() *predictor.ElisionPredictor { return s.pred }

// tryStart is called when a store-conditional reaches the window head.
// If the idiom matches and confidence allows, the SC is elided: it
// completes immediately with success and the engine goes speculative.
func (s *sleEngine) tryStart(e *entry) bool {
	if s.active {
		return false // cannot nest
	}
	// Idiom: the most recent committed load-locked targeted the same
	// address (§4.1). Without it there is no known pre-acquire value
	// to revert to.
	if !s.core.lastLL.valid || s.core.lastLL.addr != e.effAddr {
		s.cnt.idiomMiss.Inc()
		return false
	}
	// The reservation must still be live: a remote write to the lock
	// between the LL and this SC means the observed pre-acquire value
	// is stale — most often because another processor just took the
	// lock for real. Eliding anyway would run this critical section
	// concurrently with a held lock. (A real SC would simply fail
	// here; declining sends it down exactly that path.) It must also
	// have been armed by a load-locked older than this SC: a younger,
	// speculative one that re-armed the line after the remote write
	// read the new value, not the one this SC's LL observed.
	if !s.core.memsys.HasReservation(e.effAddr, e.seq) {
		s.cnt.reservationLost.Inc()
		return false
	}
	pc := uint64(e.pc)
	if s.suppressOnce[pc] {
		delete(s.suppressOnce, pc)
		s.cnt.suppressedOnce.Inc()
		return false
	}
	if !s.pred.ShouldAttempt(pc) {
		s.cnt.filtered.Inc()
		return false
	}
	// Instructions younger than the SC are already in the window
	// (dispatch ran ahead while the SC waited to reach the head). An
	// unsafe context-serializing instruction among them dooms the
	// region before it starts (§4.2.2): decline and train down.
	for _, w := range s.core.windowAfter(e.seq)[1:] {
		if w.isBranch && !w.done {
			break // beyond an unresolved branch lies speculation
		}
		if w.ins.Op == isa.OpISync && w.ins.Unsafe {
			s.pred.Record(pc, predictor.ElisionUnsafe)
			s.cnt.abort[predictor.ElisionUnsafe].Inc()
			return false
		}
	}
	s.active = true
	s.scEntry = e
	s.lockAddr = e.effAddr
	s.lockLine = mem.LineAddr(e.effAddr)
	s.origVal = s.core.lastLL.value
	s.specVal = e.src[1]
	clear(s.readSet)
	clear(s.writeSet)
	s.readSet[s.lockLine] = true
	// Seed the sets from operations already resolved in the window:
	// dispatch and issue ran ahead while the SC waited to reach the
	// head, so parts of the critical section may have executed before
	// the engine went live.
	for _, w := range s.core.windowAfter(e.seq)[1:] {
		if !w.addrKnown {
			continue
		}
		line := mem.LineAddr(w.effAddr)
		if w.isLoad {
			s.readSet[line] = true
		} else if w.ins.Op == isa.OpSt && w.effAddr != s.lockAddr {
			s.writeSet[line] = true
		}
	}
	// The SC appears to succeed instantly, with no coherence action:
	// the acquire is never made visible.
	e.done = true
	e.result = 1
	s.core.broadcast(e)
	s.cnt.attempt.Inc()
	s.core.tr.Emit(trace.Event{Kind: trace.KSLEElide, Node: int32(s.core.id), Addr: s.lockAddr})
	return true
}

// onLoadIssued and onStoreResolved build the region's read and write
// sets as addresses resolve.
func (s *sleEngine) onLoadIssued(e *entry) {
	if s.active && e.seq > s.scEntry.seq {
		s.readSet[mem.LineAddr(e.effAddr)] = true
	}
}

func (s *sleEngine) onStoreResolved(e *entry) {
	if s.active && e.seq > s.scEntry.seq && e.effAddr != s.lockAddr {
		s.writeSet[mem.LineAddr(e.effAddr)] = true
	}
}

// onSnoop aborts on atomicity violations: an external write touching
// anything the region read or wrote, or an external read of a line the
// region speculatively wrote.
func (s *sleEngine) onSnoop(lineAddr uint64, isWrite bool) {
	if !s.active {
		return
	}
	if isWrite && (s.readSet[lineAddr] || s.writeSet[lineAddr]) {
		s.abort(predictor.ElisionConflict)
		return
	}
	if !isWrite && s.writeSet[lineAddr] {
		s.abort(predictor.ElisionConflict)
	}
}

// onUnsafeISync aborts when a context-serializing instruction whose
// following code touches non-renamed state enters the region (§4.2.2).
func (s *sleEngine) onUnsafeISync() {
	if s.active {
		s.abort(predictor.ElisionUnsafe)
	}
}

// onSquash observes core squashes. If the elided SC itself was killed
// (e.g. an LVP misprediction older than a region instruction squashed
// through it — impossible — or a branch inside the region whose
// resolution refetches the SC), the region evaporates without a
// predictor update: it was never judged.
func (s *sleEngine) onSquash(keepThrough uint64) {
	if s.active && s.scEntry.seq > keepThrough {
		s.active = false
	}
}

// tick drives the speculating region: enforces the size bound, scans
// for the release store, prefetches exclusive ownership of the write
// set, and atomically commits when everything is ready.
func (s *sleEngine) tick() {
	if !s.active {
		return
	}
	region := s.core.windowAfter(s.scEntry.seq)
	if len(region) == 0 || region[0] != s.scEntry {
		// Defensive: the region head must be the frozen commit point.
		s.active = false
		return
	}

	// Scan program order for the release: the first resolved store to
	// the lock word. A different value means the "critical section"
	// is not a temporally silent pair — give up. The scan cannot see
	// past an unresolved store (it might target the lock), so the
	// *resolved frontier* is what the size bound below applies to:
	// entries the window speculates past while waiting for a stalled
	// store inside the critical section do not count against the
	// bound until that store resolves.
	var release *entry
	releaseIdx := -1
	frontier := len(region)
	for i, e := range region[1:] {
		if e.isBranch && !e.done {
			// Instructions beyond an unresolved branch are wrong-path
			// candidates (e.g. the backoff arm of the SC-failure
			// branch, which contains another SC); the scan must not
			// classify the region from them.
			frontier = i + 1
			break
		}
		if e.ins.Op == isa.OpSC || e.ins.Op == isa.OpHalt {
			// A nested SC can never execute (it would need the
			// frozen head); halt inside a region is malformed.
			// Either way this region will not find its release.
			s.abort(predictor.ElisionNoRelease)
			return
		}
		if e.ins.Op == isa.OpISync && e.ins.Unsafe {
			// An unsafe serializing instruction that was dispatched
			// before the elision started (hidden behind a then-
			// unresolved branch at tryStart). It blocks dispatch
			// while outside-region rules apply, so the region could
			// never grow to its release: give up now (§4.2.2).
			s.abort(predictor.ElisionUnsafe)
			return
		}
		if e.ins.Op != isa.OpSt {
			continue
		}
		if !e.addrKnown {
			frontier = i + 1 // cannot see past an unresolved store
			break
		}
		if e.effAddr != s.lockAddr {
			continue
		}
		if !e.srcReady[1] {
			frontier = i + 1 // store data not known yet
			break
		}
		if e.src[1] != s.origVal {
			s.abort(predictor.ElisionNoRelease)
			return
		}
		release = e
		releaseIdx = i + 1
		break
	}

	// §4.2.1's ROB-threshold bound on the speculative critical
	// section. A release beyond the bound (or none within it) fails:
	// overflow when we know the section was real but too large,
	// no-release when the resolved code simply never reverts the lock
	// (the atomic fetch-and-add false positive).
	if release != nil {
		if releaseIdx >= s.maxRegion {
			s.abort(predictor.ElisionOverflow)
			return
		}
	} else if frontier >= s.maxRegion {
		s.abort(predictor.ElisionNoRelease)
		return
	} else if len(region) >= s.core.cfg.RUUSize {
		// The window is completely full and the release is not in
		// it: no progress is possible with in-core buffering.
		s.abort(predictor.ElisionOverflow)
		return
	}

	// Exclusive prefetch of the resolved write set (§5.1.3's
	// "coherence transactions introduced to create atomic regions").
	// Address order, not map order: prefetch requests enter the bus
	// queue here, and the simulator guarantees identical runs for
	// identical seeds.
	lines := s.lineBuf[:0]
	for line := range s.writeSet {
		lines = append(lines, line)
	}
	slices.Sort(lines)
	s.lineBuf = lines
	for _, line := range lines {
		if !s.core.memsys.HoldsWritable(line) {
			s.core.memsys.PrefetchExclusive(line)
		}
	}

	if release == nil {
		return
	}
	// Atomic commit requires every instruction in the region through
	// the release to be complete and non-speculative.
	stores := s.storeBuf[:0]
	for _, e := range region[:releaseIdx+1] {
		if !e.done || e.specVal {
			return
		}
		if e.ins.Op == isa.OpSt && e != release {
			stores = append(stores, core.SpecStore{Addr: e.effAddr, Value: e.src[1]})
		}
	}
	s.storeBuf = stores
	if !s.core.memsys.SLECommitStores(stores) {
		return // not all lines writable yet; prefetches are in flight
	}
	// Bulk retire the region: the acquire/release pair vanishes (a
	// collapsed atomic silent store-pair), the data stores just
	// performed, everything else updates architected state normally.
	pc := uint64(s.scEntry.pc)
	for i := 0; i <= releaseIdx; i++ {
		s.core.retireHead()
	}
	s.active = false
	s.pred.Record(pc, predictor.ElisionSuccess)
	s.consecFails[pc] = 0
	s.cnt.success.Inc()
	s.core.tr.Emit(trace.Event{Kind: trace.KSLECommit, Node: int32(s.core.id), Addr: s.lockAddr,
		Arg: uint64(releaseIdx + 1)})
}

// abort ends the attempt: record the outcome, squash back to the SC,
// and re-execute it for real (possibly suppressed for one attempt
// after repeated failures — the restart threshold of [29]).
func (s *sleEngine) abort(outcome predictor.ElisionOutcome) {
	pc := uint64(s.scEntry.pc)
	scSeq := s.scEntry.seq
	scPC := int(s.scEntry.pc)
	s.active = false
	s.pred.Record(pc, outcome)
	s.consecFails[pc]++
	if s.consecFails[pc] >= restartLimit {
		s.suppressOnce[pc] = true
		s.consecFails[pc] = 0
	}
	s.cnt.abort[outcome].Inc()
	s.core.tr.Emit(trace.Event{Kind: trace.KSLEAbort, Node: int32(s.core.id), Addr: s.lockAddr,
		A: uint8(outcome)})
	s.core.squashAfter(scSeq-1, scPC)
}
