package cpu

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"tssim/internal/stats"
)

// steady is the steady verdict (DESIGN.md §7): a tick that moved the
// pipeline by a pure shift — it left what the tick before left, seqs
// relative to nextSeq and cycles to now, and moved the same counters —
// repeats until something is heard or the state version moves. The fast
// side replays it, counting the replays in k for catchUp.
type steady struct {
	on           bool
	since        uint64 // cycle of the tick that formed it
	memVer       uint64 // the state version it stands on
	dseq, retire uint64 // seqs dispatched and instructions retired per tick
	k, total     uint64 // ticks replayed since the last catch-up; ever

	// Forming it (last is the verdict's record while it holds).
	key       [4]uint64 // retired, dispatched, the queues' lengths, head pc
	keyAt     uint64
	last, cur tickRecord
	armed     bool
	calls     int32
}

// tickRecord is what a candidate tick did and left.
type tickRecord struct {
	sum   uint64           // relativise's
	hits  [MemPorts]uint64 // its L1 hits' addresses, in order
	moved []stats.Moved
	nhit  int32
	valid bool // its counters were read, and nothing was heard since
}

// SteadyTicks counts the ticks replayed from the steady verdict (0 on an oracle).
func (c *Core) SteadyTicks() uint64 { return c.st.total }

// replaySteady is one tick under the steady verdict.
func (c *Core) replaySteady() {
	st := &c.st
	for _, m := range st.last.moved {
		if m.Counter != c.cnt.l1Hit { // ReplayL1Hits counts those
			m.Counter.Add(m.N)
		}
	}
	if st.last.nhit > 0 {
		c.memsys.ReplayL1Hits(st.last.hits[:st.last.nhit])
	}
	c.retired += st.retire
	if c.machRetired != nil {
		*c.machRetired += st.retire
	}
	st.k, st.total = st.k+1, st.total+1
}

// catchUp moves the window to where k replayed ticks would have left it.
func (c *Core) catchUp() {
	k, ds := c.st.k, c.st.k*c.st.dseq
	c.st.k = 0
	c.nextSeq += ds
	for _, e := range c.ruu {
		e.seq += ds
		if e.doneAt != 0 {
			e.doneAt += k
		}
	}
	for i := range c.readyQ {
		c.readyQ[i].seq += ds
	}
	for i := range c.execQ {
		c.execQ[i].seq += ds
	}
	for i := range c.fetchQ {
		c.fetchQ[i].readyAt += k
	}
}

// hear ends every verdict and record: a callback or the state version moved.
func (c *Core) hear() {
	c.Wake()
	if c.st.on {
		c.catchUp()
	}
	c.idle, c.st.on, c.st.last.valid, c.st.armed = false, false, false, false
}

// observeSteady runs after every pipeline tick: it forms the verdict, or
// on an oracle holding one checks the tick.
func (c *Core) observeSteady(retired, seq uint64, armed bool) {
	st, cur := &c.st, &c.st.cur
	if armed {
		cur.moved = c.ctrs.Delta(cur.moved[:0])
	}
	retired, dispatched := c.retired-retired, c.nextSeq-seq
	if st.on {
		c.auditSteady(retired, dispatched)
		return
	}
	// A tick that dispatched nothing left every entry where it was, and an
	// entry issued or a slot fetched shows the clock moving under it.
	if dispatched == 0 || len(c.ruu) == 0 || c.halted || c.now < c.startAt || st.calls != cur.nhit || c.spin.loadRetries != 0 ||
		c.checker != nil || c.OnCommitDebug != nil || c.tr != nil || c.sle != nil && c.sle.active {
		st.last.valid = false
		return
	}
	lens := uint64(len(c.ruu)) | uint64(len(c.readyQ))<<16 | uint64(len(c.execQ))<<32 | uint64(len(c.fetchQ))<<48
	key := [4]uint64{retired, dispatched, lens, uint64(c.ruu[0].pc)}
	match := st.keyAt+1 == c.now && key == st.key
	st.key, st.keyAt = key, c.now
	if match {
		cur.sum, match = c.relativise()
	}
	if !match {
		st.last.valid = false
		return
	}
	if cur.moved == nil { // Delta(nil) only reads
		cur.moved, st.last.moved = make([]stats.Moved, 0, 8), make([]stats.Moved, 0, 8)
	}
	hit := cur.nhit == 0 || slices.Contains(cur.moved, stats.Moved{Counter: c.cnt.l1Hit, N: uint64(cur.nhit)})
	form := hit && st.last.valid && armed && cur.sum == st.last.sum && cur.hits == st.last.hits &&
		cur.nhit == st.last.nhit && slices.Equal(cur.moved, st.last.moved)
	cur.valid = armed
	st.last, st.cur = st.cur, st.last
	st.armed = true
	if form { // it ran under the version it leaves: its calls were hits
		st.on, st.since, st.memVer, st.dseq, st.retire = true, c.now, *c.memVer, dispatched, retired
	}
}

// auditSteady checks, on an oracle, a tick under the steady verdict.
func (c *Core) auditSteady(retired, dispatched uint64) {
	st, cur := &c.st, &c.st.cur
	st.armed = true
	if sum, ok := c.relativise(); !ok || sum != st.last.sum || retired != st.retire || dispatched != st.dseq ||
		st.calls != cur.nhit || cur.hits != st.last.hits || !slices.Equal(cur.moved, st.last.moved) {
		c.violated("steady verdict (Δseq %d, since cycle %d) violated: retired %d, dispatched %d, %d calls, hits %#x, moved %s, hash %#x (%v); the verdict's: retired %d, hits %#x, moved %s, hash %#x",
			st.dseq, st.since, retired, dispatched, st.calls, cur.hits[:cur.nhit], c.named(cur.moved), sum, ok,
			st.retire, st.last.hits[:st.last.nhit], c.named(st.last.moved), st.last.sum)
	}
}

// named renders moved, non-zero counters, by name, sorted.
func (c *Core) named(moved []stats.Moved) (out []string) {
	for name := range c.ctrs.Snapshot() {
		if i := slices.IndexFunc(moved, func(m stats.Moved) bool { return m.Counter == c.ctrs.Counter(name) }); i >= 0 {
			out = append(out, fmt.Sprintf("%s+%d", name, moved[i].N))
		}
	}
	sort.Strings(out)
	return out
}

// relativise hashes the pipeline (a copy costs a window a core), false
// when the memory system holds a seq of the window catch-up renumbers.
func (c *Core) relativise() (uint64, bool) {
	var l [4]uint64
	for _, e := range c.ruu {
		if e.memSent || e.specVal || e.scSent {
			return 0, false
		}
		l[0], l[1], l[2], l[3] = round(l[0], c.rel(e)), round(l[1], uint64(e.pc)), round(l[2], e.src[0]), round(l[3], e.src[1])
		l[0], l[1], l[2], l[3] = round(l[0], c.at(e.doneAt)), round(l[1], e.result), round(l[2], e.effAddr), round(l[3], e.flags())
		l[0], l[1], l[2] = round(l[0], c.rel(e.wake)), round(l[1], c.rel(e.next[0])), round(l[2], c.rel(e.next[1]))
	}
	for _, r := range c.readyQ {
		l[0], l[1] = round(l[0], c.nextSeq-r.seq), round(l[1], r.retryVer<<1|b2u(r.e.dead || r.e.seq != r.seq))
	}
	for _, r := range c.execQ {
		l[2] = round(l[2], (c.nextSeq-r.seq)<<1|b2u(r.e.dead || r.e.seq != r.seq))
	}
	for _, e := range c.stq {
		l[3] = round(l[3], c.rel(e))
	}
	for i, e := range c.regProd {
		l[i&3] = round(l[i&3], c.rel(e))
	}
	l[0], l[1], l[2] = round(l[0], c.rel(c.drainISync)), round(l[1], uint64(c.lsqUsed)), round(l[2], uint64(c.numExecuting))
	for _, s := range c.fetchQ {
		l[0], l[1] = round(l[0], c.at(s.readyAt)), round(l[1], uint64(s.pc)<<1|b2u(s.predTaken))
	}
	l[2] = round(round(l[2], uint64(c.fetchPC)), b2u(c.fetchStop))
	for i, t := 0, c.bpred.table; i+8 <= len(t); i += 8 {
		l[i/8&3] = round(l[i/8&3], binary.LittleEndian.Uint64(t[i:]))
	}
	for i, r := range c.regs {
		l[i&3] = round(l[i&3], r)
	}
	l[0], l[1], l[2] = round(l[0], b2u(c.lastLL.valid)), round(l[1], c.lastLL.addr), round(l[2], c.lastLL.value)
	return round(round(round(l[0], l[1]), l[2]), l[3]), true
}

func round(h, w uint64) uint64 {
	return bits.RotateLeft64(h+w*0xC2B2AE3D27D4EB4F, 31) * 0x9E3779B185EBCA87
}

// rel is an entry's seq relative to nextSeq, at a cycle's to now; 0: none.
func (c *Core) rel(e *entry) uint64 {
	if e == nil {
		return 0
	}
	return c.nextSeq - e.seq + 1
}

func (c *Core) at(t uint64) uint64 {
	if t == 0 {
		return 0
	}
	return t - c.now
}

// flags packs an entry's state bits but those its pc fixes.
func (e *entry) flags() uint64 {
	return uint64(uint8(e.wakeSlot)) | uint64(uint8(e.nextSlot[0]))<<8 | uint64(uint8(e.nextSlot[1]))<<16 |
		uint64(uint8(e.pendingSrcs))<<24 | uint64(e.dst)<<32 |
		b2u(e.srcReady[0])<<40 | b2u(e.srcReady[1])<<41 | b2u(e.issued)<<42 | b2u(e.done)<<43 |
		b2u(e.executing)<<44 | b2u(e.needsAddr)<<45 | b2u(e.addrKnown)<<46 |
		b2u(e.predTaken)<<47 | b2u(e.queued)<<48 | b2u(e.dead)<<49
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
