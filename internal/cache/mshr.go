package cache

import (
	"fmt"

	"tssim/internal/mem"
)

// Waiter is one core operation blocked on an outstanding miss.
type Waiter struct {
	Seq     uint64 // program-order sequence number of the op
	WordIdx int    // word within the line the op touches
	IsLoad  bool
	IsLL    bool // load-locked: sets the reservation when data binds
	GotSpec bool // received a speculative (LVP) value at issue
}

// MSHR is one miss status holding register. Besides the usual merge
// bookkeeping it carries the LVP speculative-delivery state of §3.2 of
// the paper: which word locations were returned to the core from a
// tag-match invalid line, the predicted values, and the oldest op in
// program order holding speculative data (the squash point on a value
// mismatch).
type MSHR struct {
	Valid bool
	Addr  uint64 // line-aligned address of the miss
	Write bool   // true when the line is wanted exclusively (ReadX)

	// LVP speculative state.
	SpecDelivered bool     // some value was speculatively delivered
	SpecWords     uint8    // bitmask of word slots delivered
	SpecData      mem.Line // predicted line contents at delivery time
	OldestSeq     uint64   // oldest op with speculative data

	Waiters []Waiter
}

// RecordSpec notes that the word at slot was speculatively delivered
// to the op with the given sequence number, tracking the oldest such
// op. The predicted word value is captured for later verification.
func (m *MSHR) RecordSpec(slot int, seq uint64, value uint64) {
	if !m.SpecDelivered || seq < m.OldestSeq {
		m.OldestSeq = seq
	}
	m.SpecDelivered = true
	m.SpecWords |= 1 << uint(slot)
	m.SpecData.SetWord(slot, value)
}

// Verify compares arrived data against every speculatively delivered
// word. It returns true when all predictions were correct. Comparing
// only the accessed words (not the whole line) is what lets LVP ride
// through false sharing (§3.2): a remote write to a different word of
// the line must not look like a value misprediction.
func (m *MSHR) Verify(arrived *mem.Line) bool {
	if !m.SpecDelivered {
		return true
	}
	for slot := 0; slot < mem.WordsPerLine; slot++ {
		if m.SpecWords&(1<<uint(slot)) == 0 {
			continue
		}
		if arrived.Word(slot) != m.SpecData.Word(slot) {
			return false
		}
	}
	return true
}

// MSHRFile is a fixed-capacity set of MSHRs. Exhaustion stalls further
// misses, which is itself a modeled structural hazard (it bounds the
// memory-level parallelism LVP can exploit, one of the paper's central
// points about finite machines).
// Lookup runs on every load issue and store-drain attempt, so the live
// line addresses are mirrored in a dense array (addrs, noTag = free
// slot) scanned without touching the wide MSHR structs — the same
// flattening the cache tag array uses.
type MSHRFile struct {
	entries []MSHR
	addrs   []uint64 // addrs[i] == entries[i].Addr when Valid, else noTag
	used    int
}

// initWaiterCap pre-sizes each MSHR's waiter list. The list can reach
// a few hundred entries in bursts (every load in a 128-entry LSQ can
// wait on one line, and snoop-replayed loads re-append while the miss
// is outstanding), so size for the observed high-water mark to keep
// the steady-state cycle loop free of waiter-list growth; a burst past
// the cap grows the list once and the capacity is retained by
// Alloc/Free thereafter.
const initWaiterCap = 512

// NewMSHRFile builds a file with n entries.
func NewMSHRFile(n int) *MSHRFile {
	if n < 1 {
		panic(fmt.Sprintf("cache: MSHR file size %d", n))
	}
	f := &MSHRFile{entries: make([]MSHR, n), addrs: make([]uint64, n)}
	for i := range f.entries {
		f.entries[i].Waiters = make([]Waiter, 0, initWaiterCap)
		f.addrs[i] = noTag
	}
	return f
}

// Lookup finds the MSHR already tracking the line containing addr.
func (f *MSHRFile) Lookup(addr uint64) *MSHR {
	la := mem.LineAddr(addr)
	for i, a := range f.addrs {
		if a == la {
			return &f.entries[i]
		}
	}
	return nil
}

// Alloc claims a free MSHR for the line containing addr, or returns
// nil when the file is full.
func (f *MSHRFile) Alloc(addr uint64, write bool) *MSHR {
	if f.Lookup(addr) != nil {
		panic(fmt.Sprintf("cache: duplicate MSHR for %#x", mem.LineAddr(addr)))
	}
	if f.used == len(f.entries) {
		return nil // full: the answer every retry of a stalled miss gets
	}
	for i := range f.entries {
		if !f.entries[i].Valid {
			m := &f.entries[i]
			w := m.Waiters[:0] // keep the waiter list's backing array
			*m = MSHR{Valid: true, Addr: mem.LineAddr(addr), Write: write, Waiters: w}
			f.addrs[i] = m.Addr
			f.used++
			return m
		}
	}
	return nil
}

// Free releases the MSHR, retaining the waiter list's capacity for the
// next allocation of this slot.
func (f *MSHRFile) Free(m *MSHR) {
	if m.Valid {
		f.used--
	}
	for i := range f.entries {
		if &f.entries[i] == m {
			f.addrs[i] = noTag
			break
		}
	}
	w := m.Waiters[:0]
	*m = MSHR{Waiters: w}
}

// InUse returns the number of live entries. O(1): the occupancy
// histogram samples it every cycle.
func (f *MSHRFile) InUse() int { return f.used }

// ForEach visits every live MSHR.
func (f *MSHRFile) ForEach(fn func(m *MSHR)) {
	for i := range f.entries {
		if f.entries[i].Valid {
			fn(&f.entries[i])
		}
	}
}
