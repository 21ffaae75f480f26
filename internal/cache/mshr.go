package cache

import (
	"fmt"

	"tssim/internal/mem"
)

// Waiter is one in-flight load blocked on an outstanding miss.
type Waiter struct {
	Seq     uint64 // program-order sequence number of the load
	WordIdx int    // word within the line the load reads
	GotSpec bool   // received a speculative (LVP) value at issue
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

	// What merged into this miss, whether or not its loads are still in
	// flight: Merge sets them, Alloc and Free clear them.
	LoadMerged bool   // a load merged
	LLSeq      uint64 // the oldest load-locked that merged (0 = none): the fill arms the reservation with it

	// LVP speculative state.
	SpecDelivered bool     // some value was speculatively delivered
	SpecWords     uint8    // bitmask of word slots delivered
	SpecData      mem.Line // predicted line contents at delivery time
	OldestSeq     uint64   // oldest op with speculative data

	// Waiters are the merged loads still in flight, in merge order: a
	// squash drops the ones it killed (DropWaitersAfter).
	Waiters []Waiter
}

// Merge attaches a load to the miss.
func (m *MSHR) Merge(w Waiter, isLL bool) {
	m.Waiters = append(m.Waiters, w)
	m.LoadMerged = true
	if isLL && (m.LLSeq == 0 || w.Seq < m.LLSeq) {
		m.LLSeq = w.Seq
	}
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

// initWaiterCap pre-sizes each MSHR's waiter list. A waiter is a load
// still in flight (a squash drops the ones it kills), so a list is
// bounded by the core's in-flight loads: 128 with the default LSQ. Most
// misses serve one or two loads; a list reaches the bound only when a
// whole window waits on one line, and then it grows at most three times
// (16 → 32 → 64 → 128), after which Alloc/Free keep the capacity and the
// steady-state cycle loop allocates nothing.
const initWaiterCap = 16

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

// DropWaitersAfter removes from every live MSHR the waiters younger than
// seq — the loads a squash at seq killed — keeping the rest in order and
// each list's capacity.
func (f *MSHRFile) DropWaitersAfter(seq uint64) {
	for i := range f.entries {
		m := &f.entries[i]
		keep := m.Waiters[:0]
		for _, w := range m.Waiters {
			if w.Seq <= seq {
				keep = append(keep, w)
			}
		}
		m.Waiters = keep
	}
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
