// Package mem implements the functional (value-accurate) physical
// memory that backs the simulated multiprocessor, plus line-address
// arithmetic shared by the cache and coherence packages.
//
// The simulator is execution driven: every load returns real bytes and
// every store writes real bytes, because temporal silence, update
// silence, and LVP verification are all *value* properties. Memory is
// sparse (allocated line by line) so workloads can use scattered
// address spaces without preallocating gigabytes.
package mem

import "fmt"

// LineShift is log2 of the coherence line size. The paper's machine
// uses 64-byte lines throughout; the whole simulator assumes this
// granule for coherence, temporal-silence detection, and stale
// storage.
const LineShift = 6

// LineSize is the coherence line size in bytes.
const LineSize = 1 << LineShift

// LineMask masks the offset bits of an address.
const LineMask = LineSize - 1

// WordSize is the access granule used by the simulated ISA: all loads
// and stores move one aligned 8-byte word. Sub-line sharing (false
// sharing, per-word dirty bits, LVP offset tracking) is modeled at
// this granularity.
const WordSize = 8

// WordsPerLine is the number of ISA words in one coherence line.
const WordsPerLine = LineSize / WordSize

// LineAddr returns the line-aligned base of addr.
func LineAddr(addr uint64) uint64 { return addr &^ uint64(LineMask) }

// WordIndex returns the word slot of addr within its line.
func WordIndex(addr uint64) int { return int(addr&LineMask) >> 3 }

// AlignWord rounds addr down to an 8-byte boundary.
func AlignWord(addr uint64) uint64 { return addr &^ (WordSize - 1) }

// Line is the value of one coherence line, stored as words because the
// ISA only performs word accesses.
type Line [WordsPerLine]uint64

// Equal reports whether two lines hold identical values. This is the
// comparison at the heart of temporal-silence detection.
func (l *Line) Equal(other *Line) bool { return *l == *other }

// Word returns the word at the given slot.
func (l *Line) Word(idx int) uint64 { return l[idx] }

// SetWord stores a word at the given slot.
func (l *Line) SetWord(idx int, v uint64) { l[idx] = v }

// Memory is the authoritative backing store. It hands out and accepts
// whole lines; the coherence protocol decides when memory's copy is
// stale (a dirty line lives in some cache until written back).
type Memory struct {
	lines map[uint64]*Line
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{lines: make(map[uint64]*Line)}
}

// line returns the storage for the line containing addr, allocating a
// zero line on first touch.
func (m *Memory) line(addr uint64) *Line {
	base := LineAddr(addr)
	l, ok := m.lines[base]
	if !ok {
		l = new(Line)
		m.lines[base] = l
	}
	return l
}

// ReadLine copies out the line containing addr.
func (m *Memory) ReadLine(addr uint64) Line {
	return *m.line(addr)
}

// WriteLine replaces the line containing addr (a cache writeback).
func (m *Memory) WriteLine(addr uint64, data Line) {
	*m.line(addr) = data
}

// ReadWord returns the aligned 8-byte word at addr. The low three
// address bits are ignored.
func (m *Memory) ReadWord(addr uint64) uint64 {
	return m.line(addr).Word(WordIndex(addr))
}

// WriteWord stores an aligned 8-byte word at addr. Intended for
// initialization and for direct functional accesses in tests; during
// simulation stores flow through the cache hierarchy.
func (m *Memory) WriteWord(addr uint64, v uint64) {
	m.line(addr).SetWord(WordIndex(addr), v)
}

// String describes the memory footprint.
func (m *Memory) String() string {
	return fmt.Sprintf("mem{%d lines, %d KiB}", len(m.lines), len(m.lines)*LineSize/1024)
}
