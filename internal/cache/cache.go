// Package cache provides the storage structures under the coherence
// protocol: set-associative arrays with LRU replacement, and miss
// status holding registers (MSHRs) with the speculative-delivery
// tracking LVP needs. Temporal silence is detected by comparing whole
// lines, in the controller and internal/stale, not here.
//
// The array is protocol-agnostic: line state is an opaque byte owned
// by the coherence layer. Crucially, lines keep their tag and data
// when invalidated — a line whose state byte maps to "invalid" but
// whose tag still matches is exactly the paper's *tag-match invalid*
// line, the value-prediction source for LVP and the storage for
// MESTI's temporally-invalid (T) copies.
package cache

import (
	"fmt"

	"tssim/internal/mem"
)

// Config sizes one cache array.
type Config struct {
	SizeBytes int // total capacity
	Assoc     int // ways per set
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int {
	lines := c.SizeBytes / mem.LineSize
	if c.Assoc <= 0 || lines < c.Assoc {
		return 1
	}
	return lines / c.Assoc
}

// Validate checks the configuration for common sizing mistakes.
func (c Config) Validate() error {
	if c.SizeBytes < mem.LineSize {
		return fmt.Errorf("cache: size %dB smaller than one line", c.SizeBytes)
	}
	if c.Assoc < 1 {
		return fmt.Errorf("cache: associativity %d < 1", c.Assoc)
	}
	sets := c.SizeBytes / mem.LineSize / c.Assoc
	if sets == 0 {
		return fmt.Errorf("cache: %dB / %d ways yields no sets", c.SizeBytes, c.Assoc)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Line is one cache entry. Allocated reports whether the tag is valid
// (the frame holds *some* line); State is owned by the coherence
// layer and may well be an "invalid" state while the tag and data are
// retained, and so are Flags and Stamp: per-line protocol facts that
// live and die with the frame (Allocate and Drop zero them, so a frame
// that changes tenant forgets by construction). The small fields sit
// together in the eight bytes ahead of Addr so the struct packs into 88
// bytes: an L2 of them is most of what a machine allocates.
type Line struct {
	Allocated bool
	State     uint8  // opaque protocol state
	Flags     uint8  // opaque protocol flag bits
	Stamp     uint32 // opaque protocol time stamp
	Addr      uint64 // line-aligned address
	Data      mem.Line
	lru       uint64 // recency stamp
}

// noTag marks an unallocated frame in the dense tag array. It can
// never collide with a real line address: line addresses are
// line-aligned, so their low bits are zero.
const noTag = ^uint64(0)

// Cache is one set-associative array with true-LRU replacement.
//
// Frames are stored set-major in one flat slice, with the tags
// duplicated in a parallel dense uint64 array. Lookup — the hottest
// operation in the whole simulator — scans only the tag array: the
// ways of one set are Assoc consecutive words (a single host cache
// line for typical associativities) instead of Line structs ~90 bytes
// apart, and the unallocated case needs no separate flag check thanks
// to the noTag sentinel. The invariant, maintained by Allocate and
// Drop (the only identity mutations), is
// tags[i] == lines[i].Addr when lines[i].Allocated, else noTag.
type Cache struct {
	cfg     Config
	assoc   int
	setMask uint64
	tags    []uint64 // dense tag-match array, noTag = unallocated
	lines   []Line   // frame storage, lines[set*assoc+way]
	clock   uint64

	// Evictable, if non-nil, is consulted before choosing a victim;
	// frames whose line it rejects are skipped when possible. The
	// coherence layer uses it to avoid evicting lines with pending
	// transactions.
	Evictable func(l *Line) bool
}

// New builds an array from the configuration; it panics on invalid
// configs since those are construction-time bugs.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:     cfg,
		assoc:   cfg.Assoc,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, sets*cfg.Assoc),
		lines:   make([]Line, sets*cfg.Assoc),
	}
	for i := range c.tags {
		c.tags[i] = noTag
	}
	return c
}

// Config returns the sizing this array was built with.
func (c *Cache) Config() Config { return c.cfg }

// setBase returns the index of the first way of the line's set in the
// flat frame and tag arrays.
func (c *Cache) setBase(lineAddr uint64) int {
	return int((lineAddr>>mem.LineShift)&c.setMask) * c.assoc
}

// Lookup returns the frame holding the line containing addr, or nil.
// It does not touch recency; callers decide what counts as a use.
func (c *Cache) Lookup(addr uint64) *Line {
	la := mem.LineAddr(addr)
	base := c.setBase(la)
	tags := c.tags[base : base+c.assoc]
	for i := range tags {
		if tags[i] == la {
			return &c.lines[base+i]
		}
	}
	return nil
}

// Touch marks the line as most recently used.
func (c *Cache) Touch(l *Line) {
	c.clock++
	l.lru = c.clock
}

// Allocate installs a frame for the line containing addr and returns
// it along with a copy of the displaced line (evicted.Allocated is
// false when the frame was free). The caller must set State and Data;
// the frame is returned zeroed apart from Addr and recency.
func (c *Cache) Allocate(addr uint64) (frame *Line, evicted Line) {
	la := mem.LineAddr(addr)
	// One pass over the set does the residency check (a caller bug)
	// and the victim choice together: a free frame if there is one,
	// else the least recently used the Evictable hook accepts, else
	// the least recently used.
	base := c.setBase(la)
	set := c.lines[base : base+c.assoc]
	victim, fallback, free := -1, -1, -1
	for i := range set {
		f := &set[i]
		if !f.Allocated {
			if free < 0 {
				free = i
			}
			continue
		}
		if f.Addr == la {
			panic(fmt.Sprintf("cache: Allocate(%#x) but line resident", la))
		}
		if free >= 0 {
			continue // free frame wins; only the residency check remains
		}
		if fallback < 0 || f.lru < set[fallback].lru {
			fallback = i
		}
		if c.Evictable != nil && !c.Evictable(f) {
			continue
		}
		if victim < 0 || f.lru < set[victim].lru {
			victim = i
		}
	}
	way := free
	if way < 0 {
		way = victim
	}
	if way < 0 {
		way = fallback
	}
	frame = &set[way]
	evicted = *frame
	c.clock++
	*frame = Line{Allocated: true, Addr: la, lru: c.clock}
	c.tags[base+way] = la
	return frame, evicted
}

// Drop deallocates the line containing addr entirely (tag and data
// discarded). Used when retained stale data must not survive, e.g.
// after an eviction at an outer level of an inclusive hierarchy.
func (c *Cache) Drop(addr uint64) bool {
	la := mem.LineAddr(addr)
	base := c.setBase(la)
	tags := c.tags[base : base+c.assoc]
	for i := range tags {
		if tags[i] == la {
			tags[i] = noTag
			c.lines[base+i] = Line{}
			return true
		}
	}
	return false
}

// ForEach visits every allocated frame.
func (c *Cache) ForEach(fn func(l *Line)) {
	for i := range c.lines {
		if c.lines[i].Allocated {
			fn(&c.lines[i])
		}
	}
}
