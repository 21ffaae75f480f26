// Package core implements the paper's primary contribution: the
// per-node cache/coherence controller speaking MOESI augmented with
// the MESTI temporally-invalid (T) state and validate transaction
// (Figure 2), the Enhanced-MESTI Validate_Shared state, useful snoop
// response, and useful-validate coherence predictor (Figures 3 and 4),
// plus the controller half of LVP — speculative value delivery from
// tag-match invalid lines with MSHR-based verification (§3.2).
//
// One Controller sits between each simulated CPU core and the snooping
// bus, owning a two-level private hierarchy: an L1-D presence array
// (latency filter) over an L2 that holds the coherence state and data.
// The L2 is the coherence point, as in the paper (§2.5); the L2 data
// is kept current with every performed store, so external snoops are
// always serviced from the L2 — the paper's property that "the most
// up-to-date copy always resides in either the L1-D or the L2" with
// the write-through maintained invisibly by the simulator.
package core

import (
	"strings"

	"tssim/internal/cache"
	"tssim/internal/predictor"
	"tssim/internal/trace"
)

// State is the coherence state of an L2 line. The protocol is MOESTI:
// MOESI (the Gigaplane-XB baseline of Table 1) plus MESTI's T state
// and E-MESTI's Validate_Shared.
type State = uint8

// Protocol states.
const (
	StateI State = iota // invalid (tag and data may be retained: tag-match invalid)
	StateS              // shared, clean
	StateE              // exclusive, clean
	StateO              // owned: shared, dirty, this node supplies data
	StateM              // modified: exclusive, dirty
	StateT              // temporally invalid: invalid, holding the last
	// globally visible value as a reversion candidate (MESTI)
	StateVS // Validate_Shared: revalidated but untouched since (E-MESTI)
)

// StateName renders a protocol state for diagnostics; the names are
// trace's, which labels the states its KState events carry.
func StateName(s State) string { return trace.StateName(s) }

// Per-line protocol facts kept in the L2 frame beside the state
// (cache.Line.Flags), where the paper keeps them: in the L2 tags. A
// reallocated frame starts with none; enterT clears them.
const (
	// FlagSilent: a dirty (M or O) line has reverted to its previous
	// globally visible value and no intermediate-value store followed.
	FlagSilent uint8 = 1 << iota
	// FlagRevalidated: a snooped validate moved the line T -> S/VS at
	// cycle Stamp (mod 2^32) and no local load or store-buffer request
	// has used it since. A fill or a prefetched upgrade is not a use: the
	// flag can ride into E, M or O, never into I or T.
	FlagRevalidated
)

// Readable reports whether a local load may hit on the state.
func Readable(s State) bool {
	switch s {
	case StateS, StateE, StateO, StateM, StateVS:
		return true
	}
	return false
}

// Writable reports whether a local store may perform without a bus
// transaction.
func Writable(s State) bool { return s == StateE || s == StateM }

// Dirty reports whether eviction of the state requires a writeback.
func Dirty(s State) bool { return s == StateM || s == StateO }

// Upgradable reports whether write permission can be obtained with a
// dataless Upgrade (the node holds current data).
func Upgradable(s State) bool { return s == StateS || s == StateO }

// Techniques selects which of the paper's mechanisms are active.
// The zero value is the MOESI baseline.
type Techniques struct {
	MESTI  bool // T state + always-validate (the original MESTI); update-silent stores dropped
	EMESTI bool // MESTI + useful-validate coherence prediction
	LVP    bool // load value prediction from tag-match invalid lines
	SLE    bool // speculative lock elision
}

// Effective returns the combination as the machine runs it: E-MESTI
// is built on MESTI, so EMESTI turns MESTI on. This is the one place
// the rule is written; the controller, the checker and the technique
// parser apply it.
func (t Techniques) Effective() Techniques {
	t.MESTI = t.MESTI || t.EMESTI
	return t
}

// String renders the combination the way the paper's figures label it:
// the protocol (MESTI, or E-MESTI which includes it), then LVP, then
// SLE, joined with "+"; "Baseline" when nothing is on.
func (t Techniques) String() string {
	var parts []string
	switch {
	case t.EMESTI:
		parts = append(parts, "E-MESTI")
	case t.MESTI:
		parts = append(parts, "MESTI")
	}
	if t.LVP {
		parts = append(parts, "LVP")
	}
	if t.SLE {
		parts = append(parts, "SLE")
	}
	if len(parts) == 0 {
		return "Baseline"
	}
	return strings.Join(parts, "+")
}

// Config configures one node's controller.
type Config struct {
	L1 cache.Config // L1-D presence array (latency filter)
	L2 cache.Config // coherence point, holds state and data

	MSHRs    int // outstanding-miss limit (bounds MLP)
	StoreBuf int // post-retirement store buffer capacity

	ValidateParams predictor.ValidateParams // E-MESTI predictor tuning

	// StaleBytes sizes the stale storage (8-way) of the finite
	// L1-Mirror/stale-storage detector, whose mirror has L1's
	// organization; 0 selects the perfect detector (the paper's
	// assumption for performance studies). Only read when MESTI is on;
	// the Figure 6 experiment varies it.
	StaleBytes int
}

// The hit latencies, in cycles: Table 1's ratios, scaled.
const (
	L1Latency = 2 // an L1 hit
	L2Latency = 4 // an L2 hit, on top of L1Latency
)

// occSampleEvery is the occupancy-histogram (occ/mshr, occ/storebuf)
// sampling stride: one observation every 8th cycle per controller.
// Occupancies drift over miss-service timescales (tens to hundreds of
// cycles), so the stride loses no shape while removing two histogram
// updates per controller from 7 of every 8 cycles of the hot loop. The
// curves are statistics, not simulation state: cycle counts and event
// counters do not depend on it.
const occSampleEvery = 8

// DefaultConfig returns a scaled-down version of the paper's Table 1
// per-node hierarchy. The paper's 64KB L1-D / 512KB L1 / 16MB L2 per
// node shrink to 16KB / 256KB while the workloads shrink accordingly;
// all latency ratios are preserved (L1Latency, L2Latency).
func DefaultConfig() Config {
	return Config{
		L1:       cache.Config{SizeBytes: 16 * 1024, Assoc: 4},
		L2:       cache.Config{SizeBytes: 256 * 1024, Assoc: 8},
		MSHRs:    8,
		StoreBuf: 16,
	}
}

// LoadStatus classifies the controller's immediate answer to a load.
type LoadStatus int

// Load outcomes.
const (
	LoadHit   LoadStatus = iota // value returned now, after Lat cycles
	LoadMiss                    // value arrives later via Client.LoadDone
	LoadSpec                    // speculative value now; verification later
	LoadRetry                   // structural hazard; reissue next cycle
)

// LoadResult is the immediate answer to Controller.Load.
type LoadResult struct {
	Status LoadStatus
	Value  uint64 // valid for LoadHit and LoadSpec
	Lat    int    // cycles until the value may be used (Hit/Spec)

	// Counted marks a LoadRetry that bumped l1/miss, l2/miss and
	// l2/mshr_full on its way to the exhausted MSHR file — the retry
	// repeats those bumps every cycle until an entry frees. A LoadRetry
	// without it changed nothing.
	Counted bool
}

// Client is the CPU-side listener for asynchronous controller events.
type Client interface {
	// LoadDone delivers the (architecturally correct) value for a
	// load that previously returned LoadMiss.
	LoadDone(seq uint64, value uint64)
	// LoadsVerified marks previously speculative (LoadSpec) loads as
	// verified correct; they may now retire.
	LoadsVerified(seqs []uint64)
	// SquashSpec orders the core to recover from an LVP value
	// misprediction: seqs are the ops that received speculative
	// values from the failing line. The core squashes from the
	// oldest of them still in flight (dead ones were already
	// squashed for other reasons and re-fetched clean).
	SquashSpec(seqs []uint64)
	// SCDone reports the outcome of a store-conditional previously
	// submitted with SCExecute.
	SCDone(seq uint64, success bool)
	// ExternalSnoop observes every transaction this node snoops from
	// the bus; the SLE engine uses it for atomicity-violation
	// detection. isWrite is true for invalidating transactions
	// (ReadX/Upgrade).
	ExternalSnoop(lineAddr uint64, isWrite bool)
}

// SpecStore is one speculatively buffered SLE store presented for
// atomic commit.
type SpecStore struct {
	Addr  uint64
	Value uint64
}

// CheckSink receives store-visibility events from a controller for the
// machine-wide coherence checker (internal/check). The checker needs
// them because a store to an M/E line performs with no bus transaction
// at all — the bus serialization hook alone cannot maintain a golden
// memory. All addresses are word-aligned. A nil sink costs one pointer
// comparison per event site.
type CheckSink interface {
	// StoreBuffered fires when a retired store (or an executing SC)
	// enters the post-retirement store buffer.
	StoreBuffered(node int, addr, val uint64, isSC bool)
	// StoreDrained fires when the buffer head leaves the buffer:
	// performed=true for a store that wrote its line, false for a
	// failed SC or an update-silent squash.
	StoreDrained(node int, addr uint64, performed bool)
	// StorePerformed fires at the instant a store becomes globally
	// visible (performStore): buffer drain, upgrade grant, or SLE
	// atomic commit.
	StorePerformed(node int, addr, val uint64)
}
