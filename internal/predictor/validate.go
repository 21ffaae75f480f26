// Package predictor implements the paper's two confidence mechanisms:
// the address-based useful-validate predictor that turns MESTI into
// Enhanced MESTI (Figure 4), and the per-static-instruction elision
// confidence predictor that keeps SLE from wrecking commercial
// workloads (§4.2.3).
package predictor

import "tssim/internal/mem"

// ValidateSatMax is the useful-validate confidence ceiling: the
// counter is 3 bits wide (§2.4.2), so it saturates at 7, the last
// number of the paper's tuning.
const ValidateSatMax = 7

// ValidateParams are the tunable constants of the useful-validate
// predictor, written <init>-<threshold>-<inc>-<dec>-<sat> in the
// paper, sat being ValidateSatMax. The published tuning is 3-4-1-1-7.
type ValidateParams struct {
	InitConf  int // confidence assigned on first (cold) touch
	Threshold int // validate broadcast when confidence >= Threshold
	Inc       int // confidence increment on useful evidence
	Dec       int // confidence decrement on useless evidence
}

// DefaultValidateParams returns the paper's published 3-4-1-1-7
// tuning. Note init (3) sits just below threshold (4): a cold line
// does not validate until one piece of useful evidence arrives.
func DefaultValidateParams() ValidateParams {
	return ValidateParams{InitConf: 3, Threshold: 4, Inc: 1, Dec: 1}
}

// vState is the 2-bit Mealy machine state of Figure 4(B).
type vState uint8

const (
	vStart      vState = iota // nothing pending
	vTSDetected               // line is temporally silent
	vUpgradeReq               // intermediate-value store made visible,
	// awaiting the combined useful snoop response
)

type vEntry struct {
	state vState
	conf  int
}

// ValidatePredictor decides, per L2 line, whether a detected temporal
// silence is worth a validate broadcast. Storage is logically part of
// the L2 tag array (2 bits of state + a 3-bit counter per line,
// §2.4.2); here it is a map that the cache controller trims on L2
// evictions so capacity tracks the L2 exactly. A line is tracked from
// its first detected silence: an untracked one is in Start at the cold
// confidence, which is what every other event leaves alone.
type ValidatePredictor struct {
	params  ValidateParams
	entries map[uint64]vEntry
}

// NewValidatePredictor builds a predictor with the given tuning.
func NewValidatePredictor(p ValidateParams) *ValidatePredictor {
	return &ValidatePredictor{params: p, entries: make(map[uint64]vEntry)}
}

// step moves a line waiting in from back to Start, its confidence
// changed by delta and clamped to [0, ValidateSatMax], or on to next
// when that is not Start.
func (v *ValidatePredictor) step(addr uint64, from, next vState, delta int) {
	la := mem.LineAddr(addr)
	e, ok := v.entries[la]
	if !ok || e.state != from {
		return
	}
	e.state = next
	e.conf = min(max(e.conf+delta, 0), ValidateSatMax)
	v.entries[la] = e
}

// OnTSDetect is the (*) transition of Figure 4: temporal silence was
// just detected for the line. The machine moves to TS-Detected and the
// confidence is read to decide whether to broadcast a validate.
func (v *ValidatePredictor) OnTSDetect(addr uint64) (sendValidate bool) {
	conf := v.Confidence(addr)
	v.entries[mem.LineAddr(addr)] = vEntry{state: vTSDetected, conf: conf}
	return conf >= v.params.Threshold
}

// OnExternalReq observes a remote request (Read/ReadX) for the line.
// Arriving while the line is temporally silent, it is proof the
// silence was useful — either a validate prevented this node from
// seeing the miss sooner, or a suppressed validate would have
// prevented the miss the remote node just took. Confidence rises and
// the machine returns to Start.
func (v *ValidatePredictor) OnExternalReq(addr uint64) {
	v.step(addr, vTSDetected, vStart, v.params.Inc)
}

// OnIntermediateStoreVisible fires when a non-update-silent store to a
// TS-detected line is made globally visible (the upgrade/ReadX was
// issued). The machine waits in L2-Upgrade-Request for the combined
// useful snoop response, which arrives after the coherence agent
// collects all responses (§2.4.1).
func (v *ValidatePredictor) OnIntermediateStoreVisible(addr uint64) {
	v.step(addr, vTSDetected, vUpgradeReq, 0)
}

// OnIntermediateStoreSilentlyLocal fires when a non-update-silent
// store ends the temporally silent period *without* a bus transaction
// (the validate had been suppressed, so the line was still M and the
// store is invisible). No useful snoop response exists to train on;
// the machine just returns to Start. Training in suppressed mode comes
// solely from OnExternalReq — i.e. from the misses that reappear,
// exactly as §2.4.1 describes.
func (v *ValidatePredictor) OnIntermediateStoreSilentlyLocal(addr uint64) {
	v.step(addr, vTSDetected, vStart, 0)
}

// OnUsefulResponse delivers the combined useful snoop response for the
// intermediate-value store's upgrade. Useful (some remote S-holder,
// meaning a processor consumed the validate) trains up; useless (only
// Validate_Shared or invalid remote copies) trains down.
func (v *ValidatePredictor) OnUsefulResponse(addr uint64, useful bool) {
	delta := -v.params.Dec
	if useful {
		delta = v.params.Inc
	}
	v.step(addr, vUpgradeReq, vStart, delta)
}

// Evict discards predictor state for the line (L2 eviction); the next
// touch re-initializes at cold confidence.
func (v *ValidatePredictor) Evict(addr uint64) {
	delete(v.entries, mem.LineAddr(addr))
}

// Confidence exposes the current confidence for tests and debugging.
func (v *ValidatePredictor) Confidence(addr uint64) int {
	if e, ok := v.entries[mem.LineAddr(addr)]; ok {
		return e.conf
	}
	return v.params.InitConf
}

// Entries returns the number of lines currently tracked.
func (v *ValidatePredictor) Entries() int { return len(v.entries) }
