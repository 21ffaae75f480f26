package predictor

// ElisionOutcome classifies how an SLE attempt (or a pass on one)
// ended. The paper's enhanced predictor (§4.2.3) applies different
// confidence changes per failure mode, because the modes mean
// different things: an idiom false positive (no release ever found) is
// close to permanent for that static instruction, while a transient
// data conflict says little about the idiom.
type ElisionOutcome int

// Elision outcomes.
const (
	ElisionSuccess   ElisionOutcome = iota // critical section elided atomically
	ElisionNoRelease                       // no reverting store before the restart threshold (idiom imprecision)
	ElisionConflict                        // remote request hit the speculative read/write set
	ElisionOverflow                        // critical section exceeded the ROB threshold
	ElisionUnsafe                          // context-serializing instruction touched unsafe state (§4.2.2)
)

// ElisionOutcomeCount is the number of distinct outcomes, for
// outcome-indexed tables (e.g. per-outcome abort counters).
const ElisionOutcomeCount = int(ElisionUnsafe) + 1

// String names the outcome for counters.
func (o ElisionOutcome) String() string {
	switch o {
	case ElisionSuccess:
		return "success"
	case ElisionNoRelease:
		return "no_release"
	case ElisionConflict:
		return "conflict"
	case ElisionOverflow:
		return "overflow"
	case ElisionUnsafe:
		return "unsafe"
	}
	return "unknown"
}

// The per-PC elision confidence tuning. The paper determined its
// update values empirically; these encode the same intent: start
// willing, punish idiom imprecision hard, forgive transient conflicts
// quickly. The first-touch confidence sits one step above the
// threshold, so an unseen ll/sc pair gets optimistic attempts and a
// single transient conflict does not permanently disable it, while one
// hard failure (idiom false positive, unsafe serialization) still does
// — the asymmetry §4.2.3 argues for.
const (
	elisionInitConf  = 5 // first-touch confidence
	elisionThreshold = 4 // attempt elision when confidence >= this
	elisionSatMax    = 7

	elisionSuccessInc   = 1 // reward for a successful elision
	elisionNoReleasePen = 3 // penalty for idiom false positives
	elisionConflictPen  = 1 // penalty for atomicity conflicts
	elisionOverflowPen  = 2 // penalty for ROB-threshold overflows
	elisionUnsafePen    = 3 // penalty for unsafe context serialization
)

// ElisionPredictor keeps hysteresis per static instruction (the PC of
// the store-conditional that would start elision). The paper notes the
// fundamental weakness it shares with any PC-indexed scheme: few
// static instructions participate in locking when locks live in kernel
// routines, so unrelated critical sections interfere. We reproduce
// that faithfully by indexing on PC alone.
type ElisionPredictor struct {
	entries map[uint64]int // pc -> confidence
}

// NewElisionPredictor builds a predictor with every PC at the
// first-touch confidence.
func NewElisionPredictor() *ElisionPredictor {
	return &ElisionPredictor{entries: make(map[uint64]int)}
}

func (e *ElisionPredictor) conf(pc uint64) int {
	if c, ok := e.entries[pc]; ok {
		return c
	}
	return elisionInitConf
}

// ShouldAttempt reports whether SLE should try to elide the critical
// section starting at the given SC's PC.
func (e *ElisionPredictor) ShouldAttempt(pc uint64) bool {
	return e.conf(pc) >= elisionThreshold
}

// Record updates confidence for the PC after an attempt's outcome.
func (e *ElisionPredictor) Record(pc uint64, o ElisionOutcome) {
	c := e.conf(pc)
	switch o {
	case ElisionSuccess:
		c += elisionSuccessInc
	case ElisionNoRelease:
		c -= elisionNoReleasePen
	case ElisionConflict:
		c -= elisionConflictPen
	case ElisionOverflow:
		c -= elisionOverflowPen
	case ElisionUnsafe:
		c -= elisionUnsafePen
	}
	e.entries[pc] = min(max(c, 0), elisionSatMax)
}

// Confidence exposes the per-PC confidence for tests.
func (e *ElisionPredictor) Confidence(pc uint64) int { return e.conf(pc) }
