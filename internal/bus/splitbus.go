package bus

import (
	"math/rand"

	"tssim/internal/mem"
	"tssim/internal/stats"
)

// maxOutstanding is the split-transaction bus's in-flight transaction
// bound.
const maxOutstanding = 8

// SplitBus is a split-transaction/pipelined variant of the snoop bus:
// the address network still grants one transaction per AddrOccupancy
// and snoops it atomically at the grant instant (so serialization and
// the combined response are identical to the atomic bus), but the data
// network is arbitrated separately — a transfer claims the data bus
// only once its payload is ready (grant + source latency), holding it
// for DataOccupancy — and the number of outstanding transactions is
// bounded by maxOutstanding, stalling further address grants at
// capacity the way a real split bus runs out of transaction tags.
//
// Contrast with the atomic bus, which reserves its data-network slot
// at the grant instant (transfer initiation occupancy): under load the
// split bus serializes transfers back-to-back at data-ready time,
// which both reorders contention and widens the grant-to-completion
// window — the window the upgrade-steal path (internal/core snoop.go)
// must tolerate.
type SplitBus struct {
	*Bus
}

// NewSplit builds a split-transaction bus over the given backing
// memory.
func NewSplit(cfg Config, memory *mem.Memory, counters *stats.Counters, rng *rand.Rand) *SplitBus {
	sb := &SplitBus{New(cfg, memory, counters, rng)}
	sb.maxInflight = maxOutstanding
	sb.grantFn = sb.grantSplit
	return sb
}

// grantSplit is Bus.grant with the split data-network schedule: the
// payload becomes ready at grant + source latency (+ jitter), then
// waits for the data bus and occupies it for DataOccupancy, completing
// when the transfer ends. doneAt is still fully determined at the
// grant instant, so NextEvent and fast-forward work unchanged.
func (sb *SplitBus) grantSplit(t *Txn, now uint64) {
	if !sb.acceptGrant(t, now) {
		return
	}
	supplier := sb.snoopCombine(t)
	if t.Type == TxnRead || t.Type == TxnReadX {
		start := now + sb.sourceData(t, supplier)
		if sb.dataFree > start {
			start = sb.dataFree
		}
		sb.dataFree = start + uint64(sb.cfg.DataOccupancy)
		t.doneAt = sb.dataFree
	}
	sb.finishGrant(t, now, 0)
}
