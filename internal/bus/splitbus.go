package bus

import (
	"fmt"
	"math/rand"

	"tssim/internal/mem"
	"tssim/internal/stats"
)

// DefaultMaxOutstanding is the split-transaction bus's in-flight
// transaction bound when Config.MaxOutstanding is zero.
const DefaultMaxOutstanding = 8

// SplitBus is a split-transaction/pipelined variant of the snoop bus:
// the address network still grants one transaction per AddrOccupancy
// and snoops it atomically at the grant instant (so serialization and
// the combined response are identical to the atomic bus), but the data
// network is arbitrated separately — a transfer claims the data bus
// only once its payload is ready (grant + source latency), holding it
// for DataOccupancy — and the number of outstanding transactions is
// bounded by MaxOutstanding, stalling further address grants at
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
	maxOut int
}

// NewSplit builds a split-transaction bus over the given backing
// memory.
func NewSplit(cfg Config, memory *mem.Memory, counters *stats.Counters, rng *rand.Rand) *SplitBus {
	b := New(cfg, memory, counters, rng)
	mo := cfg.MaxOutstanding
	if mo <= 0 {
		mo = DefaultMaxOutstanding
	}
	return &SplitBus{Bus: b, maxOut: mo}
}

// MaxOutstanding returns the effective in-flight transaction bound.
func (sb *SplitBus) MaxOutstanding() int { return sb.maxOut }

// Tick advances the bus one cycle. Address grants additionally require
// a free transaction slot.
func (sb *SplitBus) Tick(now uint64) {
	sb.now = now
	sb.releaseHolds(now)
	if now >= sb.addrFree && len(sb.inflight) < sb.maxOut {
		if t := sb.nextRequest(); t != nil {
			sb.grantSplit(t, now)
		}
	}
	sb.deliver(now)
}

// NextEvent mirrors Bus.NextEvent with one change: the grant term only
// applies while a transaction slot is free. At capacity the queues
// unblock only at a delivery, which the in-flight term already covers.
func (sb *SplitBus) NextEvent(now uint64) uint64 {
	next := ^uint64(0)
	for _, t := range sb.inflight {
		if t.doneAt < next {
			next = t.doneAt
		}
	}
	for _, h := range sb.holds {
		if h.at < next {
			next = h.at
		}
	}
	if len(sb.inflight) < sb.maxOut {
		for _, q := range sb.queues {
			if len(q) == 0 || sb.busyCount(q[0].Addr) > 0 {
				continue
			}
			if sb.addrFree <= now {
				return now
			}
			if sb.addrFree < next {
				next = sb.addrFree
			}
		}
	}
	return next
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
	switch t.Type {
	case TxnRead, TxnReadX:
		t.HasData = true
		sb.busyInc(t.Addr)
		var base uint64
		if supplier != nil {
			t.Data = *supplier
			base = uint64(sb.cfg.C2CLatency)
			sb.cntC2C.Inc()
		} else {
			t.Data = sb.memory.ReadLine(t.Addr)
			base = uint64(sb.cfg.MemLatency)
			sb.cntMem.Inc()
		}
		start := now + base + sb.jitter()
		if sb.dataFree > start {
			start = sb.dataFree
		}
		sb.dataFree = start + uint64(sb.cfg.DataOccupancy)
		t.doneAt = sb.dataFree
	case TxnWriteback:
		sb.memory.WriteLine(t.Addr, t.WData)
		t.doneAt = now + uint64(sb.cfg.AddrLatency)
	case TxnUpgrade, TxnValidate:
		t.doneAt = now + uint64(sb.cfg.AddrLatency)
	default:
		panic(fmt.Sprintf("splitbus: unknown txn type %d", t.Type))
	}
	sb.finishGrant(t, now)
}
