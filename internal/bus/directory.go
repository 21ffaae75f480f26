package bus

import "tssim/internal/mem"

// ackPerTarget is the directory's per-destination invalidation/validate
// acknowledgement latency: a multicast of n probes completes
// n*ackPerTarget cycles after its address phase. The snooping buses
// have no such term — their combined response is free at the grant
// instant.
const ackPerTarget = 4

// dirMaxNodes bounds the directory's sharer vector (one uint64
// bitmask per line).
const dirMaxNodes = 64

// dirLine is the directory's per-line state at the memory side.
//
//	owner   — the node that may hold the line in M/E/O (-1: none;
//	          memory has custody of the value unless a transfer or a
//	          pending writeback is in flight)
//	sharers — nodes that may hold a readable copy (S/VS, and the
//	          owner itself)
//	tset    — ex-holders: nodes that may hold the line in MESTI's T
//	          state, or carry a live LL reservation, after losing the
//	          line. Validate multicasts here; invalidating requests
//	          must probe here too (a T holder reverts to I, a
//	          reservation must be killed).
//
// All three are conservative supersets: a node may silently drop a
// clean line (or revert-fail out of T) without telling the directory,
// so a listed node may in fact hold nothing. Probing such a node is
// wasted work but never wrong; the structural-identity argument
// (DESIGN.md §9, "The directory") is that the *complement* is exact —
// an unlisted node provably holds no protocol-relevant state for the
// line.
type dirLine struct {
	owner   int
	sharers uint64
	tset    uint64
}

// dirEntry returns the directory entry for a line address, lazily
// initializing to "memory has custody, nobody caches it".
func (b *Bus) dirEntry(addr uint64) *dirLine {
	if e, ok := b.dir[addr]; ok {
		return e
	}
	e := &dirLine{owner: -1}
	b.dir[addr] = e
	return e
}

// probeSet delivers the transaction to every node in the mask and
// combines their replies, returning the supplier (if any) and the
// probe count for ack-latency accounting.
func (b *Bus) probeSet(mask uint64, t *Txn) (*mem.Line, int) {
	var supplier *mem.Line
	probed := 0
	for id := 0; mask != 0 && id < len(b.ports); id++ {
		if mask&(1<<uint(id)) == 0 {
			continue
		}
		mask &^= 1 << uint(id)
		supplier = b.probe(id, t, supplier)
		probed++
	}
	b.cntProbes.Add(uint64(probed))
	return supplier, probed
}

// grantDir is the directory kind's grant. It replaces broadcast
// snooping with targeted probes: the same address-network arbitration
// and serialization order as the snoop bus, but transactions are
// filtered through per-line sharer state kept at the L3/memory side
// (Bus.dir). MESTI's T state and E-MESTI's VS state +
// useful-snoop-response survive as directory messages:
//
//   - Validate becomes a multicast to the line's tset (the possible
//     T-state holders), paying ackPerTarget per destination — the
//     scaling cost the paper's free snooped validate hides.
//   - The useful-response bit on ReadX/Upgrade is combined from the
//     actual probe replies only (VS holders withhold it there), never
//     synthesized from the — possibly stale — sharer mask, so the
//     validate predictor's training signal is identical to snooping.
//
// The requester's grant callback runs first (and may rewrite
// Upgrade→ReadX or cancel, same as on the bus); then the probe set is
// computed from the line's entry, the probes delivered and the entry
// updated — all within the grant instant, so grant order remains the
// machine-wide serialization order the checker assumes.
func (b *Bus) grantDir(t *Txn, now uint64) {
	if !b.acceptGrant(t, now) {
		return
	}
	e := b.dirEntry(t.Addr)
	src := uint64(1) << uint(t.Src)
	var supplier *mem.Line
	probed := 0
	switch t.Type {
	case TxnRead:
		// Only a dirty/exclusive owner must observe a read (M→O or
		// E→S); plain sharers keep their copies untouched, and the
		// Shared response is derived from the sharer mask — installing
		// S where a silently-dropped copy would have allowed E is the
		// one (legal) conservatism this costs.
		if e.owner >= 0 && e.owner != t.Src {
			supplier, probed = b.probeSet(uint64(1)<<uint(e.owner), t)
		}
		if e.sharers&^src != 0 {
			t.Shared = true
		}
		switch {
		case supplier != nil:
			// Dirty data came from the old owner; it keeps the line in
			// O and remains the owner of record.
		case t.Shared:
			// No dirty data: the old owner (if any) was E→S downgraded
			// or had silently dropped the line, and the requester
			// installs S.
			e.owner = -1
		default:
			// Nobody asserted shared: the requester installs E and may
			// later store silently (E→M without a transaction) — it
			// must become the owner of record now, or a later read
			// would skip the probe and return stale memory.
			e.owner = t.Src
		}
		e.sharers |= src
	case TxnReadX, TxnUpgrade:
		// Every node that may hold a copy, a T-state revert candidate,
		// or a reservation must see an invalidating request. Shared
		// (the useful-response bit) comes from the replies alone.
		targets := (e.sharers | e.tset) &^ src
		if e.owner >= 0 {
			targets |= uint64(1) << uint(e.owner)
			targets &^= src
		}
		supplier, probed = b.probeSet(targets, t)
		e.owner = t.Src
		e.sharers = src
		e.tset = targets // every probed ex-holder is now T or I: keep probeable
	case TxnValidate:
		// The validate multicast: only possible T holders care.
		// Matching holders revert to VS/S (readable again), mismatched
		// ones drop to I; both outcomes stay in the conservative
		// sharer superset.
		targets := e.tset &^ src
		supplier, probed = b.probeSet(targets, t)
		e.sharers |= targets
		e.tset = 0
	case TxnWriteback:
		// The evictor keeps no copy, but may still hold an LL
		// reservation on the line — move it to tset so a later
		// invalidating request still probes (and kills) it.
		if e.owner == t.Src {
			e.owner = -1
		}
		e.sharers &^= src
		e.tset |= src
	}

	acks := ackPerTarget * uint64(probed)
	if t.Type == TxnRead || t.Type == TxnReadX {
		b.scheduleData(t, supplier, now)
		if t.Type == TxnReadX && probed > 0 {
			// Invalidation acks can outlast the data transfer when the
			// probe fan-out is wide.
			if ackDone := now + uint64(b.cfg.AddrLatency) + acks; ackDone > t.doneAt {
				t.doneAt = ackDone
			}
		}
	}
	b.finishGrant(t, now, acks)
}
