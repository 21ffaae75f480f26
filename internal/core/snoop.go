package core

import (
	"fmt"

	"tssim/internal/bus"
	"tssim/internal/cache"
	"tssim/internal/mem"
	"tssim/internal/trace"
)

// This file implements the bus.Port interface: the protocol's
// serialization-point actions. All state transitions for a
// transaction happen at its grant instant — GrantTxn on the requester,
// SnoopTxn on everyone else — which is what makes the bus the
// coherence order. CompleteTxn only delivers data/timing back to the
// requester.

// GrantTxn validates and applies the requester-side transition at the
// serialization point.
func (c *Controller) GrantTxn(t *bus.Txn) bool {
	c.Wake()
	c.idle = false
	la := t.Addr
	switch t.Type {
	case bus.TxnValidate:
		// The validate is only meaningful if this node still owns
		// the dirty line (M, or O after a remote read slipped in
		// while the validate was queued) and it is still reverted: a
		// snooped invalidation, an eviction or an intervening store
		// clears the flag.
		l := c.l2.Lookup(la)
		if l == nil || l.Flags&FlagSilent == 0 {
			c.cnt.mestiValCancelled.Inc()
			c.tr.Emit(trace.Event{Kind: trace.KValCancel, Node: int32(c.id), Addr: la})
			return false
		}
		if !l.Data.Equal(&t.WData) {
			// Silent implies the data still matches the payload
			// captured at detection.
			panic(fmt.Sprintf("core: validate payload diverged for %#x", la))
		}
		// The validating processor foregoes exclusive access: the
		// reverted value becomes globally visible again and this
		// node remains the (shared) owner of the dirty line.
		c.setState(l, StateO)
		return true

	case bus.TxnUpgrade:
		l := c.l2.Lookup(la)
		if l != nil {
			// A copy invalidated to T and revalidated to VS while the
			// Upgrade waited is current: the grant is its use.
			c.useVS(l)
		}
		if l == nil || !Upgradable(l.State) {
			// Upgrade race lost: the line was invalidated between
			// enqueue and grant. Convert to a full ReadX in place.
			t.Type = bus.TxnReadX
			c.cnt.cohUpgradeConverted.Inc()
			return true
		}
		// Serialization point of the write. The reversion candidate
		// is captured only at a clean->dirty boundary (Figure 2's
		// bold PrWr arcs): upgrading from S starts a new dirty
		// episode, but upgrading from O (we were downgraded by a
		// remote read mid-episode — e.g. a spinner polling a held
		// lock) must keep the candidate from when the line was
		// *initially* dirtied, or the release would never look
		// silent (§2.5.1: "before it was initially dirtied from the
		// previous version").
		if c.detector != nil {
			if _, ok := c.detector.Candidate(la); l.State == StateS || !ok {
				c.detector.SaveStale(la, l.Data)
			}
		}
		c.setState(l, StateM)
		// The write this upgrade was fetched for is ordered here, at
		// the serialization point: perform it immediately so snoops a
		// cycle later observe the new value (see tryPerformHead).
		if len(c.storeBuf) > 0 && mem.LineAddr(c.storeBuf[0].addr) == la {
			c.cnt.storePerformAtGrant.Inc()
			c.tryPerformHead()
		}
		return true

	case bus.TxnRead, bus.TxnReadX, bus.TxnWriteback:
		return true
	}
	panic(fmt.Sprintf("core: grant of unknown txn type %v", t.Type))
}

// SnoopTxn applies the remote-side transition for another node's
// granted transaction and returns this node's snoop response.
func (c *Controller) SnoopTxn(t *bus.Txn) bus.SnoopReply {
	c.Wake()
	c.idle = false
	la := t.Addr
	isWrite := t.Type == bus.TxnReadX || t.Type == bus.TxnUpgrade
	c.client.ExternalSnoop(la, isWrite)

	// Invalidating transactions kill the LL/SC reservation.
	if isWrite && c.resAddr == la {
		c.resSeq = 0
	}

	var reply bus.SnoopReply

	// An evicted dirty line awaiting its writeback grant still
	// supplies data from the writeback buffer.
	if e, ok := c.wb[la]; ok && (t.Type == bus.TxnRead || t.Type == bus.TxnReadX) {
		d := e.data // escapes: copied here so a snoop that misses the buffer allocates nothing
		reply.Data = &d
		reply.Shared = true
		c.cnt.cohWBBufferSupply.Inc()
		return reply
	}

	l := c.l2.Lookup(la)
	if l == nil || l.State == StateI {
		return reply
	}

	switch t.Type {
	case bus.TxnRead:
		switch l.State {
		case StateM:
			reply.Shared = true
			reply.Data = &l.Data
			c.setState(l, StateO)
		case StateO:
			reply.Shared = true
			reply.Data = &l.Data
		case StateE:
			reply.Shared = true
			c.setState(l, StateS)
		case StateS, StateVS:
			// VS asserts shared on Reads: the requester must not
			// install E while a valid copy exists. Only the
			// ReadX/Upgrade (useful-response) assertion is aborted
			// in VS (§2.3).
			reply.Shared = true
		case StateT:
			// A read does not change the globally visible value;
			// the reversion candidate stays live.
		}
		c.trainExternalReq(la)

	case bus.TxnReadX, bus.TxnUpgrade:
		switch l.State {
		case StateM, StateO:
			if t.Type == bus.TxnUpgrade && l.State == StateM {
				panic(fmt.Sprintf("core: upgrade snooped while node %d holds %#x in M", c.id, la))
			}
			if t.Type == bus.TxnReadX {
				reply.Data = &l.Data
			}
			reply.Shared = true
			c.trainExternalReq(la)
			c.enterT(l)
		case StateE, StateS:
			reply.Shared = true
			c.trainExternalReq(la)
			c.enterT(l)
		case StateVS:
			// The E-MESTI distributed prediction signal: a
			// Validate_Shared holder — revalidated but never used —
			// withholds the shared/useful response, telling the
			// writer its validates are going to waste (§2.3).
			c.cnt.emestiVSSilentSnoop.Inc()
			c.enterT(l)
		case StateT:
			// The saved copy stays: only a single previous value is
			// ever held, and whether it can be revalidated is
			// decided by the data comparison when a validate
			// arrives. (A reverting line can match a T copy from an
			// earlier visibility epoch — that is a hit legitimately
			// rescued, since the validate guarantees the globally
			// visible value equals the payload.)
			c.cnt.mestiTReinvalidated.Inc()
		}

	case bus.TxnValidate:
		if l.State == StateT {
			if l.Data.Equal(&t.WData) {
				// The first local use measures its distance from here.
				to := StateS
				if c.tech.EMESTI {
					to = StateVS
				}
				c.setState(l, to)
				l.Flags |= FlagRevalidated
				l.Stamp = uint32(c.now)
				c.cnt.mestiRevalidate.Inc()
			} else {
				// The candidate belongs to an older visibility
				// epoch (an intervening owner changed the line and
				// wrote it back); it cannot be revalidated.
				c.setState(l, StateI)
				c.cnt.mestiValMismatch.Inc()
			}
		}

	case bus.TxnWriteback:
		// No remote state change: only I/T copies can coexist with a
		// dirty line elsewhere, and neither cares.
	}
	return reply
}

// trainExternalReq feeds the useful-validate predictor: an external
// request arriving while the line is temporally silent is evidence the
// silence was (or would have been) worth a validate.
func (c *Controller) trainExternalReq(la uint64) {
	if c.vpred != nil {
		c.vpred.OnExternalReq(la)
	}
}

// enterT is the snooped-invalidation transition out of a valid state.
// Under MESTI the current contents — by construction the last globally
// visible value — are retained as the reversion candidate in T state;
// under the baseline the line goes to I (data retained for LVP's
// tag-match-invalid predictions, permission gone either way).
func (c *Controller) enterT(l *cache.Line) {
	to := StateI
	if c.tech.MESTI {
		to = StateT
		c.cnt.mestiEnterT.Inc()
	}
	c.setState(l, to)
	// This node is no longer the writer: its silence flag and reversion
	// candidate (if it was the owner) are dead, and the L1 loses the
	// line (inclusion of permission). A pending validate-to-reuse
	// measurement dies with the permission.
	l.Flags = 0
	if c.detector != nil {
		c.detector.Drop(l.Addr)
	}
	c.dropFromL1(l.Addr)
}

// CompleteTxn receives the requester-side completion: data arrival for
// Read/ReadX, or the end of the address phase for dataless types.
func (c *Controller) CompleteTxn(t *bus.Txn) {
	c.Wake()
	c.idle = false
	la := t.Addr
	switch t.Type {
	case bus.TxnWriteback:
		if e := c.wb[la]; e.pending > 1 {
			e.pending--
			c.wb[la] = e
		} else {
			delete(c.wb, la)
		}

	case bus.TxnRead:
		state := StateE
		if t.Shared || t.Owned {
			state = StateS
		}
		c.installL2(la, t.Data, state)
		c.fillL1(la)
		c.classifyMiss(t)
		c.serveMSHR(t)

	case bus.TxnReadX:
		c.installL2(la, t.Data, StateM)
		if c.detector != nil {
			// The received contents are the globally visible value
			// at the invalidation instant: the reversion candidate.
			c.detector.SaveStale(la, t.Data)
		}
		c.classifyMiss(t)
		c.serveMSHR(t)
		c.markStoresReady(la)

	case bus.TxnUpgrade:
		// State moved to M at grant. Deliver the combined useful
		// snoop response to the predictor (§2.4.1): asserted means a
		// consumer read the validated line (some S holder); silent
		// means only VS/invalid copies remained — the validate was
		// useless.
		if c.vpred != nil {
			c.vpred.OnUsefulResponse(la, t.Shared)
			if t.Shared {
				c.tr.Emit(trace.Event{Kind: trace.KValUseful, Node: int32(c.id), Addr: la})
			} else {
				c.tr.Emit(trace.Event{Kind: trace.KValUseless, Node: int32(c.id), Addr: la})
			}
		}
		if m := c.mshrs.Lookup(la); m != nil {
			switch {
			case !m.LoadMerged:
				c.freeMSHR(m)
			default:
				// The line was stolen by a snoop between the
				// upgrade's grant and its completion, and loads
				// missed onto this MSHR in that window. Serve them
				// from the live line if it is somehow readable
				// again, else refetch exclusively — even when a
				// squash has killed every one of them since (the
				// modelled machine decides on what merged).
				if l := c.l2.Lookup(la); l != nil && Readable(l.State) {
					served := *t
					served.Type = bus.TxnReadX
					served.HasData = true
					served.Data = l.Data
					c.serveMSHR(&served)
				} else {
					c.cnt.cohUpgradeStolen.Inc()
					c.request(bus.TxnReadX, la)
				}
			}
		}
		c.markStoresReady(la)

	case bus.TxnValidate:
		// State moved to O at grant; nothing further.
	}
}

// classifyMiss attributes a completed data fetch: communication misses
// are serviced by dirty data in a remote cache (the paper's target
// population); the rest come from memory (cold/capacity/conflict).
func (c *Controller) classifyMiss(t *bus.Txn) {
	if t.Owned {
		c.cnt.missComm.Inc()
		c.tr.Emit(trace.Event{Kind: trace.KMiss, Node: int32(c.id), Addr: t.Addr, A: 1})
	} else {
		c.cnt.missMem.Inc()
		c.tr.Emit(trace.Event{Kind: trace.KMiss, Node: int32(c.id), Addr: t.Addr, A: 0})
	}
}

// markStoresReady clears the waiting flag of buffered stores to the
// line so the head retries immediately.
func (c *Controller) markStoresReady(la uint64) {
	for i := range c.storeBuf {
		if mem.LineAddr(c.storeBuf[i].addr) == la {
			c.storeBuf[i].waiting = false
		}
	}
}

// serveMSHR completes the MSHR for an arrived line: verifies LVP
// speculation, wakes waiting loads, and arms the LL reservation for the
// oldest load-locked that merged, live or not (a squashed LL's fill still
// arms it).
// The waiters are live loads, so every seq named to the client is in its
// window — until the value-misprediction squash, which drops the ones it
// kills before the wake-up walk.
func (c *Controller) serveMSHR(t *bus.Txn) {
	m := c.mshrs.Lookup(t.Addr)
	if m == nil {
		// A data fill with no live MSHR for the line. Every allocation
		// path (load miss, store miss, SLE prefetch) holds its MSHR
		// until completion, so this indicates either a protocol bug or
		// a leak — count and trace it so the checker's no-leaked-MSHR
		// quiesce invariant (and post-mortems) can attribute it.
		c.cnt.l2MSHROrphanFill.Inc()
		c.tr.Emit(trace.Event{Kind: trace.KMSHROrphan, Node: int32(c.id), Addr: t.Addr, A: uint8(t.Type)})
		return
	}
	ok := m.Verify(&t.Data)
	if !ok {
		// Value misprediction: squash from the oldest live op
		// holding speculative data (§3.2's slightly pessimistic
		// single-index recovery; the core resolves liveness).
		c.cnt.lvpVerifyFail.Inc()
		c.tr.Emit(trace.Event{Kind: trace.KLVPSquash, Node: int32(c.id), Addr: t.Addr})
		specSeqs := c.scratchSpec[:0]
		for _, w := range m.Waiters {
			if w.GotSpec {
				specSeqs = append(specSeqs, w.Seq)
			}
		}
		c.scratchSpec = specSeqs
		c.client.SquashSpec(specSeqs)
	} else if m.SpecDelivered {
		c.cnt.lvpVerifyOK.Inc()
		c.tr.Emit(trace.Event{Kind: trace.KLVPVerifyOK, Node: int32(c.id), Addr: t.Addr})
	}
	if m.LLSeq != 0 {
		c.setReservation(t.Addr, m.LLSeq)
	}
	verified := c.scratchVerified[:0]
	for _, w := range m.Waiters {
		if w.GotSpec {
			if ok {
				verified = append(verified, w.Seq)
			}
			// On failure the squash above re-executes the load.
			continue
		}
		c.client.LoadDone(w.Seq, t.Data.Word(w.WordIdx))
	}
	c.scratchVerified = verified
	if len(verified) > 0 {
		c.client.LoadsVerified(verified)
	}
	c.freeMSHR(m)
}
