package litmus

import (
	"fmt"
	"strings"

	"tssim/internal/isa"
)

// tsoOutcomes exhaustively enumerates every outcome tuple a litmus
// shape can produce under an operational TSO model, and is the source
// of every shape's allowed-outcome oracle.
//
// The model is the abstract machine the simulator implements:
//
//   - each CPU executes its ops in program order (the R10K core may
//     execute loads speculatively out of order, but ExternalSnoop
//     squashes any load that an external invalidation could have made
//     stale, so *retired* loads appear in program order);
//   - each store enters a per-CPU FIFO store buffer
//     (core.Controller's post-retirement buffer);
//   - a load reads the youngest matching entry of its own store
//     buffer, else shared memory (Controller.Load's forwarding scan);
//   - at any point the oldest entry of any CPU's store buffer may
//     drain atomically to shared memory (head-only popStore; the bus
//     serializes stores, so drains are atomic and totally ordered).
//
// State = per-CPU pc + store buffers + memory + observations so far.
// A DFS over all interleavings of {execute next op, drain one store}
// with memoized states visits the full (tiny) state space; outcomes
// are collected at states where every CPU has finished and every
// store buffer has drained. Delay ops are architectural no-ops and
// are stripped before enumeration.
func tsoOutcomes(prog [][]sOp) map[isa.Outcome]bool {
	ncpu := len(prog)
	ops := make([][]sOp, ncpu)
	obsIdx := make([][]int, ncpu) // per CPU, per op: outcome tuple slot
	nobs := 0
	for cpu, raw := range prog {
		for _, op := range raw {
			if op.delay > 0 {
				continue
			}
			ops[cpu] = append(ops[cpu], op)
			slot := -1
			if op.load {
				slot = nobs
				nobs++
			}
			obsIdx[cpu] = append(obsIdx[cpu], slot)
		}
	}
	if nobs > isa.MaxOutcome {
		panic(fmt.Sprintf("tsoOutcomes: %d observations exceed isa.MaxOutcome", nobs))
	}

	type sbEnt struct {
		loc int
		val uint64
	}
	type state struct {
		pc  []int
		sb  [][]sbEnt // index 0 oldest
		mem [2]uint64
		obs [isa.MaxOutcome]uint64
	}

	encode := func(s *state) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%v|%v|%v|", s.pc, s.mem, s.obs[:nobs])
		for _, buf := range s.sb {
			fmt.Fprintf(&b, "%v;", buf)
		}
		return b.String()
	}
	clone := func(s *state) *state {
		c := &state{pc: append([]int(nil), s.pc...), mem: s.mem, obs: s.obs}
		c.sb = make([][]sbEnt, ncpu)
		for i, buf := range s.sb {
			c.sb[i] = append([]sbEnt(nil), buf...)
		}
		return c
	}

	outcomes := map[isa.Outcome]bool{}
	seen := map[string]bool{}
	var visit func(s *state)
	visit = func(s *state) {
		key := encode(s)
		if seen[key] {
			return
		}
		seen[key] = true

		terminal := true
		for cpu := 0; cpu < ncpu; cpu++ {
			if s.pc[cpu] < len(ops[cpu]) {
				terminal = false
				n := clone(s)
				op := ops[cpu][s.pc[cpu]]
				if op.load {
					v := n.mem[op.loc]
					for i := len(n.sb[cpu]) - 1; i >= 0; i-- { // youngest first
						if n.sb[cpu][i].loc == op.loc {
							v = n.sb[cpu][i].val
							break
						}
					}
					n.obs[obsIdx[cpu][s.pc[cpu]]] = v
				} else {
					n.sb[cpu] = append(n.sb[cpu], sbEnt{op.loc, op.val})
				}
				n.pc[cpu]++
				visit(n)
			}
			if len(s.sb[cpu]) > 0 {
				terminal = false
				n := clone(s)
				e := n.sb[cpu][0]
				n.mem[e.loc] = e.val
				n.sb[cpu] = n.sb[cpu][1:]
				visit(n)
			}
		}
		if terminal {
			outcomes[isa.Outcome{N: nobs, V: s.obs}] = true
		}
	}

	init := &state{pc: make([]int, ncpu), sb: make([][]sbEnt, ncpu)}
	visit(init)
	return outcomes
}
