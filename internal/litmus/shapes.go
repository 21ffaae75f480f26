package litmus

import (
	"fmt"
	"sort"

	"tssim/internal/isa"
)

// This file defines the litmus-shape library: the six classic
// memory-model shapes (SB, MP, LB, IRIW, CoRR, CoWW) plus a
// temporal-silence variant of each, every one carrying its
// allowed-outcome set under the machine's consistency model. The
// machine is TSO: a post-retirement FIFO store buffer with
// youngest-first own-store forwarding (core.Controller), and
// R10K-style squash of speculative loads on external invalidation
// (cpu.Core.ExternalSnoop), so retired loads appear in program order
// but may bypass the CPU's own buffered stores. Allowed sets are not
// hand-written: they are computed by exhaustively enumerating an
// operational TSO model over the shape (tsomodel.go). The
// hand-derived Forbidden lists on the base shapes exist only as a
// self-check on that model — shapes_test.go asserts the two never
// intersect and that the textbook-forbidden outcomes are exactly the
// ones the model rules out.
//
// The silent variant replaces every store `st loc v` with the
// temporally silent pair `st loc v; <delay>; st loc prev`, where prev
// is the value the location held before the store (always the value
// this CPU last left there; shapes are single-writer per location, so
// that is deterministic). The delay widens the transient window in
// which remote readers can observe v before the exact revert restores
// prev, which is precisely the window the MESTI/E-MESTI validate
// machinery acts on. Silent variants get no hand-written Forbidden
// list; their oracle is model-only — e.g. the model itself discovers
// that CoRR-silent legitimately allows (1,0), an outcome coherence
// forbids for plain CoRR.

// Litmus shapes use at most two shared locations, placed on distinct
// cache lines so every communication event is a real coherence event.
const (
	locX = 0
	locY = 1
)

// silentGap is the delay, in cycles, between a silent pair's store
// and its exact revert. On the litmus machine (address latency 20,
// memory latency 60) this spans several complete bus transactions, so
// remote readers have a real window to observe the transient value.
const silentGap = 300

// LocAddr maps a shape location index to its simulated address. The
// 0x40 stride keeps X and Y on distinct 64-byte lines.
func LocAddr(loc int) uint64 { return 0x8000 + uint64(loc)*0x40 }

func locName(loc int) string {
	if loc == locX {
		return "X"
	}
	return "Y"
}

// sOp is one micro-op of a litmus shape: a load of a location, a
// store of a value to a location, or a pure delay. Delays are
// architectural no-ops — the TSO model skips them — but in the timing
// simulator they are rendered as a dense serialized chain threaded
// through the next memory op's address register, so the out-of-order
// frontend cannot hoist that op past the delay.
type sOp struct {
	load  bool
	loc   int
	val   uint64 // store value
	delay int    // if >0, a pure delay of this many cycles
}

func ld(loc int) sOp           { return sOp{load: true, loc: loc} }
func st(loc int, v uint64) sOp { return sOp{loc: loc, val: v} }
func dly(cycles int) sOp       { return sOp{delay: cycles} }
func o(vals ...uint64) isa.Outcome {
	var out isa.Outcome
	out.N = len(vals)
	copy(out.V[:], vals)
	return out
}

// Shape is one litmus test: per-CPU micro-op programs plus the oracle
// machinery for deciding which observed outcomes are legal.
type Shape struct {
	Name string
	Doc  string
	// Prog holds each CPU's micro-ops in program order.
	Prog [][]sOp
	// Forbidden lists the textbook TSO-forbidden outcomes for the
	// base shapes, used purely as a self-check against the model.
	// Silent variants leave it nil: their oracle is model-only.
	Forbidden []isa.Outcome

	allowed map[isa.Outcome]bool // lazily computed by tsoOutcomes
}

// CPUs returns the number of processors the shape needs.
func (s *Shape) CPUs() int { return len(s.Prog) }

// NObs returns the width of the shape's outcome tuple.
func (s *Shape) NObs() int {
	n := 0
	for _, ops := range s.Prog {
		for _, op := range ops {
			if op.load {
				n++
			}
		}
	}
	return n
}

// Allowed returns the set of outcome tuples reachable under the
// exhaustive TSO operational model. Computed once per Shape instance;
// Shapes() hands out fresh instances, so instances are not shared
// across goroutines.
func (s *Shape) Allowed() map[isa.Outcome]bool {
	if s.allowed == nil {
		s.allowed = tsoOutcomes(s.Prog)
	}
	return s.allowed
}

// AllowedList returns the allowed outcomes in deterministic tuple
// order, for stable report output.
func (s *Shape) AllowedList() []isa.Outcome {
	list := make([]isa.Outcome, 0, len(s.Allowed()))
	for oc := range s.Allowed() {
		list = append(list, oc)
	}
	sort.Slice(list, func(i, j int) bool { return outcomeLess(list[i], list[j]) })
	return list
}

func outcomeLess(a, b isa.Outcome) bool {
	for i := 0; i < a.N && i < b.N; i++ {
		if a.V[i] != b.V[i] {
			return a.V[i] < b.V[i]
		}
	}
	return a.N < b.N
}

// FinalMem returns the architecturally required final value of every
// location the shape writes. Every shape writes each location from a
// single CPU, so the FIFO store buffer fully determines the final
// memory image regardless of schedule; the harness checks it after
// every run as a cheap whole-memory oracle on top of the outcome
// tuple.
func (s *Shape) FinalMem() map[uint64]uint64 {
	writer := map[int]int{}
	final := map[uint64]uint64{}
	for cpu, ops := range s.Prog {
		for _, op := range ops {
			if op.load || op.delay > 0 {
				continue
			}
			if w, seen := writer[op.loc]; seen && w != cpu {
				panic(fmt.Sprintf("shape %s: location %s written by CPUs %d and %d; final memory is schedule-dependent",
					s.Name, locName(op.loc), w, cpu))
			}
			writer[op.loc] = cpu
			final[LocAddr(op.loc)] = op.val
		}
	}
	return final
}

// Programs renders the shape into per-CPU ISA programs. delays[i], if
// nonzero, splices a serialized delay immediately before CPU i's last
// memory op — the schedule-perturbation point the enumeration mode
// sweeps. Observation registers are assigned r1, r2, ... in load
// order per CPU, so isa.OutcomeOf yields tuples in exactly the
// CPU-major op order the TSO model uses.
func (s *Shape) Programs(delays []int) []*isa.Program {
	progs := make([]*isa.Program, len(s.Prog))
	for cpu, shapeOps := range s.Prog {
		ops := spliceDelay(shapeOps, delays, cpu)
		b := isa.NewBuilder(fmt.Sprintf("%s-p%d", s.Name, cpu))
		var used [2]bool
		for _, op := range ops {
			if op.delay == 0 {
				used[op.loc] = true
			}
		}
		for loc, u := range used {
			if u {
				b.Li(addrReg(loc), int64(LocAddr(loc)))
			}
		}
		obsReg, loads := uint8(isa.R1), 0
		for i, op := range ops {
			switch {
			case op.delay > 0:
				b.DelayVia(addrReg(nextMemLoc(ops, i)), op.delay)
			case op.load:
				b.Ld(obsReg, addrReg(op.loc), 0)
				b.Observe(obsReg, fmt.Sprintf("P%d:ld%s/%d", cpu, locName(op.loc), loads))
				obsReg++
				loads++
			default:
				b.Li(isa.R10, int64(op.val))
				b.St(isa.R10, addrReg(op.loc), 0)
			}
		}
		b.Halt()
		progs[cpu] = b.Build()
	}
	return progs
}

func addrReg(loc int) uint8 {
	if loc == locX {
		return isa.R8
	}
	return isa.R9
}

// nextMemLoc finds the location of the first memory op after index i,
// so a delay can be threaded through that op's address register. A
// trailing delay (nothing left to delay) threads through X harmlessly.
func nextMemLoc(ops []sOp, i int) int {
	for _, op := range ops[i+1:] {
		if op.delay == 0 {
			return op.loc
		}
	}
	return locX
}

// spliceDelay inserts a knob delay before CPU i's last memory op,
// copying the slice so shared shape definitions are never mutated.
func spliceDelay(ops []sOp, delays []int, cpu int) []sOp {
	if cpu >= len(delays) || delays[cpu] <= 0 {
		return ops
	}
	last := -1
	for i, op := range ops {
		if op.delay == 0 {
			last = i
		}
	}
	if last < 0 {
		return ops
	}
	out := make([]sOp, 0, len(ops)+1)
	out = append(out, ops[:last]...)
	out = append(out, dly(delays[cpu]))
	out = append(out, ops[last:]...)
	return out
}

// silentVariant derives the temporal-silence variant: every store
// becomes the pair `st v; delay; st prev`. The revert value is the
// value the location held before the store — with single-writer
// locations and reverts restoring each store, that is always the
// CPU's own last-left value (0 initially).
func silentVariant(s *Shape) *Shape {
	prog := make([][]sOp, len(s.Prog))
	for cpu, ops := range s.Prog {
		prev := map[int]uint64{}
		var out []sOp
		for _, op := range ops {
			if op.load || op.delay > 0 {
				out = append(out, op)
				continue
			}
			out = append(out, op, dly(silentGap), st(op.loc, prev[op.loc]))
			// The revert restores prev, so prev is unchanged for any
			// later store to the same location.
		}
		prog[cpu] = out
	}
	return &Shape{
		Name: s.Name + "-silent",
		Doc:  s.Doc + "; every store is a temporally silent pair (store, exact revert)",
		Prog: prog,
	}
}

// Shapes returns fresh instances of the full shape library: the six
// base shapes, each immediately followed by its silent variant.
func Shapes() []*Shape {
	base := []*Shape{
		{
			Name:      "SB",
			Doc:       "store buffering: each CPU stores its location then loads the other's",
			Prog:      [][]sOp{{st(locX, 1), ld(locY)}, {st(locY, 1), ld(locX)}},
			Forbidden: nil, // TSO's signature: even (0,0) is reachable
		},
		{
			Name:      "MP",
			Doc:       "message passing: writer stores data then flag; reader loads flag then data",
			Prog:      [][]sOp{{st(locX, 1), st(locY, 1)}, {ld(locY), ld(locX)}},
			Forbidden: []isa.Outcome{o(1, 0)},
		},
		{
			Name:      "LB",
			Doc:       "load buffering: each CPU loads one location then stores the other",
			Prog:      [][]sOp{{ld(locX), st(locY, 1)}, {ld(locY), st(locX, 1)}},
			Forbidden: []isa.Outcome{o(1, 1)},
		},
		{
			Name: "IRIW",
			Doc:  "independent reads of independent writes: two writers, two readers in opposite orders",
			Prog: [][]sOp{
				{st(locX, 1)}, {st(locY, 1)},
				{ld(locX), ld(locY)}, {ld(locY), ld(locX)},
			},
			Forbidden: []isa.Outcome{o(1, 0, 1, 0)},
		},
		{
			Name:      "CoRR",
			Doc:       "coherent read-read: two loads of one location must not see its writes out of order",
			Prog:      [][]sOp{{st(locX, 1)}, {ld(locX), ld(locX)}},
			Forbidden: []isa.Outcome{o(1, 0)},
		},
		{
			Name:      "CoWW",
			Doc:       "coherent write-write: one CPU's two stores must be observed in order",
			Prog:      [][]sOp{{st(locX, 1), st(locX, 2)}, {ld(locX), ld(locX)}},
			Forbidden: []isa.Outcome{o(1, 0), o(2, 0), o(2, 1)},
		},
	}
	all := make([]*Shape, 0, 2*len(base))
	for _, s := range base {
		all = append(all, s, silentVariant(s))
	}
	return all
}

// ShapeByName looks up one shape (fresh instance) by name, e.g. "SB"
// or "MP-silent". Returns nil if unknown.
func ShapeByName(name string) *Shape {
	for _, s := range Shapes() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// ShapeNames lists the library in registry order.
func ShapeNames() []string {
	shapes := Shapes()
	names := make([]string, len(shapes))
	for i, s := range shapes {
		names[i] = s.Name
	}
	return names
}
