package litmus

import (
	"fmt"
	"strings"

	"tssim/internal/isa"
	"tssim/internal/sim"
)

// Exhaustive small-state model checking: run a litmus shape under
// every point of a deterministic schedule-perturbation grid and
// compare the reachable outcomes against the TSO model's allowed set
// in both directions. An outcome outside the allowed set is a
// coherence/consistency bug in the simulator; an allowed outcome the
// grid never reaches is reported as a coverage gap (the schedule
// knobs are not fine enough to exhibit it — a test-quality signal,
// not a correctness failure).
//
// The grid axes are exactly the deterministic knobs the simulator
// exposes: per-CPU start-cycle offsets (sim.Config.StartOffsets),
// per-CPU serialized delays spliced into the shape before its last
// memory op (Shape.Programs), the initial bus arbitration pointer
// (bus.Config.ArbStart), the technique combo, the kernel path
// (fast-forward vs naive) and the coherence backend (atomic bus,
// split-transaction bus, directory), fixed for one sweep. Every point
// runs at machine jitter seed 1.

// Variant is one point of the perturbation grid.
type Variant struct {
	Offsets      []uint64       // per-CPU start-cycle offsets
	Delays       []int          // per-CPU delay before the CPU's last memory op
	ArbStart     int            // initial bus round-robin pointer
	Tech         sim.Techniques // technique combo
	NoFF         bool           // true: naive every-cycle kernel; false: fast-forward
	Seed         uint64         // machine jitter seed
	Interconnect string         // coherence fabric (bus.Kinds); "" = atomic snoop bus
}

func (v Variant) path() string {
	if v.NoFF {
		return "noff"
	}
	return "ff"
}

// String prints every knob of v, as an enumeration report's "first at"
// point and in the syntax ParseRepro reads after a shape's name.
func (v Variant) String() string {
	s := fmt.Sprintf("off=%v dly=%v arb=%d tech=%s path=%s seed=%d",
		v.Offsets, v.Delays, v.ArbStart, v.Tech, v.path(), v.Seed)
	if v.Interconnect != "" {
		s += " ic=" + v.Interconnect
	}
	return s
}

// Knobs spans the grid: per-CPU axes (Offsets, Delays) take every
// n-tuple over their value lists, the rest combine as a plain cross
// product. An empty axis takes its default: 0, Baseline, ff. The
// whole grid runs on one fabric.
type Knobs struct {
	Offsets      []uint64
	Delays       []int
	ArbStarts    []int
	Combos       []sim.Techniques
	Paths        []bool // NoFF values: false the fast-forward kernel, true the naive one
	Interconnect string // a bus.Kinds value; "" is the atomic snoop bus
}

// DefaultKnobs is the grid the acceptance tests and the CI
// enumeration step sweep for 2-core shapes: 3 start offsets and 2
// delays per CPU, 2 arbitration rotations — 9*4*2 = 72 schedules per
// combo/path. Offsets 0/320/760 and delay 500 are chosen against
// the litmus machine's latencies (address 20, memory 60, c2c 40) to
// land before, inside, and after a remote CPU's first miss service.
func DefaultKnobs(combos []sim.Techniques) Knobs {
	return Knobs{
		Offsets:   []uint64{0, 320, 760},
		Delays:    []int{0, 500},
		ArbStarts: []int{0, 1},
		Combos:    combos,
		Paths:     []bool{false, true},
	}
}

// variants lists the grid's points for a cpus-core shape in sweep
// order (offsets, delays, arb, combo, path — outermost first), so
// FirstSeen variants are stable run to run.
func (k Knobs) variants(cpus int) []Variant {
	var out []Variant
	for _, offs := range tuples(k.Offsets, cpus, []uint64{0}) {
		for _, dls := range tuples(k.Delays, cpus, []int{0}) {
			for _, arb := range or(k.ArbStarts, []int{0}) {
				for _, tech := range or(k.Combos, []sim.Techniques{{}}) {
					for _, noFF := range or(k.Paths, []bool{false}) {
						out = append(out, Variant{
							Offsets: offs, Delays: dls, ArbStart: arb,
							Tech: tech, NoFF: noFF, Seed: 1,
							Interconnect: k.Interconnect,
						})
					}
				}
			}
		}
	}
	return out
}

// Violation is a run whose result the oracle rejects: either the
// outcome is outside the allowed set, or the run itself failed.
type Violation struct {
	Variant Variant
	Outcome isa.Outcome // zero-width if the run errored before observing
	Err     error       // non-nil for run-level failures
}

func (v Violation) String() string {
	if v.Err != nil {
		return fmt.Sprintf("%s: run failed: %v", v.Variant, v.Err)
	}
	return fmt.Sprintf("%s: outcome %s outside allowed set", v.Variant, v.Outcome)
}

// EnumReport is the two-directional comparison of reachable vs
// allowed outcomes across the grid.
type EnumReport struct {
	Shape      string
	Runs       int
	Allowed    []isa.Outcome           // model-allowed, deterministic order
	Reached    map[isa.Outcome]int     // allowed outcome -> times observed
	FirstSeen  map[isa.Outcome]Variant // first grid point that produced it
	Violations []Violation             // observed but not allowed, or failed runs

	allowed map[isa.Outcome]bool
}

func newEnumReport(s *Shape) *EnumReport {
	return &EnumReport{
		Shape:     s.Name,
		Allowed:   s.AllowedList(),
		Reached:   map[isa.Outcome]int{},
		FirstSeen: map[isa.Outcome]Variant{},
		allowed:   s.Allowed(),
	}
}

// record classifies one run's observation.
func (r *EnumReport) record(v Variant, oc isa.Outcome, err error) {
	r.Runs++
	if err != nil || !r.allowed[oc] {
		r.Violations = append(r.Violations, Violation{Variant: v, Outcome: oc, Err: err})
		return
	}
	if r.Reached[oc] == 0 {
		r.FirstSeen[oc] = v
	}
	r.Reached[oc]++
}

// OK reports whether no run produced a forbidden outcome or failed.
// Coverage gaps do not make a report not-OK.
func (r *EnumReport) OK() bool { return len(r.Violations) == 0 }

// Coverage returns reached-vs-allowed outcome counts.
func (r *EnumReport) Coverage() (reached, allowed int) {
	return len(r.Reached), len(r.Allowed)
}

func (r *EnumReport) String() string {
	var b strings.Builder
	reached, allowed := r.Coverage()
	fmt.Fprintf(&b, "shape %s: %d runs, %d/%d allowed outcomes reached, %d violations\n",
		r.Shape, r.Runs, reached, allowed, len(r.Violations))
	for _, oc := range r.Allowed {
		if n := r.Reached[oc]; n > 0 {
			fmt.Fprintf(&b, "  reached %s  %d times, first at %s\n", oc, n, r.FirstSeen[oc])
		} else {
			fmt.Fprintf(&b, "  GAP     %s  never observed\n", oc)
		}
	}
	const maxShown = 10
	for i, v := range r.Violations {
		if i == maxShown {
			fmt.Fprintf(&b, "  ... %d more violations\n", len(r.Violations)-maxShown)
			break
		}
		fmt.Fprintf(&b, "  VIOLATION %s\n", v)
	}
	return b.String()
}

// Enumerate runs s at every point of the grid (RunShape) and
// classifies every observation.
func Enumerate(s *Shape, k Knobs) *EnumReport {
	rep := newEnumReport(s)
	for _, v := range k.variants(s.CPUs()) {
		oc, err := RunShape(s, v)
		rep.record(v, oc, err)
	}
	return rep
}

// tuples returns every n-tuple over vals in lexicographic order
// (first position outermost). An empty axis collapses to the single
// all-default tuple.
func tuples[T any](vals []T, n int, def []T) [][]T {
	out := [][]T{nil}
	for i := 0; i < n; i++ {
		var longer [][]T
		for _, t := range out {
			for _, v := range or(vals, def) {
				longer = append(longer, append(t[:len(t):len(t)], v))
			}
		}
		out = longer
	}
	return out
}

// or returns vals, or def when vals is empty.
func or[T any](vals, def []T) []T {
	if len(vals) == 0 {
		return def
	}
	return vals
}
