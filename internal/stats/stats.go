// Package stats provides the measurement substrate for the simulator:
// named event counters, multi-run sample sets with 95% confidence
// intervals (the Alameldeen-Wood methodology the paper cites for
// non-deterministic multithreaded workloads), and text table rendering
// used by the experiment harness to print paper-style rows.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// counterBlock is the capacity of one backing block. Cells are
// appended into fixed-capacity blocks (never reallocated), so the
// *uint64 handles handed out by Counter stay valid as new names are
// interned, while cells interned together stay dense — the counters a
// component resolves at construction share cache lines.
const counterBlock = 64

// Counters is a set of named uint64 event counters. It is the unit of
// statistics collection inside the simulator: every module (bus, cache
// controller, core, predictor) increments counters on a shared set so
// experiments can read one flat namespace.
//
// Writing goes through a Counter handle, resolved once at construction
// (see Counter); reading goes by name (Get, Snapshot). Both views
// alias the same cell: a counter reached through its handle and through
// its name is one value.
//
// A name interned by Counter but never incremented is indistinguishable
// from a counter that was never touched: Snapshot skips
// zero-valued cells, so resolving handles eagerly at construction does
// not change any report or experiment output.
type Counters struct {
	cells  map[string]*uint64
	blocks [][]uint64 // dense backing storage; blocks are never reallocated
	read   []uint64   // the cells as the last Delta read them, in interning order
	hists  map[string]*Hist
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{cells: make(map[string]*uint64), hists: make(map[string]*Hist)}
}

// cell interns name and returns its backing cell.
func (c *Counters) cell(name string) *uint64 {
	if p, ok := c.cells[name]; ok {
		return p
	}
	last := len(c.blocks) - 1
	if last < 0 || len(c.blocks[last]) == cap(c.blocks[last]) {
		c.blocks = append(c.blocks, make([]uint64, 0, counterBlock))
		last++
	}
	blk := append(c.blocks[last], 0)
	c.blocks[last] = blk
	p := &blk[len(blk)-1]
	c.cells[name] = p
	return p
}

// Moved is one counter's change between two readings (see Delta).
type Moved struct {
	Counter Counter
	N       uint64
}

// Delta appends to moved each counter that moved since the last call
// (with moved nil it only reads), and how much: called around a stretch
// of code, it lists what that code counted, with no list of bump sites.
func (c *Counters) Delta(moved []Moved) []Moved {
	if n := len(c.cells); len(c.read) < n {
		c.read = append(c.read, make([]uint64, n-len(c.read))...)
	}
	i := 0
	for _, blk := range c.blocks {
		for j, v := range blk {
			if v != c.read[i] && moved != nil {
				moved = append(moved, Moved{Counter{&blk[j]}, v - c.read[i]})
			}
			c.read[i] = v
			i++
		}
	}
	return moved
}

// Counter is a pre-resolved handle to one named counter: Inc and Add
// are single pointer bumps — no hashing, no string building, no
// allocation. Components resolve their handles once at construction
// and use them on every simulated event.
//
// The zero Counter is invalid; handles must come from
// Counters.Counter.
type Counter struct {
	v *uint64
}

// Counter interns name (on first use) and returns its handle.
func (c *Counters) Counter(name string) Counter { return Counter{v: c.cell(name)} }

// Inc adds one to the counter.
func (h Counter) Inc() { *h.v++ }

// Add adds delta to the counter.
func (h Counter) Add(delta uint64) { *h.v += delta }

// Get returns the current value.
func (h Counter) Get() uint64 { return *h.v }

// Get returns the current value of the named counter (zero if never
// touched).
func (c *Counters) Get(name string) uint64 {
	if p, ok := c.cells[name]; ok {
		return *p
	}
	return 0
}

// Snapshot returns a copy of the non-zero counters as a map.
func (c *Counters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(c.cells))
	for k, p := range c.cells {
		if *p != 0 {
			out[k] = *p
		}
	}
	return out
}

// Sample accumulates observations of one scalar metric across repeated
// runs and reports mean and a 95% confidence interval.
type Sample struct {
	xs []float64
}

// Add appends one observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns a copy of the observations.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// Mean returns the arithmetic mean (zero for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev returns the sample standard deviation (n-1 denominator).
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Min returns the smallest observation (zero for an empty sample).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	min := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < min {
			min = x
		}
	}
	return min
}

// Max returns the largest observation (zero for an empty sample).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	max := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > max {
			max = x
		}
	}
	return max
}

// CI95 returns the half-width of the 95% confidence interval of the
// mean, using Student's t distribution. With fewer than two samples the
// interval is zero (a single deterministic run has no spread to
// report).
func (s *Sample) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	return tCrit95(n-1) * s.StdDev() / math.Sqrt(float64(n))
}

// tCrit95 returns the two-sided 95% critical value of Student's t
// distribution for the given degrees of freedom. Values for small df
// are tabulated; larger df fall back to the normal approximation.
func tCrit95(df int) float64 {
	table := []float64{
		0,                                                             // df 0 unused
		12.706,                                                        // 1
		4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, // 2..10
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, // 11..20
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042, // 21..30
	}
	if df <= 0 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	return 1.960
}

// Table renders fixed-width text tables for experiment output. Rows
// are added as string cells; numeric helpers format consistently.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// Row appends a row of pre-formatted cells.
func (t *Table) Row(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table with columns padded to content width.
func (t *Table) String() string {
	ncol := len(t.header)
	for _, r := range t.rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	width := make([]int, ncol)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < ncol; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, ncol)
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Pct formats a fraction as a signed percentage ("+4.2%").
func Pct(x float64) string {
	return fmt.Sprintf("%+.1f%%", 100*x)
}

// F formats a float with 3 significant decimals.
func F(x float64) string { return fmt.Sprintf("%.3f", x) }
