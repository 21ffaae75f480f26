package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountersBasic(t *testing.T) {
	c := NewCounters()
	if got := c.Get("x"); got != 0 {
		t.Fatalf("untouched counter = %d, want 0", got)
	}
	x := c.Counter("x")
	x.Inc()
	x.Inc()
	x.Add(3)
	if got := c.Get("x"); got != 5 {
		t.Fatalf("x = %d, want 5", got)
	}
	snap := c.Snapshot()
	x.Inc()
	if snap["x"] != 5 {
		t.Fatal("snapshot must be a copy, not a view")
	}
}

func TestCounterHandleAliasesStringAPI(t *testing.T) {
	c := NewCounters()
	h := c.Counter("bus/txn/read")
	h.Inc()
	h.Add(4)
	if got := c.Get("bus/txn/read"); got != 5 {
		t.Fatalf("after handle increments, Get by name = %d, want 5", got)
	}
	if got := h.Get(); got != 5 {
		t.Fatalf("handle Get = %d, want 5", got)
	}
	// A second handle for the same name hits the same cell.
	c.Counter("bus/txn/read").Inc()
	if got := h.Get(); got != 6 {
		t.Fatalf("second handle must alias the first: Get = %d, want 6", got)
	}
}

func TestCounterInternedButUntouchedInvisible(t *testing.T) {
	c := NewCounters()
	h := c.Counter("never/hit")
	c.Counter("hit/once").Inc()
	if snap := c.Snapshot(); len(snap) != 1 || snap["hit/once"] != 1 {
		t.Fatalf("Snapshot() = %v, want [hit/once:1]: interned-but-zero counters must stay invisible", snap)
	}
	h.Inc()
	if snap := c.Snapshot(); len(snap) != 2 {
		t.Fatalf("after first Inc the counter must appear: %v", snap)
	}
}

func TestCounterHandleStableAcrossInterning(t *testing.T) {
	// Handles must survive arbitrary later interning (backing blocks
	// may grow but never move).
	c := NewCounters()
	h := c.Counter("stable")
	for i := 0; i < 10*counterBlock; i++ {
		c.Counter(fmt.Sprintf("filler/%d", i)).Inc()
	}
	h.Inc()
	if got := c.Get("stable"); got != 1 {
		t.Fatalf("handle detached from its cell after interning churn: %d", got)
	}
}

func TestCounterIncDoesNotAllocate(t *testing.T) {
	c := NewCounters()
	h := c.Counter("hot/path")
	if avg := testing.AllocsPerRun(1000, func() {
		h.Inc()
		h.Add(2)
	}); avg != 0 {
		t.Fatalf("Counter.Inc/Add allocate %v per run, want 0", avg)
	}
}

func TestSampleMoments(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if got := s.Mean(); got != 5 {
		t.Fatalf("mean = %v, want 5", got)
	}
	// Sample stddev with n-1: variance = 32/7.
	want := math.Sqrt(32.0 / 7.0)
	if got := s.StdDev(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", got, want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSampleCI95(t *testing.T) {
	var s Sample
	if s.CI95() != 0 {
		t.Fatal("empty sample CI should be 0")
	}
	s.Add(10)
	if s.CI95() != 0 {
		t.Fatal("single-observation CI should be 0")
	}
	s.Add(12)
	// n=2, df=1: t=12.706, sd=sqrt(2), ci = 12.706*sqrt(2)/sqrt(2) = 12.706
	if got := s.CI95(); math.Abs(got-12.706) > 1e-9 {
		t.Fatalf("CI95 = %v, want 12.706", got)
	}
	// Identical observations -> zero-width interval.
	var z Sample
	for i := 0; i < 10; i++ {
		z.Add(3.5)
	}
	if z.CI95() != 0 {
		t.Fatalf("constant sample CI = %v, want 0", z.CI95())
	}
}

func TestTCritMonotone(t *testing.T) {
	// Critical values shrink toward the normal limit as df grows.
	prev := tCrit95(1)
	for df := 2; df < 200; df++ {
		cur := tCrit95(df)
		if cur > prev {
			t.Fatalf("tCrit95 not non-increasing at df=%d: %v > %v", df, cur, prev)
		}
		prev = cur
	}
	if got := tCrit95(10000); got != 1.960 {
		t.Fatalf("large-df tCrit = %v, want 1.960", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("bench", "speedup")
	tb.Row("tpc-b", "+6.5%")
	tb.Row("ocean", "+1.0%")
	out := tb.String()
	if !strings.Contains(out, "bench") || !strings.Contains(out, "tpc-b") {
		t.Fatalf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	// All lines padded to consistent column starts.
	if !strings.HasPrefix(lines[1], "-----") {
		t.Fatalf("missing separator line:\n%s", out)
	}
}

func TestSampleMeanPropertyBounds(t *testing.T) {
	// Property: mean is always within [min, max] of the inputs.
	f := func(xs []float64) bool {
		var s Sample
		ok := false
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Bound magnitude so the running sum cannot overflow;
			// simulator metrics are cycle counts, never 1e300.
			x = math.Mod(x, 1e12)
			s.Add(x)
			ok = true
		}
		if !ok {
			return true
		}
		m := s.Mean()
		return m >= s.Min()-1e-6*math.Abs(s.Min())-1e-9 &&
			m <= s.Max()+1e-6*math.Abs(s.Max())+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Delta called around a stretch of code lists what it counted, in
// interning order, with the amounts; a nil list only reads, and a cell
// interned since the last reading counts from zero.
func TestDeltaListsWhatMoved(t *testing.T) {
	cs := NewCounters()
	a, b := cs.Counter("a"), cs.Counter("b")
	a.Add(5)
	cs.Delta(nil)
	b.Add(2)
	c := cs.Counter("c")
	c.Inc()
	a.Inc()
	got := cs.Delta([]Moved{})
	want := []Moved{{a, 1}, {b, 2}, {c, 1}}
	if len(got) != len(want) {
		t.Fatalf("Delta = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Delta = %v, want %v", got, want)
		}
	}
	if got := cs.Delta([]Moved{}); len(got) != 0 {
		t.Fatalf("nothing moved, Delta = %v", got)
	}
}
