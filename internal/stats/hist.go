package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// histBuckets is the fixed bucket count of a log2 histogram: bucket 0
// holds the value 0, bucket i (i ≥ 1) holds values in [2^(i-1), 2^i).
// 65 buckets cover the full uint64 range with no configuration and no
// allocation.
const histBuckets = 65

// Hist is a log2-bucketed histogram of uint64 observations — latency
// in cycles, queue occupancy, distances. It is fixed-size (no
// allocation on Observe) and cheap enough to update on hot paths:
// bucket selection is a single bits.Len64.
//
// The zero value is ready to use.
type Hist struct {
	n, sum   uint64
	min, max uint64
	counts   [histBuckets]uint64
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.counts[bits.Len64(v)]++
}

// ObserveN records the same value n times, equivalent to n calls to
// Observe but O(1). The fast-forward path uses it to batch-sample the
// constant occupancy of skipped cycles.
func (h *Hist) ObserveN(v, n uint64) {
	if n == 0 {
		return
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n += n
	h.sum += v * n
	h.counts[bits.Len64(v)] += n
}

// N returns the number of observations.
func (h *Hist) N() uint64 { return h.n }

// Sum returns the sum of all observations.
func (h *Hist) Sum() uint64 { return h.sum }

// Min returns the smallest observation (0 when empty).
func (h *Hist) Min() uint64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *Hist) Max() uint64 { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// BucketLo returns the smallest value falling in bucket i.
func BucketLo(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1 << uint(i-1)
}

// BucketHi returns the largest value falling in bucket i.
func BucketHi(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1): the
// top of the bucket the quantile falls in, clamped to the observed
// max. Bucket resolution makes it exact to within a factor of 2.
func (h *Hist) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	if target > h.n {
		target = h.n
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i]
		if cum >= target {
			hi := BucketHi(i)
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}

// HistBucket is one non-empty bucket of a snapshot: Count observations
// fell in [Lo, Hi].
type HistBucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// HistSnapshot is a serializable summary of a histogram: moments,
// quantile bounds, and the non-empty buckets.
type HistSnapshot struct {
	N       uint64       `json:"n"`
	Sum     uint64       `json:"sum"`
	Min     uint64       `json:"min"`
	Max     uint64       `json:"max"`
	Mean    float64      `json:"mean"`
	P50     uint64       `json:"p50"`
	P90     uint64       `json:"p90"`
	P99     uint64       `json:"p99"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot summarizes the histogram for reports.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{
		N:    h.n,
		Sum:  h.sum,
		Min:  h.Min(),
		Max:  h.max,
		Mean: h.Mean(),
		P50:  h.Quantile(0.50),
		P90:  h.Quantile(0.90),
		P99:  h.Quantile(0.99),
	}
	for i, c := range h.counts {
		if c > 0 {
			s.Buckets = append(s.Buckets, HistBucket{Lo: BucketLo(i), Hi: BucketHi(i), Count: c})
		}
	}
	return s
}

// String renders a one-line summary.
func (s HistSnapshot) String() string {
	if s.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.1f min=%d p50≤%d p90≤%d p99≤%d max=%d",
		s.N, s.Mean, s.Min, s.P50, s.P90, s.P99, s.Max)
}

// ---------------------------------------------------------------------------
// Histogram registry on Counters
// ---------------------------------------------------------------------------

// Hist returns the named histogram, creating it on first use.
// Components fetch their histograms once at construction and hold the
// pointer, keeping the hot path free of map lookups. Histogram names
// share the slash-separated namespace of counters ("lat/miss_service",
// "occ/mshr").
func (c *Counters) Hist(name string) *Hist {
	h := c.hists[name]
	if h == nil {
		h = &Hist{}
		c.hists[name] = h
	}
	return h
}

// HistSnapshots summarizes every registered histogram (including
// empty ones, so reports always carry the full metric schema).
func (c *Counters) HistSnapshots() map[string]HistSnapshot {
	out := make(map[string]HistSnapshot, len(c.hists))
	for k, h := range c.hists {
		out[k] = h.Snapshot()
	}
	return out
}
