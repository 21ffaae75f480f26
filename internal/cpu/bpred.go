package cpu

import "tssim/internal/isa"

// bpred is a table of 2-bit saturating counters indexed by PC — the
// classic bimodal predictor standing in for Table 1's branch
// predictor. Targets are exact (they are encoded in the instruction),
// so only direction is predicted.
type bpred struct {
	table []uint8
	mask  int
}

func newBpred(size int) *bpred {
	// Round to a power of two for cheap masking.
	n := 1
	for n < size {
		n <<= 1
	}
	t := make([]uint8, n)
	for i := range t {
		t[i] = 1 // weakly not-taken
	}
	return &bpred{table: t, mask: n - 1}
}

func (b *bpred) predict(pc int, op isa.Op) bool {
	if op == isa.OpJmp {
		return true
	}
	return b.table[pc&b.mask] >= 2
}

func (b *bpred) update(pc int, taken bool) {
	ctr := &b.table[pc&b.mask]
	if taken {
		if *ctr < 3 {
			*ctr++
		}
	} else if *ctr > 0 {
		*ctr--
	}
}
