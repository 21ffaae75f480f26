package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload x end-to-end metric pair.
const (
	unchanged  = "unchanged"
	regressed  = "REGRESSED"
	unresolved = "unresolved"
)

// verdict judges b against a. Every end-to-end metric is lower-is-
// better, so b is a regression when it exceeds a by more than the
// bound. Within the bound a timing is unchanged only if both runs were
// quiet: when either side's p10-over-minimum exceeds 1+bound, the
// host's own spread is wider than what the bound can resolve. Pass a
// p10 of 0 for a metric the host's timing noise does not reach.
func verdict(a, b, bound, p10A, p10B float64) string {
	switch {
	case b > a*(1+bound):
		return regressed
	case p10A > 1+bound || p10B > 1+bound:
		return unresolved
	}
	return unchanged
}

func readDocument(path string) (document, error) {
	var d document
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != schema {
		return d, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, schema)
	}
	if !d.Comparable {
		return d, fmt.Errorf("%s: a -quick run is not comparable", path)
	}
	return d, nil
}

func compareFiles(aPath, bPath string, w io.Writer) (bool, error) {
	a, err := readDocument(aPath)
	if err != nil {
		return false, err
	}
	b, err := readDocument(bPath)
	if err != nil {
		return false, err
	}
	return compare(a, b, w), nil
}

// compare prints A, B, their ratio and the bound for every workload x
// end-to-end metric present in both documents, and reports whether any
// pair regressed or failed_share rose.
func compare(a, b document, w io.Writer) bool {
	bad := false
	fmt.Fprintf(w, "%-14s %-22s %12s %12s %8s %6s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			p10A := wa.PerLayer["harness.rep_p10_ratio"].Value
			p10B := wb.PerLayer["harness.rep_p10_ratio"].Value
			for _, d := range endToEnd {
				va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
				noiseA, noiseB := p10A, p10B
				if d.Unit != "s" && d.Unit != "ns" {
					noiseA, noiseB = 0, 0 // allocation is deterministic
				}
				v := verdict(va, vb, d.Bound, noiseA, noiseB)
				bad = bad || v == regressed
				fmt.Fprintf(w, "%-14s %-22s %12.6g %12.6g %8.3f %6.2f  %s\n", wa.Name, d.Name, va, vb, ratio(vb, va), d.Bound, v)
			}
			fa, fb := wa.EndToEnd["failed_share"].Value, wb.EndToEnd["failed_share"].Value
			v := unchanged
			if fb > fa {
				v, bad = regressed, true
			}
			fmt.Fprintf(w, "%-14s %-22s %12.6g %12.6g %8s %6.2f  %s\n", wa.Name, "failed_share", fa, fb, "", 0.0, v)
		}
	}
	return bad
}
