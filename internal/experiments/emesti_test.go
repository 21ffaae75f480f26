package experiments

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tssim/internal/predictor"
	"tssim/internal/sim"
	"tssim/internal/workload"
)

// E-MESTI adds to MESTI the VS state, the useful snoop response and
// the useful-validate predictor; the first two only train the third.
// So with a predictor that never suppresses a validate (threshold 0),
// an E-MESTI run must be its MESTI run in every cycle, instruction,
// histogram and counter but the emesti/* ones: every E-MESTI − MESTI
// difference in a table is the suppression decision. The rows are
// raytrace and tpc-b under each LVP/SLE combination on splitbus · 8
// and directory · 16, at scale 1 with jitter 5 and seed 0: the fabrics
// and widths where an Upgrade waits longest for its grant.
func TestEMESTIWithoutSuppressionIsMESTI(t *testing.T) {
	never := predictor.ValidateParams{InitConf: 3, Threshold: 0, Inc: 1, Dec: 1}
	var jobs []sim.Job // MESTI, then E-MESTI, row by row
	for _, m := range []struct {
		fabric string
		cpus   int
	}{{"splitbus", 8}, {"directory", 16}} {
		for _, name := range []string{"raytrace", "tpc-b"} {
			w, err := workload.ByName(name, workload.Params{CPUs: m.cpus, Scale: 1, UnsafeISyncEvery: 3})
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range []sim.Techniques{{}, {LVP: true}, {SLE: true}, {LVP: true, SLE: true}} {
				cfg := sim.ExperimentConfig()
				cfg.CPUs, cfg.Interconnect, cfg.Bus.JitterMax = m.cpus, m.fabric, 5
				cfg.Tech = spec
				cfg.Tech.MESTI = true
				jobs = append(jobs, sim.Job{Cfg: cfg, W: w})
				cfg.Tech.EMESTI = true
				cfg.Node.ValidateParams = never
				jobs = append(jobs, sim.Job{Cfg: cfg, W: w})
			}
		}
	}
	rs := sim.NewRunner().RunAll(jobs)
	for i := 0; i < len(jobs); i += 2 {
		if d := differ(rs[i], rs[i+1]); d != "" {
			c := jobs[i].Cfg
			t.Errorf("%s under %s on %s · %d: E-MESTI at threshold 0 is not MESTI: %s",
				jobs[i].W.Name, c.Tech, c.Interconnect, c.CPUs, d)
		}
	}
}

// differ says how e departs from m outside the emesti/* counters, or
// returns "": cycles and retired instructions, then the first
// differing counter in sorted order.
func differ(m, e sim.Result) string {
	if m.Err != nil || e.Err != nil {
		return fmt.Sprintf("failed: %v / %v", m.Err, e.Err)
	}
	var names []string
	for _, c := range []map[string]uint64{m.Counters, e.Counters} {
		for k := range c {
			if !strings.HasPrefix(k, "emesti/") && m.Counters[k] != e.Counters[k] {
				names = append(names, k)
			}
		}
	}
	sort.Strings(names)
	if len(names) == 0 && m.Cycles == e.Cycles && reflect.DeepEqual(m.PerCPU, e.PerCPU) && reflect.DeepEqual(m.Hists, e.Hists) {
		return ""
	}
	d := fmt.Sprintf("cycles %d / %d, retired %d / %d", m.Cycles, e.Cycles, m.Retired, e.Retired)
	if len(names) > 0 {
		d += fmt.Sprintf(", first differing counter %s %d / %d", names[0], m.Counters[names[0]], e.Counters[names[0]])
	}
	return d
}
