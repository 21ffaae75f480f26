package sim

import (
	"reflect"
	"testing"

	"tssim/internal/telemetry"
)

// TestCollectorDoesNotPerturbResults is the telemetry no-perturbation
// guard: the same job matrix run with and without a collector attached
// must produce bit-identical simulation outcomes (cycles, retirement,
// per-CPU counts, counters) at any parallelism. Telemetry is pure
// observation — the instant it feeds back into simulated state, this
// fails.
func TestCollectorDoesNotPerturbResults(t *testing.T) {
	w := lockCounterWorkload(4, 15, 40, false)
	cfg := fastCfg(Techniques{MESTI: true, EMESTI: true, LVP: true, SLE: true})
	cfg.Bus.JitterMax = 5
	jobs := SampleJobs(cfg, w, 4)

	plain := NewRunner().Jobs(2).RunAll(jobs)
	tel := telemetry.New()
	observed := NewRunner().Jobs(2).Collect(tel).RunAll(jobs)

	for i := range plain {
		p, o := plain[i], observed[i]
		if p.Err != nil || o.Err != nil {
			t.Fatalf("run %d failed: plain=%v observed=%v", i, p.Err, o.Err)
		}
		if p.Cycles != o.Cycles || p.Retired != o.Retired {
			t.Errorf("run %d: cycles/retired %d/%d with collector vs %d/%d without",
				i, o.Cycles, o.Retired, p.Cycles, p.Retired)
		}
		if !reflect.DeepEqual(p.PerCPU, o.PerCPU) {
			t.Errorf("run %d: per-CPU retirement differs with collector", i)
		}
		if !reflect.DeepEqual(p.Counters, o.Counters) {
			t.Errorf("run %d: counters differ with collector", i)
		}
	}

	// And the ride-along must actually have observed the sweep.
	rep := tel.Report()
	if rep.JobsDone != int64(len(jobs)) || rep.JobsFailed != 0 {
		t.Errorf("collector saw %d done / %d failed, want %d/0",
			rep.JobsDone, rep.JobsFailed, len(jobs))
	}
	if rep.Spans[telemetry.PhaseSimulate].N != uint64(len(jobs)) {
		t.Errorf("simulate spans recorded = %d, want %d",
			rep.Spans[telemetry.PhaseSimulate].N, len(jobs))
	}
	var cycles uint64
	for _, r := range observed {
		cycles += r.Cycles
	}
	if rep.SimCycles != cycles {
		t.Errorf("collector sim cycles = %d, want %d", rep.SimCycles, cycles)
	}
}

// TestCollectorSeesFailures: a job that trips the watchdog is counted
// as failed without disturbing its neighbors' telemetry, and — the
// observed and the plain run being one function — comes back as the
// same Result either way: error, post-mortem and partial counters.
func TestCollectorSeesFailures(t *testing.T) {
	w, cfg := stallWorkload(4)
	okW := lockCounterWorkload(4, 10, 40, false)
	okCfg := fastCfg(Techniques{})
	jobs := []Job{{Cfg: cfg, W: w}, {Cfg: okCfg, W: okW}}

	tel := telemetry.New()
	results := NewRunner().Jobs(2).Collect(tel).RunAll(jobs)
	if results[0].Err == nil {
		t.Fatal("stall workload did not fail")
	}
	if results[1].Err != nil {
		t.Fatalf("healthy workload failed: %v", results[1].Err)
	}
	rep := tel.Report()
	if rep.JobsDone != 2 || rep.JobsFailed != 1 {
		t.Errorf("collector saw %d done / %d failed, want 2/1", rep.JobsDone, rep.JobsFailed)
	}
	if plain := NewRunner().Jobs(2).RunAll(jobs); !reflect.DeepEqual(plain, results) {
		t.Errorf("results differ with a collector attached:\nplain:    %+v\nobserved: %+v", plain, results)
	}
}
