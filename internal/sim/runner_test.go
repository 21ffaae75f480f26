package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"tssim/internal/isa"
	"tssim/internal/mem"
)

// stallWorkload is a single cold miss with a watchdog tightened below
// the miss-service time: the run always trips the deadlock watchdog.
func stallWorkload(cpus int) (Workload, Config) {
	b := isa.NewBuilder("stall")
	b.Li(isa.R10, 0x8000)
	b.Ld(isa.R11, isa.R10, 0)
	b.Halt()
	cfg := fastCfg(Techniques{MESTI: true})
	cfg.NoProgressCycles = 10
	return singleCPUWorkload("stall", b.Build(), cpus), cfg
}

// TestRunnerDeterminism is the parallel-safety regression guard: the
// same (cfg, seed) matrix run serially via RunOne and through the
// Runner at -j 8 must produce bit-identical cycles, retirement counts,
// and counter snapshots. Any accidental shared state between
// concurrently running Systems shows up here (and under -race in CI).
func TestRunnerDeterminism(t *testing.T) {
	const n = 6
	w := lockCounterWorkload(4, 15, 40, false)
	cfg := fastCfg(Techniques{MESTI: true, EMESTI: true, LVP: true, SLE: true})
	cfg.Bus.JitterMax = 5

	jobs := SampleJobs(cfg, w, n)
	serial := make([]Result, len(jobs))
	for i, j := range jobs {
		serial[i] = RunOne(j.Cfg, j.W)
	}
	parallel := NewRunner().Jobs(8).RunAll(jobs)

	if len(parallel) != len(serial) {
		t.Fatalf("parallel returned %d results for %d jobs", len(parallel), len(serial))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if p.Err != nil {
			t.Fatalf("run %d failed under the Runner: %v", i, p.Err)
		}
		if s.Cycles != p.Cycles {
			t.Errorf("run %d: cycles serial=%d parallel=%d", i, s.Cycles, p.Cycles)
		}
		if s.Retired != p.Retired {
			t.Errorf("run %d: retired serial=%d parallel=%d", i, s.Retired, p.Retired)
		}
		if !reflect.DeepEqual(s.PerCPU, p.PerCPU) {
			t.Errorf("run %d: per-CPU retirement differs: %v vs %v", i, s.PerCPU, p.PerCPU)
		}
		if !reflect.DeepEqual(s.Counters, p.Counters) {
			for k, v := range s.Counters {
				if p.Counters[k] != v {
					t.Errorf("run %d: counter %q serial=%d parallel=%d", i, k, v, p.Counters[k])
				}
			}
		}
	}
	// Seeds must actually differ between runs for this test to mean
	// anything: with jitter on, at least two cycle counts should vary.
	varied := false
	for i := 1; i < len(serial); i++ {
		if serial[i].Cycles != serial[0].Cycles {
			varied = true
		}
	}
	if !varied {
		t.Error("all seeded runs produced identical cycles; jitter is not exercising the seeds")
	}
}

// TestRepeatDeterminism: the same (cfg, seed) run repeatedly must be
// bit-identical run-to-run within one process. This pins the
// simulator against map-iteration-order leaks into behavior (e.g. the
// SLE write-set prefetch order, which once entered the bus queue in
// map order and scattered cycle counts across repeats).
func TestRepeatDeterminism(t *testing.T) {
	w := lockCounterWorkload(4, 15, 40, false)
	cfg := fastCfg(Techniques{MESTI: true, EMESTI: true, LVP: true, SLE: true})
	cfg.Bus.JitterMax = 5
	cfg.Seed = 42
	ref := RunOne(cfg, w)
	for i := 0; i < 4; i++ {
		r := RunOne(cfg, w)
		if r.Cycles != ref.Cycles || r.Retired != ref.Retired {
			t.Fatalf("repeat %d diverged: cycles %d vs %d, retired %d vs %d",
				i, r.Cycles, ref.Cycles, r.Retired, ref.Retired)
		}
		if !reflect.DeepEqual(r.Counters, ref.Counters) {
			for k, v := range ref.Counters {
				if r.Counters[k] != v {
					t.Errorf("repeat %d: counter %q = %d, want %d", i, k, r.Counters[k], v)
				}
			}
			t.FailNow()
		}
	}
}

// TestRunnerSampleMatchesSerial checks the Sample convenience is
// order- and value-identical at any parallelism.
func TestRunnerSampleMatchesSerial(t *testing.T) {
	w := lockCounterWorkload(2, 10, 50, false)
	cfg := fastCfg(Techniques{})
	cfg.CPUs = 2
	s1, err := NewRunner().Jobs(1).Sample(cfg, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	s8, err := NewRunner().Jobs(8).Sample(cfg, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1.Values(), s8.Values()) {
		t.Fatalf("sample values differ: -j1 %v vs -j8 %v", s1.Values(), s8.Values())
	}
}

// TestRunOneErrDeadlockCaptured: the watchdog trip becomes Result.Err
// with the post-mortem captured in the error (not stderr), and the
// partial result still carries the cycles and counters it reached.
func TestRunOneErrDeadlockCaptured(t *testing.T) {
	w, cfg := stallWorkload(4)
	r := RunOneErr(cfg, w)
	if r.Err == nil {
		t.Fatal("deadlocked run returned no error")
	}
	var re *RunError
	if !errors.As(r.Err, &re) {
		t.Fatalf("Err is %T, want *RunError", r.Err)
	}
	if !strings.Contains(re.Reason, "deadlock") {
		t.Errorf("reason %q does not mention deadlock", re.Reason)
	}
	if !strings.Contains(re.PostMortem, "post-mortem") || !strings.Contains(re.PostMortem, "mshr addr=") {
		t.Errorf("post-mortem not captured into the error:\n%s", re.PostMortem)
	}
	if r.Finished {
		t.Error("deadlocked run reported Finished")
	}
	if r.Cycles == 0 || len(r.Counters) == 0 {
		t.Error("partial result missing cycles/counters")
	}
}

// TestRunOneErrValidationFailure: a functional-validation failure
// flows through the error path instead of panicking.
func TestRunOneErrValidationFailure(t *testing.T) {
	w := lockCounterWorkload(2, 5, 10, false)
	w.Validate = func(m *mem.Memory, read func(uint64) uint64) error {
		return errors.New("forced failure")
	}
	cfg := fastCfg(Techniques{})
	cfg.CPUs = 2
	r := RunOneErr(cfg, w)
	if r.Err == nil {
		t.Fatal("validation failure returned no error")
	}
	if !strings.Contains(r.Err.Error(), "validation failed") {
		t.Errorf("error %q does not mention validation", r.Err)
	}
	if r.Finished {
		t.Error("a run that failed validation reported Finished")
	}
}

// TestRunOneErrTruncationCaptured: a run that reaches MaxCycles before
// the machine drains is a failure like a watchdog trip — a RunError
// naming the bound, with the post-mortem captured and the partial
// result kept — never a result that merely reads unfinished.
func TestRunOneErrTruncationCaptured(t *testing.T) {
	w := lockCounterWorkload(2, 5, 10, false)
	cfg := fastCfg(Techniques{})
	cfg.CPUs = 2
	cfg.MaxCycles = 500
	r := RunOneErr(cfg, w)
	var re *RunError
	if !errors.As(r.Err, &re) {
		t.Fatalf("truncated run returned %v, want a *RunError", r.Err)
	}
	if !strings.Contains(re.Reason, "MaxCycles 500") || !strings.Contains(re.Reason, "did not finish") {
		t.Errorf("reason %q does not name the bound", re.Reason)
	}
	if !strings.Contains(re.PostMortem, "post-mortem") {
		t.Errorf("post-mortem not captured into the error:\n%s", re.PostMortem)
	}
	if r.Finished || r.Cycles != 500 || r.Retired == 0 {
		t.Errorf("partial result: finished %v, cycles %d, retired %d", r.Finished, r.Cycles, r.Retired)
	}
}

// TestRunAllIsolatesFailures: one livelocked cell fails alone; its
// neighbors complete, and ordering matches the job list.
func TestRunAllIsolatesFailures(t *testing.T) {
	good := lockCounterWorkload(4, 10, 20, false)
	bad, badCfg := stallWorkload(4)
	jobs := []Job{
		{Cfg: fastCfg(Techniques{}), W: good},
		{Cfg: badCfg, W: bad},
		{Cfg: fastCfg(Techniques{MESTI: true}), W: good},
	}
	results := NewRunner().Jobs(3).RunAll(jobs)
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy cells failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("deadlocked cell did not fail")
	}
	for i, want := range []string{"lockctr", "stall", "lockctr"} {
		if results[i].Workload != want {
			t.Errorf("result %d is %q, want %q (ordering broken)", i, results[i].Workload, want)
		}
	}
}

// TestRunOneErrRecoversPanic: a panic out of assembly is recovered
// into the error with a stack capture, one row per way New refuses a
// machine.
func TestRunOneErrRecoversPanic(t *testing.T) {
	for _, row := range []struct {
		name string
		w    Workload
		cpus int
		want string // in the reason
	}{
		{"program count", lockCounterWorkload(2, 5, 10, false), 4, "has 2 programs for 4 CPUs"},
		{"wider than MaxCPUs", lockCounterWorkload(MaxCPUs+1, 5, 10, false), MaxCPUs + 1, "65 CPUs: a machine has at most MaxCPUs = 64"},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := fastCfg(Techniques{})
			cfg.CPUs = row.cpus
			r := RunOneErr(cfg, row.w)
			if r.Err == nil {
				t.Fatal("panic was not recovered into Result.Err")
			}
			var re *RunError
			if !errors.As(r.Err, &re) {
				t.Fatalf("Err is %T, want *RunError", r.Err)
			}
			if !strings.Contains(re.Reason, "panic: sim: ") || !strings.Contains(re.Reason, row.want) {
				t.Errorf("reason %q is not a recovered panic naming %q", re.Reason, row.want)
			}
			if re.PostMortem == "" {
				t.Error("no stack captured for the recovered panic")
			}
		})
	}
}

// TestSampleSeedNoCrossCellCollisions is the regression guard for the
// seed-derivation fix: the historical base+i*7919 scheme made sweep
// cells whose base seeds differ by a multiple of 7919 reuse each
// other's jitter streams (base 0 run 1 == base 7919 run 0), silently
// correlating "independent" samples. The splitmix64 derivation must
// give every (base, run) pair a distinct seed across bases including
// exact multiples of the old stride.
func TestSampleSeedNoCrossCellCollisions(t *testing.T) {
	// The historical failure, reproduced with the old formula so the
	// test documents what went wrong.
	if old := func(base int64, i int) int64 { return base + int64(i)*7919 }; old(0, 1) != old(7919, 0) {
		t.Fatal("historical collision reproduction is wrong")
	}
	bases := []int64{0, 5, 7919, 2 * 7919, -7919}
	const runs = 16
	seen := make(map[int64][2]int, len(bases)*runs)
	for bi, base := range bases {
		for i := 0; i < runs; i++ {
			s := sampleSeed(base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: base=%d run=%d and base=%d run=%d both derive %d",
					bases[prev[0]], prev[1], base, i, s)
			}
			seen[s] = [2]int{bi, i}
		}
	}
}
