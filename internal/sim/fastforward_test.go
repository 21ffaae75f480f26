package sim

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"tssim/internal/isa"
	"tssim/internal/telemetry"
	"tssim/internal/workload"
)

// ffCell is one cell of the fast-forward differential: a workload and
// technique combo on a fabric at a CPU count ("" is the atomic bus).
type ffCell struct {
	workload string
	tech     Techniques
	fabric   string
	cpus     int
}

// name keeps the historical workload/tech label for the default
// machine and appends the fabric and CPU count otherwise.
func (c ffCell) name() string {
	n := c.workload + "/" + c.tech.String()
	if c.fabric != "" || c.cpus != 4 {
		n += fmt.Sprintf("/%s/%d", c.fabric, c.cpus)
	}
	return n
}

// shortcuts counts what a run answered from its verdicts instead of
// computing it: the cores' ticks (idle and steady verdicts) and load
// retries (retry memos), the controllers' ticks (idle verdicts) and the
// fabric's ticks (its standing horizon).
type shortcuts struct {
	replayed, steady, memoized, ctrlSkipped, busSkipped uint64
}

// renderedReport runs one cell and returns the rendered report bytes
// (every counter, histogram, cycle count and config field), the raw
// result, and its shortcuts. Fast-forward is controlled by noFF;
// everything else is identical.
func renderedReport(t *testing.T, c ffCell, noFF bool) (report []byte, r Result, sc shortcuts) {
	t.Helper()
	cfg := ExperimentConfig()
	cfg.CPUs = c.cpus
	cfg.Interconnect = c.fabric
	cfg.Tech = c.tech
	cfg.NoFastForward = noFF
	w, err := workload.ByName(c.workload, workload.Params{CPUs: cfg.CPUs, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg, w)
	r, rerr := s.RunErr(w)
	if rerr != nil {
		t.Fatalf("%s (noFF=%v): %v", c.name(), noFF, rerr)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSON(&buf, NewReport(cfg, r)); err != nil {
		t.Fatal(err)
	}
	for i, core := range s.Cores {
		sc.replayed += core.ReplayedTicks()
		sc.steady += core.SteadyTicks()
		sc.memoized += core.MemoizedRetries()
		sc.ctrlSkipped += s.Nodes[i].SkippedTicks()
	}
	sc.busSkipped = s.Bus.SkippedTicks()
	return buf.Bytes(), r, sc
}

// TestFastForwardBitIdentical is the tentpole differential: a
// fast-forwarded run must render a byte-identical report to the
// every-cycle loop — same cycles, same counters (including the spin
// counters replayed across idle ticks and skipped cycles), same
// downsampled occupancy histograms — and the every-cycle loop must be
// a real twin: its cores and controllers audit every idle verdict, the
// cores every memoized load refusal and the fabric its horizon, and
// none of them takes the shortcut it audits.
// Every Figure 7 combo runs on the default machine for tpc-b (the
// compute-bound extreme: few skips, exercises the no-op boundary) and
// specjbb (the idle-heavy extreme, ~70% of cycles skipped); three more
// cells put the verdicts on the other two fabrics at the sizes where
// most cores sit idle behind an active one, the last with SC heads,
// validates and the split bus's wide grant windows together; two more
// run tpc-h, whose cores spend ~40 % of their pipeline ticks spinning
// at a barrier under a steady verdict.
func TestFastForwardBitIdentical(t *testing.T) {
	var cells []ffCell
	for _, name := range []string{"tpc-b", "specjbb"} {
		if name == "specjbb" && testing.Short() {
			continue
		}
		for _, tech := range AllCombos() {
			cells = append(cells, ffCell{name, tech, "", 4})
		}
	}
	if !testing.Short() {
		cells = append(cells,
			ffCell{"specjbb", Techniques{MESTI: true}, "directory", 16},
			ffCell{"tpc-b", Techniques{MESTI: true, EMESTI: true, LVP: true, SLE: true}, "splitbus", 8},
			ffCell{"specjbb", Techniques{MESTI: true, EMESTI: true, LVP: true, SLE: true}, "splitbus", 8},
			ffCell{"tpc-h", Techniques{}, "", 4},
			ffCell{"tpc-h", Techniques{MESTI: true, EMESTI: true, LVP: true, SLE: true}, "", 4})
	}
	for _, c := range cells {
		t.Run(c.name(), func(t *testing.T) {
			t.Parallel()
			naive, _, oracle := renderedReport(t, c, true)
			ff, r, fast := renderedReport(t, c, false)
			if !bytes.Equal(naive, ff) {
				t.Fatalf("%s: fast-forward report diverges from naive loop\nnaive:\n%s\nfast-forward:\n%s",
					c.name(), naive, ff)
			}
			if r.SkippedCycles == 0 || fast.replayed == 0 || fast.steady == 0 || fast.ctrlSkipped == 0 || fast.busSkipped == 0 {
				t.Errorf("%s: fast-forward skipped %d cycles, replayed %d idle and %d steady core ticks, skipped %d controller and %d fabric ticks — a path under test never ran",
					c.name(), r.SkippedCycles, fast.replayed, fast.steady, fast.ctrlSkipped, fast.busSkipped)
			}
			if oracle != (shortcuts{}) {
				t.Errorf("%s: the every-cycle loop took the shortcuts it checks: %+v", c.name(), oracle)
			}
			// How much is skipped is exact for a fixed machine: specjbb
			// under Baseline sits stalled for 0.6972 of its cycles (some
			// 5 200 stretches of 19 cycles) and tpc-b for under 0.02 under
			// every combo. A verdict dropped where nothing changed — a
			// partial collapse, one more tick a stretch — moves nothing
			// simulated and still skips something: a core that drops its
			// verdict on every second tick reads 0.6785 here and passes
			// everything above.
			if c.fabric == "" && c.cpus == 4 {
				f := float64(r.SkippedCycles) / float64(r.Cycles)
				if c.workload == "specjbb" && c.tech == (Techniques{}) && f < 0.69 {
					t.Errorf("%s: fast-forward skipped %.4f of the cycles, want at least 0.69", c.name(), f)
				}
				if c.workload == "tpc-b" && f > 0.05 {
					t.Errorf("%s: fast-forward skipped %.4f of the cycles, want at most 0.05", c.name(), f)
				}
				// tpc-h under Baseline answers 570 242 of its 1 397 725
				// pipeline ticks (0.4080) from steady verdicts, in some 3 700
				// stretches. A verdict formed a tick later than it could be
				// costs a stretch one tick and reads about 0.405 here. A core
				// replays every cycle it does not run the pipeline, skipped
				// ones included.
				pipeline := uint64(c.cpus)*r.Cycles - fast.replayed
				if s := float64(fast.steady) / float64(pipeline); c.workload == "tpc-h" && c.tech == (Techniques{}) && s < 0.407 {
					t.Errorf("%s: %.4f of the pipeline ticks replayed a steady verdict, want at least 0.407", c.name(), s)
				}
			}
			// On directory · 16, 4 890 071 of the 5 726 528 core ticks the
			// loop runs (0.8539) find the core asleep on its idle verdict;
			// the oracle side sleeps through none (its replayed count is 0,
			// above). A wake for nothing — a core roused that then ticks
			// idle again — costs a tick and lowers this share.
			if c.fabric == "directory" && c.cpus == 16 {
				ticks := uint64(c.cpus) * (r.Cycles - r.SkippedCycles)
				asleep := fast.replayed - uint64(c.cpus)*r.SkippedCycles
				if f := float64(asleep) / float64(ticks); f < 0.80 {
					t.Errorf("%s: %.4f of the core ticks found the core asleep (%d of %d), want at least 0.80", c.name(), f, asleep, ticks)
				}
			}
			// specjbb is where loads pile up behind the exhausted MSHR
			// file; tpc-b never fills it.
			if c.workload == "specjbb" && fast.memoized == 0 {
				t.Errorf("%s: no load retry was answered from its memo — the path under test never ran", c.name())
			}
		})
	}
}

// TestAuditViolationFailsRun pins the wiring from an oracle core's
// audit to the run's outcome: a latched violation ends the run as a
// RunError carrying the core's message and the machine dump.
func TestAuditViolationFailsRun(t *testing.T) {
	w, cfg := stallWorkload(2)
	cfg.CPUs = 2
	cfg.NoFastForward = true
	s := New(cfg, w)
	s.auditErr = errors.New("cpu1 cycle 7: idle verdict violated")
	_, err := s.RunErr(w)
	var re *RunError
	if !errors.As(err, &re) || re.Reason != s.auditErr.Error() || re.PostMortem == "" {
		t.Fatalf("want a RunError with the audit message and a post-mortem, got %v", err)
	}
}

// TestFastForwardMaxCyclesIdentical truncates both runs at the same
// MaxCycles (forcing a skip to land exactly on the bound) and requires
// both to fail with the same reason at the bound, with identical
// partial results.
func TestFastForwardMaxCyclesIdentical(t *testing.T) {
	w, err := workload.ByName("specjbb", workload.Params{CPUs: 4, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 30_000
	run := func(noFF bool) (Result, string) {
		cfg := ExperimentConfig()
		cfg.MaxCycles = bound
		cfg.NoFastForward = noFF
		s := New(cfg, w)
		r, err := s.RunErr(w)
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("noFF=%v: truncated run returned %v, want a RunError", noFF, err)
		}
		return r, re.Reason
	}
	naive, nReason := run(true)
	ff, fReason := run(false)
	if naive.Cycles != bound || ff.Cycles != bound || nReason != fReason || !strings.Contains(nReason, "MaxCycles 30000") {
		t.Fatalf("truncation diverges:\nnaive: cycle %d, %q\nff:    cycle %d, %q", naive.Cycles, nReason, ff.Cycles, fReason)
	}
	if naive.Retired != ff.Retired {
		t.Fatalf("truncated runs diverge: naive retired=%d, ff retired=%d", naive.Retired, ff.Retired)
	}
	for k, v := range naive.Counters {
		if ff.Counters[k] != v {
			t.Errorf("counter %s: naive %d, ff %d", k, v, ff.Counters[k])
		}
	}
}

// TestFastForwardWatchdogIdentical requires the watchdog to fire at
// the same architectural cycle with the same reason under both paths:
// the skip target is capped at lastProgress+watchdog+1 precisely so
// this holds. Two inputs: the cold-miss stall (watchdog tightened
// below one miss-service time, so the trip happens while every
// component is quiescent and the kernel wants to skip past it), and a
// livelock whose CPUs retire forever, so only a store performing or a
// CPU halting may count as progress if the watchdog is to trip before
// MaxCycles.
func TestFastForwardWatchdogIdentical(t *testing.T) {
	stallW, stallCfg := stallWorkload(2)
	stallCfg.CPUs = 2
	spinW, spinCfg := livelockWorkload()
	for _, in := range []struct {
		w   Workload
		cfg Config
	}{{stallW, stallCfg}, {spinW, spinCfg}} {
		run := func(noFF bool) (uint64, string) {
			cfg := in.cfg
			cfg.NoFastForward = noFF
			s := New(cfg, in.w)
			r, err := s.RunErr(in.w)
			var re *RunError
			if !errors.As(err, &re) || !strings.Contains(re.Reason, "deadlock") {
				t.Fatalf("%s: expected watchdog RunError, got %v", in.w.Name, err)
			}
			return r.Cycles, re.Reason
		}
		nCycles, nReason := run(true)
		fCycles, fReason := run(false)
		if nCycles != fCycles || nReason != fReason {
			t.Fatalf("%s: watchdog diverges:\nnaive: cycle %d, %q\nff:    cycle %d, %q",
				in.w.Name, nCycles, nReason, fCycles, fReason)
		}
	}
}

// livelockWorkload: two CPUs race for a lock; the winner then spins on
// a flag nobody sets and the loser on the lock. Both retire loads and
// branches forever, MaxCycles is ten watchdog periods, and nothing
// performs a store after the acquire.
func livelockWorkload() (Workload, Config) {
	const lockAddr, flagAddr = 0x1000, 0x2000
	progs := make([]*isa.Program, 2)
	for i := range progs {
		b := isa.NewBuilder(fmt.Sprintf("livelock-cpu%d", i))
		b.Li(isa.R10, lockAddr)
		b.Li(isa.R11, flagAddr)
		workload.EmitAcquire(b, isa.R10, false, 0)
		spin := b.Here()
		b.Ld(isa.R12, isa.R11, 0)
		b.Beq(isa.R12, isa.R0, spin)
		workload.EmitRelease(b, isa.R10)
		b.Halt()
		progs[i] = b.Build()
	}
	cfg := fastCfg(Techniques{})
	cfg.CPUs = 2
	cfg.NoProgressCycles = 2000
	cfg.MaxCycles = 10 * cfg.NoProgressCycles
	return Workload{Name: "livelock", Programs: progs}, cfg
}
