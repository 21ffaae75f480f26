// Package sim assembles the full simulated multiprocessor — N
// out-of-order cores, their cache/coherence controllers, the snooping
// bus, and functional memory — and runs workloads on it, collecting
// the statistics the paper's evaluation reports.
//
// It is the public face of the simulator: examples, the experiment
// harness, and the benchmark drive everything through sim.Config and
// one run path — RunOneErr for a cell, Runner for a matrix of cells
// (its Sample implements the multi-seed confidence-interval
// methodology of §5.3, citing Alameldeen-Wood), and System.RunErr for
// callers that inspect the machine afterwards.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"time"

	"tssim/internal/bus"
	"tssim/internal/cache"
	"tssim/internal/check"
	"tssim/internal/core"
	"tssim/internal/cpu"
	"tssim/internal/mem"
	"tssim/internal/stats"
	"tssim/internal/telemetry"
	"tssim/internal/trace"
	"tssim/internal/workload"
)

// Techniques selects which of the paper's mechanisms are active (see
// core.Techniques). The zero value is the MOESI baseline.
type Techniques = core.Techniques

// ParseTechniques reads a technique combination, case-insensitively:
// "baseline" (or nothing), "all", or any of mesti, emesti (also spelled
// e-mesti; it turns MESTI on too, see Techniques.Effective), lvp and
// sle joined with "+" — the CLIs' -tech syntax, and every label String
// prints.
func ParseTechniques(s string) (Techniques, error) {
	var t Techniques
	switch s = strings.ToLower(s); s {
	case "", "baseline":
		return t, nil
	case "all":
		return Techniques{MESTI: true, EMESTI: true, LVP: true, SLE: true}, nil
	}
	for _, part := range strings.Split(s, "+") {
		switch part {
		case "mesti":
			t.MESTI = true
		case "emesti", "e-mesti":
			t.EMESTI = true
		case "lvp":
			t.LVP = true
		case "sle":
			t.SLE = true
		default:
			return Techniques{}, fmt.Errorf("unknown technique %q (use baseline, or mesti|emesti|lvp|sle joined with +, or all)", part)
		}
	}
	return t.Effective(), nil
}

// AllCombos returns the nine configurations of Figure 7/8: baseline,
// each technique alone (with E-MESTI standing beside plain MESTI), and
// every combination of E-MESTI/LVP/SLE.
func AllCombos() []Techniques {
	return []Techniques{
		{},
		{MESTI: true},
		{MESTI: true, EMESTI: true},
		{LVP: true},
		{SLE: true},
		{MESTI: true, EMESTI: true, LVP: true},
		{MESTI: true, EMESTI: true, SLE: true},
		{LVP: true, SLE: true},
		{MESTI: true, EMESTI: true, LVP: true, SLE: true},
	}
}

// Config configures a whole system. Each core is cpu.DefaultConfig's,
// running SLE when Tech says so; each node is Node, running Tech's
// protocol techniques.
type Config struct {
	CPUs int
	Node core.Config
	Bus  bus.Config
	Tech Techniques

	// Interconnect selects the coherence fabric backend: "" or "bus"
	// (atomic snoop bus, the historical machine), "splitbus"
	// (split-transaction bus with bounded outstanding transactions), or
	// "directory" (sharer-vector directory at the memory side). See
	// bus.Kinds.
	Interconnect string

	// Seed drives the latency jitter used by the multi-run
	// confidence-interval methodology; JitterMax in Bus must be >0
	// for runs to differ.
	Seed int64

	// MaxCycles bounds a run; reaching it is a failure (0 = DefaultMaxCycles).
	MaxCycles uint64

	// NoProgressCycles is the deadlock watchdog threshold: if no store
	// performs and no CPU halts machine-wide for this many cycles the
	// run fails with a *RunError carrying the post-mortem dump
	// (0 = DefaultNoProgressCycles). Retirement is not progress: CPUs
	// spinning on a lock nobody releases retire forever. Tests tighten
	// it to exercise the watchdog quickly.
	NoProgressCycles uint64

	// Trace, when non-nil, receives every coherence/speculation event
	// (see internal/trace). Nil disables tracing entirely: the hot
	// paths then pay only a nil check per event site.
	Trace *trace.Tracer

	// CheckCommits enables the in-order commit checker on every core.
	CheckCommits bool

	// Check attaches the machine-wide coherence invariant checker
	// (internal/check): SWMR, the golden-memory data-value invariant
	// for every retired load and validate payload, and structural
	// invariants, all validated at bus-grant serialization points. A
	// violation ends the run with a *RunError carrying the post-mortem
	// dump. The checker is a pure observer: cycle counts, counters,
	// and final memory are bit-identical with it on or off. When no
	// tracer is configured, a ring-only tracer is attached so the
	// violation post-mortem includes the last trace events.
	Check bool

	// CheckSweepEvery overrides the checker's full-machine sweep
	// stride in bus grants (0 = check.DefaultSweepEvery).
	CheckSweepEvery int

	// NoFastForward disables the next-event fast-forward path: every
	// cycle is ticked and every core runs its full pipeline on every
	// tick (cpu.Core.SetOracle), auditing each idle verdict the fast
	// path would have trusted, as every cache controller audits its own
	// (core.Controller.SetOracle) and the fabric its horizon
	// (bus.Bus.SetOracle). The two paths are bit-identical in
	// every simulated observable (cycles, counters, histograms, trace
	// timestamps, check verdicts); this escape hatch exists for
	// differential testing and as a diagnostic fallback.
	NoFastForward bool

	// StartOffsets delays each core's first cycle of work: core i
	// performs nothing before cycle StartOffsets[i] (missing or zero
	// entries start at cycle 0, the historical behavior). Together
	// with Bus.ArbStart (the initial round-robin arbitration pointer)
	// this is the deterministic schedule-perturbation surface the
	// litmus enumeration mode sweeps to reach different legal
	// interleavings: every knob is plain configuration, so each
	// perturbed run is exactly as reproducible as an unperturbed one.
	StartOffsets []uint64
}

// MaxCPUs is the widest machine: where System's one-word awake sets,
// the directory's 64-bit sharer vector and the workload generators'
// address layouts all end. New rejects a wider Config.CPUs.
const MaxCPUs = 64

// DefaultMaxCycles bounds runaway workloads.
const DefaultMaxCycles = 50_000_000

// DefaultNoProgressCycles is the deadlock watchdog threshold: the
// paper-scale interconnect round-trips in ~10^3 cycles, and the longest
// stretch a generator was measured to run without a store performing
// or a CPU halting is under 5×10^5 cycles (specjbb at 64 CPUs, scale
// 2), so 2M such cycles is unambiguous livelock.
const DefaultNoProgressCycles = 2_000_000

// withDefaults fills in the values c's zero fields select: the machine
// a run of c actually uses. New builds from it and NewReport records
// it.
func (c Config) withDefaults() Config {
	if c.CPUs <= 0 {
		c.CPUs = 4
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = DefaultMaxCycles
	}
	if c.NoProgressCycles == 0 {
		c.NoProgressCycles = DefaultNoProgressCycles
	}
	return c
}

// DefaultConfig returns the scaled 4-processor machine of Table 1.
func DefaultConfig() Config {
	return Config{
		CPUs: 4,
		Node: core.DefaultConfig(),
		Bus:  bus.DefaultConfig(),
	}
}

// ExperimentConfig returns the machine used by the experiment harness
// and benchmarks: the full Table 1 core and interconnect latencies,
// with cache capacities scaled down in proportion to the synthetic
// workloads' footprints (the paper's 64KB L1-D / 16MB L2 against
// multi-gigabyte workloads becomes 8KB / 64KB against ours) so that
// capacity-miss behaviour — specjbb's defining property — survives the
// scaling.
func ExperimentConfig() Config {
	cfg := DefaultConfig()
	cfg.Node.L1 = cache.Config{SizeBytes: 8 * 1024, Assoc: 4}
	cfg.Node.L2 = cache.Config{SizeBytes: 64 * 1024, Assoc: 8}
	return cfg
}

// Workload aliases workload.Workload: a ready-to-run program set with
// memory initializer and functional validator.
type Workload = workload.Workload

// Result is one run's outcome.
type Result struct {
	Workload string
	Tech     Techniques
	Cycles   uint64
	Retired  uint64 // total committed instructions across CPUs
	PerCPU   []uint64
	Finished bool // Err == nil: the machine drained and passed every check
	Counters map[string]uint64

	// Hists summarizes every histogram collected during the run
	// (miss-service latency, bus wait, occupancies, validate reuse).
	Hists map[string]stats.HistSnapshot

	// Err records why the run failed (deadlock watchdog, checker or
	// audit violation, workload validation, recovered panic). A failed
	// run still carries whatever cycles/counters it accumulated, so a
	// post-mortem can read them. Nil on success.
	Err error

	// SkippedCycles counts the simulated cycles the next-event
	// fast-forward path jumped over instead of ticking (0 under
	// NoFastForward). It is a harness measurement: the simulated
	// machine behaves identically either way, so it is excluded from
	// reports, tables, and determinism comparisons.
	SkippedCycles uint64
}

// IPC returns aggregate committed instructions per cycle across all
// CPUs (the paper's Table 2 definition).
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Retired) / float64(r.Cycles)
}

// System is an assembled machine.
type System struct {
	cfg      Config
	Mem      *mem.Memory
	Bus      *bus.Bus
	Counters *stats.Counters
	Nodes    []*core.Controller
	Cores    []*cpu.Core
	now      uint64

	// nodeClock is the first cycle whose node phase has not run: now,
	// but now+1 during the core phase of Step. A sleeping controller
	// replays up to it when a call wakes it; a sleeping core replays up
	// to now, its core phase being the last (see Step).
	nodeClock uint64

	// coreAwake and nodeAwake hold bit i for core and node i while it
	// is awake (the components keep them: SleepOn), and wakeAt[i] is
	// core i's horizon from its last Doze, exact while it sleeps. A
	// phase asks only what can have woken: see corePhase.
	coreAwake, nodeAwake uint64
	wakeAt               []uint64

	// haltedCores is maintained incrementally by the cores
	// (cpu.Core.AttachMachine): the run loop's progress watchdog and
	// termination check read it instead of scanning every core every
	// cycle.
	haltedCores int

	// skipped counts cycles the fast-forward path jumped over
	// (Result.SkippedCycles).
	skipped uint64

	// check is the attached coherence oracle (nil unless Config.Check).
	check *check.Checker

	// auditErr is where the oracle cores, controllers and fabric
	// (SetOracle) report the first violation of a verdict or horizon the
	// fast path trusts, and the in-order commit checker
	// (Core.EnableChecker) its first divergence.
	auditErr error
}

// New assembles a system for the workload.
func New(cfg Config, w Workload) *System {
	cfg = cfg.withDefaults()
	if cfg.CPUs > MaxCPUs {
		panic(fmt.Sprintf("sim: %d CPUs: a machine has at most MaxCPUs = %d", cfg.CPUs, MaxCPUs))
	}
	if len(w.Programs) != cfg.CPUs {
		panic(fmt.Sprintf("sim: workload %q has %d programs for %d CPUs",
			w.Name, len(w.Programs), cfg.CPUs))
	}
	if cfg.Check && cfg.Trace == nil {
		// Ring-only tracer so a checker violation's post-mortem can
		// attach the last trace events. Purely observational.
		cfg.Trace = trace.New(nil)
	}
	s := &System{cfg: cfg, Mem: mem.New(), Counters: stats.NewCounters()}
	if w.Init != nil {
		w.Init(s.Mem)
	}
	var rng *rand.Rand
	if cfg.Bus.JitterMax > 0 {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	ic, err := bus.NewInterconnect(cfg.Interconnect, cfg.Bus, s.Mem, s.Counters, rng)
	if err != nil {
		panic("sim: " + err.Error()) // recovered into a RunError by RunOneErr
	}
	s.Bus = ic
	s.Bus.SetTracer(cfg.Trace)
	if cfg.NoFastForward {
		s.Bus.SetOracle(&s.auditErr)
	}

	coreCfg := cpu.DefaultConfig()
	coreCfg.SLE = cfg.Tech.SLE
	s.wakeAt = make([]uint64, cfg.CPUs)
	for i := 0; i < cfg.CPUs; i++ {
		bit := uint64(1) << i
		s.coreAwake |= bit
		s.nodeAwake |= bit
		c := cpu.New(coreCfg, i, w.Programs[i], nil, s.Counters)
		if i < len(cfg.StartOffsets) {
			c.SetStartCycle(cfg.StartOffsets[i])
		}
		if cfg.NoFastForward {
			c.SetOracle(&s.auditErr)
		}
		c.SetTracer(cfg.Trace)
		c.AttachMachine(nil, &s.haltedCores)
		ctrl := core.NewController(cfg.Node, cfg.Tech, s.Bus, c, s.Counters)
		if cfg.NoFastForward {
			ctrl.SetOracle(&s.auditErr)
		} else {
			c.SleepOn(&s.now, &s.coreAwake, bit)
			ctrl.SleepOn(&s.nodeClock, &s.nodeAwake, bit)
		}
		ctrl.SetTracer(cfg.Trace)
		c.SetMemSystem(ctrl)
		if cfg.CheckCommits {
			c.EnableChecker(&s.auditErr)
		}
		s.Cores = append(s.Cores, c)
		s.Nodes = append(s.Nodes, ctrl)
	}
	if cfg.Check {
		s.check = check.Attach(check.Config{Tech: cfg.Tech, SweepEvery: cfg.CheckSweepEvery},
			s.Bus, s.Mem, s.Nodes, s.Cores)
	}
	return s
}

// Checker exposes the attached coherence oracle (nil unless
// Config.Check). Tests use it to force sweeps and inspect violations.
func (s *System) Checker() *check.Checker { return s.check }

// Step advances the whole machine one cycle in four phases: the fabric
// (whose snoops squash unretired loads before cores commit), every
// controller, every core, and the controllers' doze. A core or
// controller whose idle verdict holds sleeps instead of ticking (Doze);
// it replays what it slept through when something wakes it, or at
// wakeAll.
func (s *System) Step() {
	now := s.now
	if s.cfg.Trace != nil {
		s.cfg.Trace.Advance(now)
	}
	s.Bus.Tick(now)
	s.nodePhase(now)
	s.corePhase(now)
	s.dozePhase()
	s.now = now + 1
}

// nodePhase ticks every controller that is awake at now. A sleeping
// one needs no asking: only a call wakes it, and the call sets its bit.
func (s *System) nodePhase(now uint64) {
	for awake := s.nodeAwake; awake != 0; awake &= awake - 1 {
		s.Nodes[bits.TrailingZeros64(awake)].Tick(now)
	}
	s.nodeClock = now + 1
}

// corePhase ticks every core that is awake at now, in index order, and
// puts it to sleep right after the tick that forms its idle verdict:
// nothing later in the phase writes what the verdict reads, since a
// core calls only its own controller and no controller call made here
// calls back another core. A sleeper is asked only when mayWake says it
// may be due.
func (s *System) corePhase(now uint64) {
	for may := s.mayWake(now); may != 0; may &= may - 1 {
		i := bits.TrailingZeros64(may)
		c := s.Cores[i]
		if s.coreAwake&(1<<i) == 0 {
			if ne := c.Doze(now); ne > now {
				s.wakeAt[i] = ne
				continue
			}
		}
		c.Tick(now)
		s.wakeAt[i] = c.Doze(now + 1)
	}
}

// dozePhase puts every awake controller whose idle verdict holds to
// sleep, at the end of the cycle. Not right after its own tick: mayWake
// reads an awake node as "this node's state version may have moved this
// cycle", and a bus-phase call can move it without calling the core
// back (an Upgrade completion frees its MSHR), so the node stays awake
// through the core phase that asks its sleeping core.
func (s *System) dozePhase() {
	for awake := s.nodeAwake; awake != 0; awake &= awake - 1 {
		s.Nodes[bits.TrailingZeros64(awake)].Doze()
	}
}

// mayWake returns the cores that must be asked whether they are awake
// at now: those awake, those whose horizon has come, and those whose
// node is awake. A node's StateVersion moves only in a call or a tick,
// which leave it awake through the cycle's core phase, so a core whose
// node sleeps has seen no move since its own Doze.
func (s *System) mayWake(now uint64) uint64 {
	may := s.coreAwake | s.nodeAwake
	for i, t := range s.wakeAt {
		if t <= now {
			may |= 1 << i
		}
	}
	return may
}

// nextEvent returns the earliest cycle any component can change
// observable state. It only reads: Step put every core and controller
// whose verdict holds to sleep. An awake one acts on the very next
// Step, so the answer is s.now, nothing to skip; otherwise it is the
// earliest sleeping core's horizon or the fabric's. ^uint64(0) means
// every component is idle until an external bound (watchdog,
// MaxCycles).
func (s *System) nextEvent() uint64 {
	if s.coreAwake|s.nodeAwake != 0 {
		return s.now
	}
	return min(slices.Min(s.wakeAt), s.Bus.NextEvent(s.now))
}

// skipTo jumps the machine clock to target. Callers must have
// established via nextEvent that no component changes observable state
// before target, so every core and controller is asleep: each replays
// the skipped cycles with the rest of its sleep when it wakes.
func (s *System) skipTo(target uint64) {
	s.skipped += target - s.now
	s.now, s.nodeClock = target, target
}

// wakeAll makes every sleeping core and controller replay what it owes
// through the last cycle run, so counters, histograms and the
// components' clocks read between cycles are exact.
func (s *System) wakeAll() {
	for i, c := range s.Cores {
		c.Wake()
		s.Nodes[i].Wake()
	}
}

// RunErr executes until the machine drains or MaxCycles elapse, then
// returns the result. Reaching MaxCycles, a deadlock-watchdog trip, a
// checker or audit violation, or a workload-validation failure returns
// a *RunError (also stored in Result.Err) alongside whatever partial
// result the run accumulated; the machine dump is captured into
// RunError.PostMortem, never interleaved on stderr — essential when
// many runs execute concurrently under a Runner.
func (s *System) RunErr(w Workload) (Result, error) {
	return s.run(w, nil)
}

// run is the one run loop. When ph is non-nil the merge epilogue
// (counter snapshots + validation) is wall-clocked into it for the
// telemetry layer; with ph nil the host clock is never read. Phase
// timing is a pure observation — nothing simulated reads the host
// clock.
func (s *System) run(w Workload, ph *telemetry.JobPhases) (Result, error) {
	// Progress is a store performing or a CPU halting: a CPU spinning
	// on a lock or a flag retires loads and branches forever, so
	// retirement alone cannot tell a livelock from work.
	performed := s.Counters.Counter("store/performed")
	lastSeen := uint64(0)
	lastProgress := uint64(0)
	watchdog := s.cfg.NoProgressCycles
	var runErr *RunError
	for s.now < s.cfg.MaxCycles {
		if p := performed.Get() + uint64(s.haltedCores); p != lastSeen {
			lastSeen = p
			lastProgress = s.now
		} else if s.now-lastProgress > watchdog {
			reason := fmt.Sprintf("no store performed and no CPU halted for %d cycles at cycle %d (workload %q, tech %s) — deadlock",
				watchdog, s.now, w.Name, s.cfg.Tech)
			runErr = s.failWithPostMortem(w, reason)
			break
		}
		if s.check != nil {
			if err := s.check.Tick(s.now); err != nil {
				runErr = s.failWithPostMortem(w, err.Error())
				break
			}
		}
		if s.auditErr != nil {
			runErr = s.failWithPostMortem(w, s.auditErr.Error())
			break
		}
		if err := s.Bus.Err(); err != nil {
			// A latched fabric protocol violation (e.g. two owners in a
			// combined response): the machine state is untrustworthy, so
			// fail the run with a post-mortem instead of simulating on.
			runErr = s.failWithPostMortem(w, err.Error())
			break
		}
		if s.drained() {
			break
		}
		if !s.cfg.NoFastForward {
			if nxt := s.nextEvent(); nxt > s.now {
				// All components are quiescent until nxt. Skip to it,
				// capped so the watchdog trips at the exact cycle the
				// naive loop would (first trip at lastProgress +
				// watchdog + 1) and the MaxCycles bound is respected.
				target := nxt
				if limit := lastProgress + watchdog + 1; limit < target {
					target = limit
				}
				if s.cfg.MaxCycles < target {
					target = s.cfg.MaxCycles
				}
				if target > s.now {
					s.skipTo(target)
					continue
				}
			}
		}
		s.Step()
	}
	if runErr == nil && !s.drained() {
		runErr = s.failWithPostMortem(w, fmt.Sprintf("MaxCycles %d reached with %d of %d CPUs halted — did not finish",
			s.cfg.MaxCycles, s.haltedCores, len(s.Cores)))
	} else if runErr == nil && s.check != nil {
		if err := s.check.Quiesce(); err != nil {
			runErr = s.failWithPostMortem(w, err.Error())
		}
	}
	var mergeStart time.Time
	if ph != nil {
		mergeStart = time.Now()
	}
	s.wakeAll()
	res := Result{
		Workload:      w.Name,
		Tech:          s.cfg.Tech,
		Cycles:        s.now,
		Counters:      s.Counters.Snapshot(),
		Hists:         s.Counters.HistSnapshots(),
		SkippedCycles: s.skipped,
	}
	for _, c := range s.Cores {
		res.PerCPU = append(res.PerCPU, c.Retired())
		res.Retired += c.Retired()
	}
	if runErr == nil && w.Validate != nil {
		if err := w.Validate(s.Mem, s.ReadWordCoherent); err != nil {
			runErr = &RunError{
				Workload: w.Name,
				Tech:     s.cfg.Tech,
				Reason: fmt.Sprintf("workload %q validation failed under %s: %v",
					w.Name, s.cfg.Tech, err),
			}
		}
	}
	if ph != nil {
		ph.Merge = time.Since(mergeStart).Nanoseconds()
	}
	if runErr != nil {
		res.Err = runErr
		return res, runErr
	}
	res.Finished = true
	return res, nil
}

// failWithPostMortem builds the RunError for a failed run, the machine
// dump captured into it.
func (s *System) failWithPostMortem(w Workload, reason string) *RunError {
	return &RunError{Workload: w.Name, Tech: s.cfg.Tech, Reason: reason, PostMortem: s.postMortem(reason)}
}

// drained is a run's one success state: all CPUs halted, fabric and store buffers empty.
func (s *System) drained() bool {
	if s.haltedCores != len(s.Cores) || !s.Bus.Idle() {
		return false
	}
	for _, n := range s.Nodes {
		if !n.StoreBufEmpty() {
			return false
		}
	}
	return true
}

// ReadWordCoherent returns the current coherent value of a word: the
// dirty owner's copy if one exists, else memory. Used by workload
// validators after a run and by examples to inspect results.
func (s *System) ReadWordCoherent(addr uint64) uint64 {
	for _, n := range s.Nodes {
		st := n.LineState(addr)
		if st == core.StateM || st == core.StateO {
			if d, ok := n.LineData(addr); ok {
				return d.Word(mem.WordIndex(addr))
			}
		}
	}
	return s.Mem.ReadWord(addr)
}

// RunOne is RunOneErr for examples and tests, which have nothing to
// do with a failed cell: it panics with the post-mortem and the error.
func RunOne(cfg Config, w Workload) Result {
	r := RunOneErr(cfg, w)
	if re, ok := r.Err.(*RunError); ok {
		panic(re.PostMortem + re.Error())
	}
	return r
}
