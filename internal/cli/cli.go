// Package cli is the front door cmd/tssim and cmd/experiments share.
//
// What: the twelve flags both commands take, declared once (Register);
// their validation, the profilers and the telemetry observers they
// switch on (Start); and the machine they describe (Config).
//
// Why: two mains that each declared, checked and wired these by hand
// drifted — -check meant one checker in one of them and two in the
// other — and every new rule was added, and tested, twice.
//
// Contract: everything Start refuses is a usage error — the caller
// prints the one-line message and exits with status 2 — and is refused
// before any file is created or port bound. The only inputs are the
// two defaults the commands differ in, -scale and -seeds. Nothing here
// reaches a simulated statistic: -check, -no-fastforward, profiling and
// telemetry all leave every table byte-identical.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"tssim/internal/bus"
	"tssim/internal/sim"
	"tssim/internal/telemetry"
)

// maxCPUs is where the workload generators' address layouts and the
// directory's 64-bit sharer vector both end.
const maxCPUs = 64

// Flags holds the parsed shared flags. Callers read the three sweep
// sizes and, after Start, the collector; the rest reaches them through
// Config.
type Flags struct {
	Scale int // workload scale factor
	Seeds int // jittered runs per configuration
	Jobs  int // concurrent simulations (0 = GOMAXPROCS)

	// Telemetry is the collector Start built, nil when no telemetry
	// flag was given (a Runner then reads no clock per job).
	Telemetry *telemetry.Collector

	fs           *flag.FlagSet // where Register declared the flags
	cpus         int
	check, noFF  bool
	interconnect string
	cpuProfile   string
	memProfile   string
	progress     time.Duration
	statusAddr   string
	runnerStats  string
}

// Register declares the shared flags on fs, -scale and -seeds with the
// given defaults, and returns where they parse to.
func Register(fs *flag.FlagSet, scale, seeds int) *Flags {
	f := &Flags{fs: fs}
	fs.IntVar(&f.cpus, "cpus", 4, fmt.Sprintf("number of CPUs (1..%d)", maxCPUs))
	fs.IntVar(&f.Scale, "scale", scale, "workload scale factor")
	fs.IntVar(&f.Seeds, "seeds", seeds, "runs per configuration with latency jitter (95% CI when > 1)")
	fs.IntVar(&f.Jobs, "j", 0, "concurrent simulations (0 = GOMAXPROCS)")
	fs.BoolVar(&f.check, "check", false, "attach the coherence invariant checker and the in-order commit checker to every run")
	fs.BoolVar(&f.noFF, "no-fastforward", false, "disable next-event fast-forward: tick every cycle and audit every idle verdict (bit-identical; the oracle twin)")
	fs.StringVar(&f.interconnect, "interconnect", "", "coherence fabric: "+strings.Join(bus.Kinds(), "|")+" (default: atomic snoop bus)")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write an allocation profile to this file at exit")
	fs.DurationVar(&f.progress, "progress", 0, "emit periodic progress heartbeats to stderr at this interval (e.g. 1s; 0 = off)")
	fs.StringVar(&f.statusAddr, "status-addr", "", "serve GET /status, expvar and pprof on this address while running (e.g. :8080 or 127.0.0.1:0)")
	fs.StringVar(&f.runnerStats, "runnerstats", "", "write a tssim-runnerstats/v2 JSON harness report to this file at exit")
	return f
}

// validate rejects what the commands would otherwise run as something
// else. Package flag stops reading at the first positional argument,
// so a forgotten -tech in `-workload specjbb mesti -cpus 16` would run
// the defaults; the library treats a non-positive scale or seed count
// as "unset" and answers with scale 1, one seed.
func (f *Flags) validate(args []string) error {
	switch {
	case len(args) > 0:
		return fmt.Errorf("unexpected argument %q (flags after it were not read)", args[0])
	case !bus.ValidKind(f.interconnect):
		return fmt.Errorf("unknown -interconnect %q (use %s)", f.interconnect, strings.Join(bus.Kinds(), "|"))
	case f.cpus < 1 || f.cpus > maxCPUs:
		return fmt.Errorf("-cpus %d: must be between 1 and %d", f.cpus, maxCPUs)
	case f.Scale < 1:
		return fmt.Errorf("-scale %d: must be at least 1", f.Scale)
	case f.Seeds < 1:
		return fmt.Errorf("-seeds %d: must be at least 1", f.Seeds)
	case f.Jobs < 0:
		return fmt.Errorf("-j %d: must be 0 (GOMAXPROCS) or more", f.Jobs)
	}
	return nil
}

// Start validates what the flag set parsed, then starts what it asks
// for: the profilers, and — if any of -progress, -status-addr or
// -runnerstats is set — a collector (f.Telemetry) with its heartbeat
// emitter and HTTP status server, whose bound address is announced on
// logw as "status: listening on ADDR" so scripts can discover a :0
// port. Every error is a usage error. The returned stop halts the
// observers and writes the runner-stats report and the profiles,
// reporting a failed write on logw: it must not mask the run's own
// exit status. Call it once, on every exit path that should leave
// those files behind.
func (f *Flags) Start(logw io.Writer) (stop func(), err error) {
	if err := f.validate(f.fs.Args()); err != nil {
		return nil, err
	}
	stopProfiles, err := f.startProfiles(logw)
	if err != nil {
		return nil, err
	}
	stopTelemetry, err := f.startTelemetry(logw)
	if err != nil {
		stopProfiles()
		return nil, err
	}
	return func() { stopTelemetry(); stopProfiles() }, nil
}

// Config returns the machine the flags describe: the experiment machine
// (sim.ExperimentConfig) at -cpus on -interconnect, with both checkers
// under -check and the audited every-cycle loop under -no-fastforward.
// The technique combination is the caller's to set.
func (f *Flags) Config() sim.Config {
	cfg := sim.ExperimentConfig()
	cfg.CPUs = f.cpus
	cfg.Interconnect = f.interconnect
	cfg.Check, cfg.CheckCommits = f.check, f.check
	cfg.NoFastForward = f.noFF
	return cfg
}

// startProfiles begins the CPU profile, which covers the whole process.
// stop writes the heap profile after a GC, so live-heap numbers are
// settled.
func (f *Flags) startProfiles(logw io.Writer) (stop func(), err error) {
	var cpuFile *os.File
	if f.cpuProfile != "" {
		if cpuFile, err = os.Create(f.cpuProfile); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if f.memProfile == "" {
			return
		}
		runtime.GC()
		file, err := os.Create(f.memProfile)
		if err == nil {
			err = pprof.Lookup("allocs").WriteTo(file, 0)
			if cerr := file.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(logw, "-memprofile: %v\n", err)
		}
	}, nil
}

// startTelemetry builds the collector and the observers the flags ask
// for; with none of the three set there is no collector at all.
func (f *Flags) startTelemetry(logw io.Writer) (stop func(), err error) {
	if f.progress <= 0 && f.statusAddr == "" && f.runnerStats == "" {
		return func() {}, nil
	}
	c := telemetry.New()
	var server *telemetry.StatusServer
	if f.statusAddr != "" {
		if server, err = telemetry.ServeStatus(f.statusAddr, c); err != nil {
			return nil, fmt.Errorf("-status-addr: %w", err)
		}
		fmt.Fprintf(logw, "status: listening on %s\n", server.Addr())
	}
	stopProgress := func() {}
	if f.progress > 0 {
		stopProgress = telemetry.StartProgress(logw, c, f.progress)
	}
	f.Telemetry = c
	return func() {
		stopProgress()
		if server != nil {
			server.Close()
		}
		if f.runnerStats == "" {
			return
		}
		if err := telemetry.WriteJSONFile(f.runnerStats, c.Report()); err != nil {
			fmt.Fprintf(logw, "-runnerstats: %v\n", err)
			return
		}
		fmt.Fprintf(logw, "runnerstats -> %s\n", f.runnerStats)
	}, nil
}
