// Parallel run manager. The paper's evaluation is an embarrassingly
// parallel matrix — workloads × technique combos × seeds — and every
// sim.System owns its memory, bus, counters, and RNG, so independent
// runs share no mutable state. The Runner fans such runs out across a
// bounded worker pool while guaranteeing two properties the experiment
// harness depends on:
//
//   - Deterministic ordering: results[i] always corresponds to
//     jobs[i], regardless of completion order, so tables and samples
//     assemble identically at any parallelism (including -j 1).
//   - Failure isolation: a run that deadlocks, fails validation, or
//     panics outright surfaces as Result.Err on its own cell — with
//     the post-mortem captured in the error rather than interleaved
//     on stderr — instead of killing the whole sweep.
package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"tssim/internal/stats"
	"tssim/internal/telemetry"
)

// RunError describes one failed simulation run: MaxCycles, the deadlock
// watchdog, a checker or audit violation, a failed functional
// validation, or a recovered panic. It travels in Result.Err so a sweep
// can report which cell failed and continue.
type RunError struct {
	Workload string
	Tech     Techniques
	Reason   string

	// PostMortem holds the captured machine dump (MaxCycles, watchdog,
	// checker or audit violation) or the stack trace of a recovered
	// panic; empty for a workload-validation failure.
	PostMortem string
}

// Error returns the one-line form; the PostMortem dump is available on
// the struct for callers that want the full story.
func (e *RunError) Error() string {
	return fmt.Sprintf("sim: workload %q under %s: %s", e.Workload, e.Tech, e.Reason)
}

// Job is one independent (config, workload) run for a Runner.
type Job struct {
	Cfg Config
	W   Workload
}

// RunOneErr assembles and runs one job, converting every failure mode
// — deadlock watchdog, validation failure, and any panic escaping the
// simulator — into Result.Err instead of crashing the caller. It is
// the per-run unit the Runner executes.
func RunOneErr(cfg Config, w Workload) Result {
	return runOne(cfg, w, nil)
}

// runOne is RunOneErr with an optional wall-clock phase breakdown for
// the telemetry layer: when ph is non-nil, construction (New, including
// workload memory init) and the merge epilogue (see System.run) are
// timed. With ph nil no clock is read; the result is the same either
// way.
func runOne(cfg Config, w Workload, ph *telemetry.JobPhases) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res.Workload = w.Name
			res.Tech = cfg.Tech
			res.Err = &RunError{
				Workload:   w.Name,
				Tech:       cfg.Tech,
				Reason:     fmt.Sprintf("panic: %v", r),
				PostMortem: string(debug.Stack()),
			}
		}
	}()
	var t0 time.Time
	if ph != nil {
		t0 = time.Now()
	}
	s := New(cfg, w)
	if ph != nil {
		ph.Construct = time.Since(t0).Nanoseconds()
	}
	res, _ = s.run(w, ph)
	return res
}

// Runner fans independent runs out across a bounded worker pool.
// The zero value is not ready; use NewRunner.
type Runner struct {
	jobs int
	tel  *telemetry.Collector
}

// NewRunner returns a Runner sized to runtime.GOMAXPROCS(0) workers.
func NewRunner() *Runner {
	return &Runner{jobs: runtime.GOMAXPROCS(0)}
}

// Jobs bounds the worker pool to n concurrent runs (n <= 0 restores
// the GOMAXPROCS default) and returns the Runner for chaining.
func (r *Runner) Jobs(n int) *Runner {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	r.jobs = n
	return r
}

// Collect attaches a telemetry collector: every subsequent RunAll
// reports each job's queue wait, busy time, construct and merge phases
// and cycles to it. With a nil collector (the default) no clock is read
// per job; results are byte-identical either way. Returns the Runner
// for chaining.
func (r *Runner) Collect(c *telemetry.Collector) *Runner {
	r.tel = c
	return r
}

// RunAll executes every job and returns results in job order. Failed
// runs carry Result.Err; the rest of the sweep is unaffected. Jobs
// must be independent: in particular they must not share a Tracer,
// since each run's System writes to its config's tracer without
// locking (the experiment harness never sets one).
func (r *Runner) RunAll(jobs []Job) []Result {
	results := make([]Result, len(jobs))
	workers := r.jobs
	if workers > len(jobs) {
		workers = len(jobs)
	}
	tel := r.tel
	if tel != nil && len(jobs) > 0 {
		poolWidth := workers
		if poolWidth < 1 {
			poolWidth = 1
		}
		tel.SweepStart(poolWidth, len(jobs))
		defer tel.SweepEnd()
	}
	// runJob executes jobs[i]; with a collector it also times the
	// job's phases and reports them.
	runJob := func(i int) {
		if tel == nil {
			results[i] = RunOneErr(jobs[i].Cfg, jobs[i].W)
			return
		}
		tok := tel.JobStart()
		var ph telemetry.JobPhases
		results[i] = runOne(jobs[i].Cfg, jobs[i].W, &ph)
		tel.JobEnd(tok, results[i].Cycles, results[i].Err != nil, ph)
	}
	if workers <= 1 {
		for i := range jobs {
			runJob(i)
		}
		return results
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				runJob(i)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// sampleSeed derives run i's seed from the sweep cell's base seed with
// a splitmix64-style 64-bit mix. The historical derivation, base +
// i*7919, collided across sweep cells whose base seeds differ by a
// multiple of 7919 (cell A's run i reused cell B's run i±k jitter
// stream), silently correlating "independent" samples in Sample's
// confidence intervals. Mixing both inputs through the full avalanche
// makes any two (base, i) pairs produce unrelated seeds.
func sampleSeed(base int64, i int) int64 {
	x := uint64(base) + 0x9e3779b97f4a7c15*uint64(i+1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

// SampleJobs expands one (config, workload) pair into the n seeded
// jobs of the multi-run confidence-interval methodology: jitter is
// enabled (JitterMax 5 when unset) and run i gets sampleSeed(base, i).
// Serial and parallel execution use the same derivation, so samples
// are bit-identical at any parallelism.
func SampleJobs(cfg Config, w Workload, n int) []Job {
	if cfg.Bus.JitterMax <= 0 {
		cfg.Bus.JitterMax = 5
	}
	jobs := make([]Job, n)
	for i := range jobs {
		c := cfg
		c.Seed = sampleSeed(cfg.Seed, i)
		jobs[i] = Job{Cfg: c, W: w}
	}
	return jobs
}

// Sample runs the n seeded variants of one configuration (SampleJobs)
// through the pool and returns the cycle-count sample in seed order.
// The first failed run aborts the sample with its error.
func (r *Runner) Sample(cfg Config, w Workload, n int) (*stats.Sample, error) {
	var sample stats.Sample
	for _, res := range r.RunAll(SampleJobs(cfg, w, n)) {
		if res.Err != nil {
			return nil, res.Err
		}
		sample.Add(float64(res.Cycles))
	}
	return &sample, nil
}
