package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"tssim/internal/sim"
)

// A budget says how much an untraced pass measures: reps executions of
// every cell, or, with reps 0, as many whole passes over the cells as
// fit in seconds and never fewer than minReps.
type budget struct {
	reps    int
	seconds float64
	minReps int
	// Set-up is repeated at least setupReps times and for at least
	// setupSeconds.
	setupReps    int
	setupSeconds float64
}

// measured is the outcome of the untraced pass over one workload.
type measured struct {
	m         metrics // the end-to-end metrics and harness.*
	attempted int
	failed    int
	firstErr  error

	cells []cell
	min   []float64    // per cell: minimum wall over its executions, seconds
	last  []sim.Result // per cell: its last execution
}

func (r *measured) note(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

func (r *measured) reportFailures(workload string) {
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d executions failed, first: %v\n", workload, r.failed, r.attempted, r.firstErr)
	}
}

// sink keeps constructed machines reachable until the next one
// replaces them, so the compiler cannot drop a construction.
var sink *sim.System

// measureSetup times everything before the first simulated cycle:
// generate the programs, build the job list, assemble every cell's
// machine. It returns the minimum over the repetitions, for the reason
// the cell estimator gives. A few milliseconds of allocation are at
// the mercy of the GC and the host: the minimum of 20 repetitions of a
// single-cell set-up moved by 40 % between runs, hence the time floor.
func measureSetup(sp spec, seed int64, b budget) (float64, []cell, error) {
	var cells []cell
	var ts []float64
	for start := time.Now(); len(ts) < b.setupReps || time.Since(start).Seconds() < b.setupSeconds; {
		t0 := time.Now()
		cs, err := sp.cells(seed)
		if err != nil {
			return 0, nil, err
		}
		for _, c := range cs {
			sink = sim.New(c.job.Cfg, c.job.W)
		}
		ts = append(ts, time.Since(t0).Seconds())
		cells = cs
	}
	sink = nil
	return minOf(ts), cells, nil
}

// measure runs the untraced pass: a closed loop, one cell at a time on
// this goroutine, each execution a whole sim.RunOneErr (construct,
// simulate, merge, validate, caches cold) timed from outside.
//
// A cell's cost is the minimum of its wall times and a workload's wall
// is the sum of its cells' costs: an execution is deterministic and
// single-threaded, so interference from the host can only slow it
// down, and on the reference host the minimum repeated to 1-6% where
// the median moved by 18-29% (README, "Estimator").
func measure(sp spec, seed int64, ck *checker, b budget) (*measured, error) {
	setup, cells, err := measureSetup(sp, seed, b)
	if err != nil {
		return nil, err
	}
	r := &measured{m: metrics{}, cells: cells, last: make([]sim.Result, len(cells))}
	walls := make([][]float64, len(cells))
	var passes []float64

	runtime.GC()
	var before, ms runtime.MemStats
	runtime.ReadMemStats(&before)
	heapPeak := before.HeapInuse
	start := time.Now()
	for rep := 0; ; rep++ {
		if b.reps > 0 {
			if rep == b.reps {
				break
			}
		} else if rep >= b.minReps && time.Since(start).Seconds() >= b.seconds {
			break
		}
		pass := 0.0
		for i, c := range cells {
			t0 := time.Now()
			res := sim.RunOneErr(c.job.Cfg, c.job.W)
			dt := time.Since(t0).Seconds()
			walls[i] = append(walls[i], dt)
			pass += dt
			r.note(ck.check(c, res))
			r.last[i] = res
		}
		passes = append(passes, pass)
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > heapPeak {
			heapPeak = ms.HeapInuse
		}
	}

	var wall, logSum float64
	var retired uint64
	r.min = make([]float64, len(cells))
	byGen := map[string]float64{}
	for i, c := range cells {
		r.min[i] = minOf(walls[i])
		wall += r.min[i]
		byGen[c.gen] += r.min[i]
		retired += r.last[i].Retired
		logSum += math.Log(ratio(r.min[i]*1e9, float64(r.last[i].Retired)))
	}
	reps := float64(len(passes))
	const mb = 1 << 20
	r.m.put("setup_s", setup)
	r.m.put("wall_s", wall)
	r.m.put("ns_per_instr", ratio(wall*1e9, float64(retired)))
	r.m.put("geomean_ns_per_instr", math.Exp(logSum/float64(len(cells))))
	r.m.put("alloc_mb", float64(ms.TotalAlloc-before.TotalAlloc)/reps/mb)
	r.m.put("failed_share", ratio(float64(r.failed), float64(r.attempted)))

	// Which generator moved, when geomean_ns_per_instr does. Detail of
	// the full document only: it exists on the sweep alone.
	if len(byGen) > 1 {
		for gen, s := range byGen {
			r.m["workload."+gen+".wall_s"] = metric{Value: s, Unit: "s"}
		}
	}

	r.m.put("harness.reps", reps)
	r.m.put("harness.rep_p10_ratio", quantile(passes, 0.10)/wall)
	r.m.put("harness.rep_p50_ratio", quantile(passes, 0.50)/wall)
	// p90 has the ten samples beyond it that a percentile needs only
	// from 100 repetitions up; below that, read it as a maximum.
	r.m.put("harness.rep_p90_ratio", quantile(passes, 0.90)/wall)
	r.m.put("harness.heap_peak_mb", float64(heapPeak)/mb)
	r.m.put("harness.gc_cycles", float64(ms.NumGC-before.NumGC))
	return r, nil
}
