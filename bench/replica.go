package main

import (
	"fmt"
	"time"

	"tssim/internal/sim"
)

// A trace holds the spans and exact counts of one traced run: host
// nanoseconds and calls per layer boundary, timed from outside the
// program around each layer's public functions.
type trace struct {
	ns    [nSpans]int64
	calls [nSpans]int64
	loop  int64 // the whole run loop, spans and the rest

	ticked, scans, skips int64
}

// wall is the traced run's total: everything a RunOneErr would do,
// plus generating the programs.
func (t *trace) wall() int64 {
	return t.ns[spanBuild] + t.ns[spanConstruct] + t.loop + t.ns[spanSnapshot]
}

func (t *trace) add(o *trace) {
	for i := range t.ns {
		t.ns[i] += o.ns[i]
		t.calls[i] += o.calls[i]
	}
	t.loop += o.loop
	t.ticked += o.ticked
	t.scans += o.scans
	t.skips += o.skips
}

// replica executes one cell through a copy of the sim.System run loop
// (runErr with no checker, no tracer and fast-forward on) built only
// from the layers' public functions, reading the clock once per layer
// group per cycle. It must end at the same cycle, retired counts and
// counters as sim.RunOneErr; the caller checks the fingerprint.
//
// What the spans contain, because it cannot be split from outside:
// bus.tick includes the snoop, grant and completion callbacks the
// fabric makes into core and cpu; cpu.tick includes the core's Load and
// StoreCommit calls into core and cache.
func replica(c cell) (fp fingerprint, tr trace, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: replica panic: %v", c.key, r)
		}
	}()
	base := time.Now()
	clock := func() int64 { return int64(time.Since(base)) }

	t := clock()
	s := sim.New(c.job.Cfg, c.job.W)
	// The loop's O(1) termination check reads the aggregates the cores
	// maintain; point them at this loop's own.
	var retired uint64
	var halted int
	for _, core := range s.Cores {
		core.AttachMachine(&retired, &halted)
	}
	loopStart := clock()
	tr.ns[spanConstruct] = loopStart - t
	tr.calls[spanConstruct] = 1

	const (
		maxCycles = sim.DefaultMaxCycles
		watchdog  = sim.DefaultNoProgressCycles
	)
	var now, lastRetired, lastProgress uint64
	for now < maxCycles {
		if retired != lastRetired {
			lastRetired, lastProgress = retired, now
		} else if now-lastProgress > watchdog {
			return fp, tr, fmt.Errorf("%s: replica made no progress for %d cycles at cycle %d", c.key, uint64(watchdog), now)
		}
		if err := s.Bus.Err(); err != nil {
			return fp, tr, fmt.Errorf("%s: replica: %w", c.key, err)
		}
		if halted == len(s.Cores) && s.Bus.Idle() && storeBuffersEmpty(s) {
			break
		}

		t0 := clock()
		nxt := nextEvent(s, now)
		t1 := clock()
		tr.ns[spanNextEvent] += t1 - t0
		tr.scans++
		if nxt > now {
			target := nxt
			if limit := lastProgress + watchdog + 1; limit < target {
				target = limit
			}
			if maxCycles < target {
				target = maxCycles
			}
			if target > now {
				for _, core := range s.Cores {
					core.SkipCycles(now, target)
				}
				for _, n := range s.Nodes {
					n.SkipCycles(now, target)
				}
				now = target
				tr.ns[spanSkip] += clock() - t1
				tr.skips++
				continue
			}
		}

		s.Bus.Tick(now)
		t2 := clock()
		for _, n := range s.Nodes {
			n.Tick(now)
		}
		t3 := clock()
		for _, core := range s.Cores {
			core.Tick(now)
		}
		t4 := clock()
		tr.ns[spanBusTick] += t2 - t1
		tr.ns[spanCoreTick] += t3 - t2
		tr.ns[spanCPUTick] += t4 - t3
		tr.ticked++
		now++
	}
	t = clock()
	tr.loop = t - loopStart
	tr.calls[spanNextEvent] = tr.scans
	tr.calls[spanSkip] = tr.skips
	tr.calls[spanBusTick] = tr.ticked
	tr.calls[spanCoreTick] = tr.ticked * int64(len(s.Nodes))
	tr.calls[spanCPUTick] = tr.ticked * int64(len(s.Cores))

	counters := s.Counters.Snapshot()
	_ = s.Counters.HistSnapshots()
	perCPU := make([]uint64, len(s.Cores))
	for i, core := range s.Cores {
		if !core.Halted() {
			err = fmt.Errorf("%s: replica did not finish", c.key)
		}
		perCPU[i] = core.Retired()
	}
	if v := c.job.W.Validate; err == nil && v != nil {
		if verr := v(s.Mem, s.ReadWordCoherent); verr != nil {
			err = fmt.Errorf("%s: replica: validation: %w", c.key, verr)
		}
	}
	tr.ns[spanSnapshot] = clock() - t
	tr.calls[spanSnapshot] = 1
	return fingerprintOf(now, perCPU, counters), tr, err
}

// nextEvent is System.nextEvent: cores, then nodes, then the fabric,
// leaving on the first component that acts on the next cycle.
func nextEvent(s *sim.System, now uint64) uint64 {
	next := ^uint64(0)
	for _, c := range s.Cores {
		ne := c.NextEvent(now)
		if ne <= now {
			return now
		}
		if ne < next {
			next = ne
		}
	}
	for _, n := range s.Nodes {
		ne := n.NextEvent(now)
		if ne <= now {
			return now
		}
		if ne < next {
			next = ne
		}
	}
	if ne := s.Bus.NextEvent(now); ne <= now {
		return now
	} else if ne < next {
		next = ne
	}
	return next
}

func storeBuffersEmpty(s *sim.System) bool {
	for _, n := range s.Nodes {
		if !n.StoreBufEmpty() {
			return false
		}
	}
	return true
}
