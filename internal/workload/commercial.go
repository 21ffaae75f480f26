package workload

import (
	"fmt"

	"tssim/internal/isa"
	"tssim/internal/mem"
)

// SpecJBB models the server-side Java workload: dominated by private
// object churn over a working set larger than the L2 (capacity
// misses), with frequent temporally silent flag reverts on *private*
// object headers (biased-lock style). Those private reverts are what
// drown plain MESTI in useless validate broadcasts — the 30% specjbb
// slowdown of §5.3.1 — while E-MESTI's predictor suppresses them.
// Synchronization is kernel-style: atomic increments and locks share
// the kernel routine's static SC.
//
// Memory map:
//
//	0x400000 + cpu*0x100000  private object heap (churn region)
//	0xE000                   global stats counter (kernel atomic)
//	0xE040 kernel lock; 0xE080 protected word
func SpecJBB(p Params) Workload {
	p = p.withDefaults()
	const (
		heapBase    = 0x400000
		heapStride  = 0x100000
		heapLines   = 2048 // window starts: footprint ~140KB/CPU, beyond the scaled L2
		windowLines = 128
		statCtr     = 0xE000
		kLock       = 0xE040
		kData       = 0xE080
		headersPer  = 24
	)
	iters := int64(6 * p.Scale)
	progs := make([]*isa.Program, p.CPUs)
	for cpu := 0; cpu < p.CPUs; cpu++ {
		b := isa.NewBuilder(fmt.Sprintf("specjbb-cpu%d", cpu))
		heap := int64(heapBase + cpu*heapStride)
		b.Li(rIter, iters)
		b.Li(rRnd, int64(cpu)*271828+9)
		loop := b.Here()

		// Churn a random window of the private heap: read then
		// rewrite (capacity misses against the small L2).
		EmitRandIndexMasked(b, rRnd, rA3, heapLines, 6)
		b.Li(rA0, heap)
		b.Add(rA0, rA0, rA3)
		EmitTouchRange(b, rA0, rPtr, rSum, windowLines, mem.LineSize)
		b.Mix(rV0, rRnd, 77)
		EmitWriteRange(b, rA0, rPtr, rV0, windowLines, mem.LineSize)
		EmitRandStep(b, rRnd, 31)

		// Object-header flag reverts on private lines: temporally
		// silent pairs nobody remote ever cares about.
		for h := 0; h < headersPer; h++ {
			b.Li(rA1, heap+int64(h)*8*mem.LineSize)
			EmitFlagRevert(b, rA1, 4)
		}

		// Kernel-style synchronization noise: two atomic increments,
		// then a kernel lock round-trip, all through one static SC.
		b.Li(rKAddr, statCtr)
		b.Li(rMode, 0)
		b.Li(rV1, 0) // pass counter
		knoise := b.Here()
		EmitKernelOp(b, p.UnsafeISyncEvery != 0 && cpu == 0, 140+cpu*110)
		afterNoise := b.NewLabel()
		lockPass := b.NewLabel()
		b.Bne(rMode, isa.R0, lockPass)
		// Atomic passes: do two, then switch to lock mode.
		b.Addi(rV1, rV1, 1)
		b.Li(rT3, 2)
		toLock := b.NewLabel()
		b.Bge(rV1, rT3, toLock)
		b.Jmp(knoise)
		b.Mark(toLock)
		b.Li(rKAddr, kLock)
		b.Li(rMode, 1)
		b.Jmp(knoise)
		b.Mark(lockPass)
		b.Li(rA1, kData)
		emitAddWord(b, rV0, rA1, 0, 1)
		EmitRelease(b, rKAddr)
		b.Mark(afterNoise)

		b.Addi(rIter, rIter, -1)
		b.Bne(rIter, isa.R0, loop)
		b.Halt()
		progs[cpu] = b.Build()
	}
	total := uint64(p.CPUs) * uint64(iters)
	return Workload{
		Name:     "specjbb",
		Programs: progs,
		Validate: combineValidators(
			expectWord(statCtr, 2*total, "specjbb stat counter"),
			expectWord(kData, total, "specjbb protected word"),
			expectWord(kLock, 0, "specjbb kernel lock free"),
		),
	}
}

// SpecWeb models web serving: a large read-mostly document cache
// shared by all CPUs, plus migratory per-session objects updated under
// kernel locks. Session lock/data handoffs give MESTI and LVP
// opportunity; kernel locking keeps SLE mostly out (§5.3.1: -3%).
//
// Memory map:
//
//	0xF000 + s*128  session lock (word 0) and data (words 1..7 of the
//	                same line!) — deliberate false sharing for LVP
//	0x500000        shared document cache (read-only)
//	0xE100          request counter (kernel atomic)
func SpecWeb(p Params) Workload {
	p = p.withDefaults()
	const (
		sessBase = 0xF000
		sessions = 32
		docBase  = 0x500000
		docLines = 512
		reqCtr   = 0xE100
	)
	iters := int64(24 * p.Scale)
	progs := make([]*isa.Program, p.CPUs)
	for cpu := 0; cpu < p.CPUs; cpu++ {
		b := isa.NewBuilder(fmt.Sprintf("specweb-cpu%d", cpu))
		b.Li(rIter, iters)
		b.Li(rRnd, int64(cpu)*69697+11)
		b.Delay(rDel, 500*cpu) // staggered start
		loop := b.Here()

		// Serve a document: read a random window of the shared cache.
		EmitRandIndexMasked(b, rRnd, rA3, 256, 6)
		b.Li(rA0, docBase)
		b.Add(rA0, rA0, rA3)
		EmitTouchRange(b, rA0, rPtr, rSum, 24, mem.LineSize)

		// Update the session object under its kernel lock. The lock
		// word and the data words share a cache line: remote readers
		// of other words see false sharing LVP can ride through.
		EmitRandIndexMasked(b, rRnd, rA3, sessions, 7)
		b.Li(rKAddr, sessBase)
		b.Add(rKAddr, rKAddr, rA3)
		b.Li(rMode, 1)
		unsafeIS := p.UnsafeISyncEvery > 0 && cpu%p.UnsafeISyncEvery == 0
		EmitKernelOp(b, unsafeIS, 140+cpu*110)
		emitAddWord(b, rV0, rKAddr, 8, 1) // hit count in word 1 of the lock line
		b.Mix(rV1, rRnd, 55)
		b.St(rV1, rKAddr, 16) // last-request tag
		EmitRelease(b, rKAddr)
		EmitRandStep(b, rRnd, 37)

		// Kernel request accounting, sampled as real kernels batch stats.
		emitSampledKernelInc(b, reqCtr, 140+cpu*110)

		EmitVariableDelay(b, rRnd, 600, 8, 120)
		b.Addi(rIter, rIter, -1)
		b.Bne(rIter, isa.R0, loop)
		b.Halt()
		progs[cpu] = b.Build()
	}
	total := uint64(p.CPUs) * uint64(iters)
	return Workload{
		Name:     "specweb",
		Programs: progs,
		Init: func(m *mem.Memory) {
			for i := uint64(0); i < docLines*8; i++ {
				m.WriteWord(docBase+i*8, i*11400714819323198485)
			}
		},
		Validate: func(m *mem.Memory, read func(uint64) uint64) error {
			if got := read(reqCtr); got != total/4 {
				return fmt.Errorf("specweb: request counter %d, want %d", got, total/4)
			}
			var hits uint64
			for s := uint64(0); s < sessions; s++ {
				if l := read(sessBase + s*128); l != 0 {
					return fmt.Errorf("specweb: session %d lock left held", s)
				}
				hits += read(sessBase + s*128 + 8)
			}
			if hits != total {
				return fmt.Errorf("specweb: session hits %d, want %d", hits, total)
			}
			return nil
		},
	}
}

// TPCB models the OLTP benchmark: few, hot branch locks, migratory
// balance records touched by every CPU, a teller array, and streaming
// history appends. It has the highest communication-miss rate of the
// suite and lock/record handoffs with reuse — where E-MESTI's
// validates pay off most (the paper's 6.5% tpc-b win). Locking is
// kernel-style (shared SC with the txn-counter atomics), so SLE
// struggles.
//
// Memory map:
//
//	0x12000 + b*128  branch lock; +64 branch balance (separate line)
//	0x13000 + t*64   teller balances (16)
//	0x600000 + cpu*0x40000  private history streams
//	0xE200           txn counter (kernel atomic)
func TPCB(p Params) Workload {
	p = p.withDefaults()
	const (
		branchBase = 0x12000
		branches   = 8
		tellerBase = 0x13000
		tellers    = 16
		histBase   = 0x600000
		histStride = 0x40000
		txnCtr     = 0xE200
	)
	iters := int64(40 * p.Scale)
	progs := make([]*isa.Program, p.CPUs)
	for cpu := 0; cpu < p.CPUs; cpu++ {
		b := isa.NewBuilder(fmt.Sprintf("tpcb-cpu%d", cpu))
		b.Li(rIter, iters)
		b.Li(rRnd, int64(cpu)*99991+21)
		b.Delay(rDel, 450*cpu)                     // staggered start
		b.Li(rPtr, int64(histBase+cpu*histStride)) // history append pointer
		loop := b.Here()

		// Pick a branch and read its metadata — words 1..2 of the
		// *lock line* (constant branch configuration co-located with
		// the latch word, as DB2 pages co-locate latch and header).
		// Under the baseline this read misses every time the lock
		// toggled since our last visit; under E-MESTI the release's
		// validate re-installed our copy and it hits.
		EmitRandIndexMasked(b, rRnd, rA3, branches, 7)
		b.Li(rKAddr, branchBase)
		b.Add(rKAddr, rKAddr, rA3)
		b.Ld(rV1, rKAddr, 8)  // branch id (constant)
		b.Ld(rT4, rKAddr, 16) // branch scale factor (constant)
		b.Add(rSum, rV1, rT4)
		b.Li(rMode, 1)
		unsafeIS := p.UnsafeISyncEvery > 0 && cpu%p.UnsafeISyncEvery == 1
		EmitKernelOp(b, unsafeIS, 140+cpu*110)

		// Update the branch balance (migratory line).
		b.Addi(rA1, rKAddr, 64)
		emitAddWord(b, rV0, rA1, 0, 1)

		// Update a random teller (shared array, more migration).
		EmitRandIndexMasked(b, rRnd, rA3, tellers, 6)
		b.Li(rA2, tellerBase)
		b.Add(rA2, rA2, rA3)
		emitAddWord(b, rV1, rA2, 0, 1)

		// Append to the private history stream.
		b.Mix(rV1, rRnd, 71)
		b.St(rV1, rPtr, 0)
		b.Addi(rPtr, rPtr, mem.LineSize) // one line per record: streaming

		EmitRelease(b, rKAddr)
		EmitRandStep(b, rRnd, 43)

		// Commit accounting via the shared kernel atomic, sampled.
		emitSampledKernelInc(b, txnCtr, 140+cpu*110)

		EmitVariableDelay(b, rRnd, 1200, 8, 200)
		b.Addi(rIter, rIter, -1)
		b.Bne(rIter, isa.R0, loop)
		b.Halt()
		progs[cpu] = b.Build()
	}
	total := uint64(p.CPUs) * uint64(iters)
	return Workload{
		Name:     "tpc-b",
		Programs: progs,
		Init: func(m *mem.Memory) {
			for i := uint64(0); i < branches; i++ {
				m.WriteWord(branchBase+i*128+8, i+1)
				m.WriteWord(branchBase+i*128+16, (i+1)*100)
			}
		},
		Validate: func(m *mem.Memory, read func(uint64) uint64) error {
			if got := read(txnCtr); got != total/4 {
				return fmt.Errorf("tpc-b: txn counter %d, want %d", got, total/4)
			}
			var bal, tel uint64
			for i := uint64(0); i < branches; i++ {
				if l := read(branchBase + i*128); l != 0 {
					return fmt.Errorf("tpc-b: branch lock %d left held", i)
				}
				bal += read(branchBase + i*128 + 64)
			}
			for i := uint64(0); i < tellers; i++ {
				tel += read(tellerBase + i*64)
			}
			if bal != total || tel != total {
				return fmt.Errorf("tpc-b: balances %d / tellers %d, want %d", bal, tel, total)
			}
			return nil
		},
	}
}

// TPCH models the decision-support query: scan-dominated reads of a
// large shared table with aggregation into per-CPU counters that are
// deliberately packed into shared lines — word i of each accumulator
// line belongs to CPU i. The scans produce capacity/cold misses no
// silence technique can help; the packed accumulators produce the
// false sharing that LVP (uniquely) rides through (§5.3.2: false
// sharing is 20–30% of commercial communication misses).
//
// Memory map:
//
//	0x700000         shared table (read-only, large)
//	0x14000 + k*64   accumulator lines: word cpu of line k
//	0x15000/0x15040  barrier count/sense
func TPCH(p Params) Workload {
	p = p.withDefaults()
	const (
		tableBase  = 0x700000
		tableLines = 3072 // 192KB: beyond the scaled L2
		accBase    = 0x14000
		accLines   = 8
		barCount   = 0x15000
		barSense   = 0x15040
		latchAddr  = 0x15080 // buffer-pool latch (kernel-style)
		latchStat  = 0x150C0 // word protected by the latch
	)
	phases := int64(3 * p.Scale)
	chunk := int64(tableLines) / int64(p.CPUs)
	rest := int64(tableLines) % int64(p.CPUs) // the last CPU scans these too
	// Each accumulator group holds one word per CPU. At ≤8 CPUs a group
	// is exactly one line (stride 64, the paper's layout); beyond that
	// the stride widens to the next power of two so CPU c's word never
	// spills into group k+1 and aliases another CPU's accumulator —
	// with the old flat k*64+cpu*8 layout, CPUs ≥ 9 did unsynchronized
	// read-modify-writes on each other's words and lost updates.
	accShift := uint(6)
	for (1 << (accShift - 3)) < p.CPUs {
		accShift++
	}
	// accLines groups at the widest stride must stay below the barrier
	// region at 0x15000.
	if accBase+accLines<<accShift > barCount {
		panic("tpch: accumulator region overlaps barrier")
	}
	progs := make([]*isa.Program, p.CPUs)
	for cpu := 0; cpu < p.CPUs; cpu++ {
		b := isa.NewBuilder(fmt.Sprintf("tpch-cpu%d", cpu))
		b.Li(rIter, phases)
		b.Li(rOne, 1)
		b.Li(rLS, 0)
		b.Li(rRnd, int64(cpu)*123457+2)
		phase := b.Here()

		// Scan this CPU's chunk of the table, one line at a time,
		// aggregating into the falsely shared accumulator lines.
		b.Li(rA0, int64(tableBase)+int64(cpu)*chunk*mem.LineSize)
		lines := chunk
		if cpu == p.CPUs-1 {
			lines += rest
		}
		b.Li(rInner, lines)
		scan := b.Here()
		// Every 256th line, take the buffer-pool latch through the
		// kernel routine and bump its statistic — the DB2-style
		// kernel locking that gives the silence techniques (and SLE's
		// idiom imprecision) something to chew on in a scan query.
		b.Li(rT3, 255)
		b.And(rT3, rInner, rT3)
		skipLatch := b.NewLabel()
		b.Bne(rT3, isa.R0, skipLatch)
		b.Li(rKAddr, latchAddr)
		b.Li(rMode, 1)
		EmitKernelOp(b, p.UnsafeISyncEvery > 0 && cpu%p.UnsafeISyncEvery == 2, 140+cpu*110)
		b.Li(rT4, latchStat)
		emitAddWord(b, rT0, rT4, 0, 1)
		EmitRelease(b, rKAddr)
		b.Mark(skipLatch)
		b.Ld(rV0, rA0, 0)
		b.Add(rSum, rSum, rV0)
		// acc group = scanned-line index % accLines; my word = cpu*8.
		b.Li(rT3, accLines-1)
		b.And(rT3, rInner, rT3)
		b.Shli(rT3, rT3, int64(accShift))
		b.Li(rA1, accBase+int64(cpu)*8)
		b.Add(rA1, rA1, rT3)
		b.Ld(rV1, rA1, 0)
		b.Add(rV1, rV1, rV0)
		b.St(rV1, rA1, 0)
		b.Addi(rA0, rA0, mem.LineSize)
		b.Addi(rInner, rInner, -1)
		b.Bne(rInner, isa.R0, scan)

		// Phase barrier (the only synchronization in the query).
		EmitBarrier(b, mustLi(b, rA2, barCount), mustLi(b, rA3, barSense), rLS, rOne, int64(p.CPUs))
		b.Addi(rIter, rIter, -1)
		b.Bne(rIter, isa.R0, phase)
		b.Halt()
		progs[cpu] = b.Build()
	}
	// Table values are deterministic, so the aggregate is checkable.
	tableVal := func(line uint64) uint64 { return line*2862933555777941757 + 3037000493 }
	return Workload{
		Name:     "tpc-h",
		Programs: progs,
		Init: func(m *mem.Memory) {
			for i := uint64(0); i < tableLines; i++ {
				m.WriteWord(tableBase+i*mem.LineSize, tableVal(i))
			}
		},
		Validate: func(m *mem.Memory, read func(uint64) uint64) error {
			var want uint64
			for i := uint64(0); i < tableLines; i++ {
				want += tableVal(i)
			}
			want *= uint64(phases)
			var got uint64
			for k := uint64(0); k < accLines; k++ {
				for c := 0; c < p.CPUs; c++ {
					got += read(accBase + k<<accShift + uint64(c)*8)
				}
			}
			if got != want {
				return fmt.Errorf("tpc-h: aggregate %d, want %d", got, want)
			}
			if bc := read(barCount); bc != 0 {
				return fmt.Errorf("tpc-h: barrier count %d, want 0", bc)
			}
			latchOps := uint64(phases) * uint64(int64(p.CPUs-1)*(chunk/256)+(chunk+rest)/256)
			if got := read(latchStat); got != latchOps {
				return fmt.Errorf("tpc-h: latch stat %d, want %d", got, latchOps)
			}
			if l := read(latchAddr); l != 0 {
				return fmt.Errorf("tpc-h: latch left held (%d)", l)
			}
			return nil
		},
	}
}
