package workload

import (
	"fmt"

	"tssim/internal/isa"
	"tssim/internal/mem"
)

// Ocean models SPLASH-2 Ocean: a red/black-style grid relaxation with
// nearest-neighbour sharing across CPU row partitions, a centralized
// barrier per timestep, and — unlike the paper's radiosity/raytrace —
// noticeable "operating system" interference: kernel-routine atomic
// increments and kernel locks that share the elision idiom's static
// instructions, which is what makes SLE's idiom imprecise on this
// workload (§5.3.1).
//
// Memory map:
//
//	0x100000  grid: cpus*rowsPerCPU rows of 64 words (8 lines) each
//	0x008000  barrier count; 0x008040 barrier sense
//	0x009000  kernel statistics counter (atomic-inc target)
//	0x009040  kernel lock; 0x009080 kernel-protected word
func Ocean(p Params) Workload {
	p = p.withDefaults()
	const (
		gridBase   = 0x100000
		rowWords   = 64
		rowBytes   = rowWords * mem.WordSize
		barCount   = 0x8000
		barSense   = 0x8040
		statCtr    = 0x9000
		kLock      = 0x9040
		kData      = 0x9080
		rowsPerCPU = 4
	)
	timesteps := int64(4 * p.Scale)
	progs := make([]*isa.Program, p.CPUs)
	for cpu := 0; cpu < p.CPUs; cpu++ {
		b := isa.NewBuilder(fmt.Sprintf("ocean-cpu%d", cpu))
		firstRow := int64(cpu * rowsPerCPU)
		b.Li(rIter, timesteps)
		b.Li(rOne, 1)
		b.Li(rLS, 0)
		b.Li(rRnd, int64(cpu)*7919+13)
		step := b.Here()

		// Read the neighbour boundary rows (communication misses when
		// the neighbour rewrote them last timestep).
		if cpu > 0 {
			b.Li(rA0, gridBase+(firstRow-1)*rowBytes)
			EmitTouchRange(b, rA0, rPtr, rSum, rowWords, mem.WordSize)
		}
		if cpu < p.CPUs-1 {
			b.Li(rA0, gridBase+(firstRow+rowsPerCPU)*rowBytes)
			EmitTouchRange(b, rA0, rPtr, rSum, rowWords, mem.WordSize)
		}

		// Rewrite the owned rows: interior values change every
		// timestep (never silent); every row also carries 8 "flag"
		// words rewritten with a row constant — update-silent stores
		// after the first timestep, giving Ocean its modest US store
		// fraction (Table 2).
		for r := int64(0); r < rowsPerCPU; r++ {
			row := firstRow + r
			b.Li(rA0, gridBase+row*rowBytes)
			// Interior values change every *other* timestep: half the
			// sweeps are update-silent rewrites. Besides matching
			// Ocean's update-silent store population, the unchanged-
			// value sweeps still dirty the lines (no squashing in the
			// baseline), so the neighbour's re-reads are exactly the
			// false-sharing-like misses LVP rides through.
			b.Shri(rV1, rIter, 1)
			b.Mix(rV0, rV1, row+1)
			EmitWriteRange(b, rA0, rPtr, rV0, rowWords-8, mem.WordSize)
			b.Li(rV1, row*1000+7) // row constant: update silent on re-write
			EmitWriteRange(b, rPtr, rA1, rV1, 8, mem.WordSize)
		}
		EmitRandStep(b, rRnd, 17)

		// OS interference: a kernel atomic increment and then a
		// kernel lock round-trip, both through the *same* static
		// kernel routine (the shared SC is what makes the elision
		// idiom imprecise here).
		b.Li(rKAddr, statCtr)
		b.Li(rMode, 0)
		kernelNoise := b.Here()
		unsafeIS := p.UnsafeISyncEvery > 0 && cpu%p.UnsafeISyncEvery == 0
		EmitKernelOp(b, unsafeIS, 140+cpu*110)
		afterNoise := b.NewLabel()
		wasAtomic := b.NewLabel()
		b.Beq(rMode, isa.R0, wasAtomic)
		// Lock path: bump the protected word, release, move on.
		b.Li(rA1, kData)
		emitAddWord(b, rV0, rA1, 0, 1)
		EmitRelease(b, rKAddr)
		b.Jmp(afterNoise)
		// Atomic path: loop back once more, now in lock mode.
		b.Mark(wasAtomic)
		b.Li(rKAddr, kLock)
		b.Li(rMode, 1)
		b.Jmp(kernelNoise)
		b.Mark(afterNoise)

		// Barrier ends the timestep.
		EmitBarrier(b, mustLi(b, rA2, barCount), mustLi(b, rA3, barSense), rLS, rOne, int64(p.CPUs))
		b.Addi(rIter, rIter, -1)
		b.Bne(rIter, isa.R0, step)
		b.Halt()
		progs[cpu] = b.Build()
	}
	total := uint64(p.CPUs) * uint64(timesteps)
	return Workload{
		Name:     "ocean",
		Programs: progs,
		Validate: combineValidators(
			expectWord(statCtr, total, "ocean kernel stat counter"),
			expectWord(kData, total, "ocean kernel-protected word"),
			expectWord(kLock, 0, "ocean kernel lock free"),
			expectWord(barCount, 0, "ocean barrier count reset"),
		),
	}
}

// mustLi loads an immediate and returns the register, letting EmitX
// helpers take address registers inline.
func mustLi(b *isa.Builder, r uint8, v int64) uint8 {
	b.Li(r, v)
	return r
}

// Radiosity models SPLASH-2 radiosity: a central task queue behind a
// user-level spin lock, plus per-patch locks protecting energy
// accumulators. Locking is all user-supplied (the SPLASH-2 property
// that makes the elision idiom precise, §5.3.1), but the queue
// critical sections conflict on the shared index line, so SLE gets
// some of its benefit from patch locks and loses restarts on the
// queue.
//
// Memory map:
//
//	0xA000 queue index; 0xA040 queue lock
//	0xB000+i*64 patch locks (16); 0xB400+i*64 patch energy words
//	0x200000 read-only scene data
func Radiosity(p Params) Workload {
	p = p.withDefaults()
	const (
		qIndex    = 0xA000
		qLock     = 0xA040
		patchLock = 0xB000
		patchData = 0xB400
		patches   = 16
		scene     = 0x200000
		sceneLen  = 512 // words
		batch     = 4   // task ids grabbed per queue visit
	)
	tasks := int64(48 * p.Scale) // multiple of batch
	progs := make([]*isa.Program, p.CPUs)
	for cpu := 0; cpu < p.CPUs; cpu++ {
		b := isa.NewBuilder(fmt.Sprintf("radiosity-cpu%d", cpu))
		b.Li(rRnd, int64(cpu)*104729+5)
		b.Delay(rDel, 900*cpu) // staggered start
		loop := b.Here()

		// Dequeue a *batch* of task ids under the queue lock, as the
		// real code grabs work in chunks — queue serialization stays
		// a modest fraction of runtime. rV0 = first id of the batch.
		b.Li(rA0, qLock)
		EmitAcquire(b, rA0, false, 140+cpu*110)
		b.Li(rA1, qIndex)
		b.Ld(rV0, rA1, 0)
		b.Addi(rV1, rV0, batch)
		b.St(rV1, rA1, 0)
		EmitRelease(b, rA0)
		done := b.NewLabel()
		b.Li(rV1, tasks)
		b.Bge(rV0, rV1, done)
		b.Li(rInner, batch) // ids remaining in the batch
		taskLoop := b.Here()

		// Task body: read some scene data, spend (variable) compute
		// time, then deposit energy into the task's patch under its
		// lock. rV0 is the current task id throughout.
		b.Li(rA2, scene)
		EmitRandIndexMasked(b, rRnd, rA3, sceneLen/8, 3+3) // random 8-word window
		b.Add(rA2, rA2, rA3)
		EmitTouchRange(b, rA2, rPtr, rSum, 8, mem.WordSize)
		EmitRandStep(b, rRnd, 23)
		EmitVariableDelay(b, rRnd, 2600, 8, 350)

		// patch = task id % patches
		b.Li(rV1, patches-1)
		b.And(rV1, rV0, rV1)
		b.Shli(rV1, rV1, 6) // *64
		b.Li(rA0, patchLock)
		b.Add(rA0, rA0, rV1)
		b.Li(rA1, patchData)
		b.Add(rA1, rA1, rV1)
		EmitAcquire(b, rA0, false, 140+cpu*110)
		emitAddWord(b, rV1, rA1, 0, 1)
		EmitRelease(b, rA0)

		// Advance within the batch.
		b.Addi(rV0, rV0, 1)
		b.Addi(rInner, rInner, -1)
		b.Beq(rInner, isa.R0, loop)
		b.Jmp(taskLoop)

		b.Mark(done)
		b.Halt()
		progs[cpu] = b.Build()
	}
	return Workload{
		Name:     "radiosity",
		Programs: progs,
		Init: func(m *mem.Memory) {
			for i := uint64(0); i < sceneLen; i++ {
				m.WriteWord(scene+i*8, i*2654435761)
			}
		},
		Validate: func(m *mem.Memory, read func(uint64) uint64) error {
			var sum uint64
			for i := uint64(0); i < patches; i++ {
				sum += read(patchData + i*64)
			}
			if sum != uint64(tasks) {
				return fmt.Errorf("radiosity: patch energy %d, want %d", sum, tasks)
			}
			if idx := read(qIndex); idx < uint64(tasks) {
				return fmt.Errorf("radiosity: queue index %d < %d", idx, tasks)
			}
			return nil
		},
	}
}

// Raytrace models SPLASH-2 raytrace: per-CPU tiles of rays behind
// per-CPU locks with work stealing. Critical sections are tiny,
// user-level, and almost always non-conflicting (each queue has its
// own lock and line), the configuration where SLE shines (§5.3.1's
// 9% raytrace speedup beyond E-MESTI/LVP).
//
// Memory map:
//
//	0xC000+i*128 queue counters; +64 their locks
//	0xD000+i*64  per-CPU rendered-count words
//	0x300000     read-only scene
func Raytrace(p Params) Workload {
	p = p.withDefaults()
	const (
		qBase    = 0xC000
		doneBase = 0xD000
		scene    = 0x300000
		sceneLen = 512
	)
	// Tile queues are shared by pairs of CPUs: the locks see real
	// handoffs, but the critical sections (counter decrements on
	// *different* queues most of the time, render work on private
	// data) are non-conflicting — the concurrency SLE can unlock. A
	// queue index is masked with nq-1, so nq is the largest power of two
	// ≤ max(1, CPUs/2).
	nq := 1
	for 2*nq <= p.CPUs/2 {
		nq *= 2
	}
	perQueue := int64(24*p.Scale) * 2
	progs := make([]*isa.Program, p.CPUs)
	for cpu := 0; cpu < p.CPUs; cpu++ {
		b := isa.NewBuilder(fmt.Sprintf("raytrace-cpu%d", cpu))
		b.Li(rRnd, int64(cpu)*31337+3)
		b.Delay(rDel, 700*cpu) // staggered start
		b.Li(rV1, 0)           // rV1 = victim offset (0 = own queue)
		loop := b.Here()

		// target queue = (cpu/2 + victimOffset) % nq
		b.Li(rA2, int64(cpu/2))
		b.Add(rA2, rA2, rV1)
		b.Li(rA3, int64(nq-1))
		b.And(rA2, rA2, rA3)
		b.Shli(rA2, rA2, 7) // *128
		b.Li(rA0, qBase)
		b.Add(rA0, rA0, rA2) // queue counter addr
		b.Addi(rA1, rA0, 64) // queue lock addr

		// Try to take a ray from the queue.
		EmitAcquire(b, rA1, false, 140+cpu*110)
		b.Ld(rV0, rA0, 0)
		gotWork := b.NewLabel()
		b.Bne(rV0, isa.R0, gotWork)
		EmitRelease(b, rA1)
		// Empty: advance to the next victim; all empty -> done.
		b.Addi(rV1, rV1, 1)
		b.Li(rA3, int64(nq))
		allDone := b.NewLabel()
		b.Bge(rV1, rA3, allDone)
		b.Jmp(loop)

		b.Mark(gotWork)
		b.Addi(rV0, rV0, -1)
		b.St(rV0, rA0, 0)
		EmitRelease(b, rA1)
		b.Li(rV1, 0) // reset steal offset after success

		// Render: read scene, compute.
		b.Li(rA2, scene)
		EmitRandIndexMasked(b, rRnd, rA3, sceneLen/8, 6)
		b.Add(rA2, rA2, rA3)
		EmitTouchRange(b, rA2, rPtr, rSum, 8, mem.WordSize)
		EmitRandStep(b, rRnd, 41)
		EmitVariableDelay(b, rRnd, 1500, 8, 250)

		// Count the rendered ray (private line).
		b.Li(rA2, doneBase+int64(cpu)*64)
		emitAddWord(b, rV0, rA2, 0, 1)
		b.Jmp(loop)

		b.Mark(allDone)
		b.Halt()
		progs[cpu] = b.Build()
	}
	return Workload{
		Name:     "raytrace",
		Programs: progs,
		Init: func(m *mem.Memory) {
			for i := 0; i < nq; i++ {
				m.WriteWord(uint64(qBase+i*128), uint64(perQueue))
			}
			for i := uint64(0); i < sceneLen; i++ {
				m.WriteWord(scene+i*8, i^0xABCD)
			}
		},
		Validate: func(m *mem.Memory, read func(uint64) uint64) error {
			var rendered uint64
			for i := 0; i < p.CPUs; i++ {
				rendered += read(uint64(doneBase + i*64))
			}
			for i := 0; i < nq; i++ {
				if q := read(uint64(qBase + i*128)); q != 0 {
					return fmt.Errorf("raytrace: queue %d not drained (%d left)", i, q)
				}
			}
			want := uint64(perQueue) * uint64(nq)
			if rendered != want {
				return fmt.Errorf("raytrace: rendered %d rays, want %d", rendered, want)
			}
			return nil
		},
	}
}
