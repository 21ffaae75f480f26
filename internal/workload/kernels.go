// Package workload provides the synthetic, execution-driven programs
// standing in for the paper's SPLASH-2 and commercial workloads
// (Table 2), built from reusable behaviour kernels: LL/SC spin locks,
// kernel-style locks behind isync, atomic read-modify-writes (the SLE
// idiom false positive), sense-reversing barriers, stencils, task
// queues, and migratory-object updates.
//
// Register convention: R1–R7 are kernel scratch and may be clobbered
// by any Emit* helper; workloads keep their own state in R8 and up.
package workload

import "tssim/internal/isa"

// Scratch registers the kernels clobber.
const (
	rT0 = isa.R1
	rT1 = isa.R2
	rT2 = isa.R3
	rT3 = isa.R4
	rT4 = isa.R5
)

// EmitAcquire emits a test-and-test-and-set LL/SC lock acquire of the
// lock word at (rAddr). The pre-acquire value (0 = free) and the
// release's store of 0 form the canonical temporally silent pair. An
// isync follows the acquire, as in AIX kernel and library locking
// (§4.2.2); unsafeISync marks it as touching context-sensitive state,
// which forces SLE to abort. backoff (cycles, typically skewed per
// CPU) is inserted after a failed store-conditional — without it, a
// deterministic interconnect can put symmetric contenders into an
// LL/SC reservation livelock, which real systems avoid with exactly
// this kind of software backoff.
func EmitAcquire(b *isa.Builder, rAddr uint8, unsafeISync bool, backoff int) {
	// Test-and-test-and-set: poll with a plain load (cache-hit spin
	// on a held lock — the reservation is only opened once the lock
	// looks free, keeping the LL->SC window narrow under contention).
	spin := emitSpin(b, rT0, rAddr, isa.R0) // held: park on the shared copy
	b.LL(rT0, rAddr, 0)
	b.Bne(rT0, isa.R0, spin) // taken between test and LL
	b.Li(rT1, 1)
	b.SC(rT1, rAddr, 0, rT2)
	done := b.NewLabel()
	b.Bne(rT2, isa.R0, done)
	if backoff > 0 {
		b.Delay(rT1, backoff)
	}
	b.Jmp(spin) // lost the race: back off, retry
	b.Mark(done)
	b.ISync(unsafeISync)
}

// emitSpin emits the one wait every kernel uses: load the word at
// (rAddr) into rTmp until it equals rWant, spinning on the cached copy.
// It returns the label of the load, for a caller that comes back to it.
func emitSpin(b *isa.Builder, rTmp, rAddr, rWant uint8) isa.Label {
	spin := b.Here()
	b.Ld(rTmp, rAddr, 0)
	b.Bne(rTmp, rWant, spin)
	return spin
}

// EmitRelease emits the lock release: the temporally silent store
// restoring the pre-acquire value.
func EmitRelease(b *isa.Builder, rAddr uint8) {
	b.St(isa.R0, rAddr, 0)
}

// EmitAtomicAdd emits an LL/SC fetch-and-add of delta to the word at
// (rAddr), leaving the *old* value in rOld. This is the elision-idiom
// false positive of §4.1: it begins with the same LL/SC pattern as a
// lock acquire but no reverting store ever follows.
func EmitAtomicAdd(b *isa.Builder, rAddr uint8, delta int64, rOld uint8, backoff int) {
	retry := b.Here()
	b.LL(rT0, rAddr, 0)
	b.Addi(rT1, rT0, delta)
	b.SC(rT1, rAddr, 0, rT2)
	done := b.NewLabel()
	b.Bne(rT2, isa.R0, done)
	if backoff > 0 {
		b.Delay(rT1, backoff)
	}
	b.Jmp(retry)
	b.Mark(done)
	if rOld != isa.R0 {
		b.Mv(rOld, rT0)
	}
}

// EmitBarrier emits a centralized sense-reversing barrier for n
// participants. rCount and rSense hold the addresses of the barrier's
// count and sense words; rLocalSense holds this CPU's local sense and
// is toggled by the kernel (initialize it to 0). rOne must hold the
// constant 1.
func EmitBarrier(b *isa.Builder, rCount, rSense, rLocalSense, rOne uint8, n int64) {
	b.Xor(rLocalSense, rLocalSense, rOne) // flip local sense
	EmitAtomicAdd(b, rCount, 1, rT3, 120)
	b.Addi(rT3, rT3, 1) // rT3 = my arrival number
	b.Li(rT4, n)
	notLast := b.NewLabel()
	done := b.NewLabel()
	b.Bne(rT3, rT4, notLast)
	// Last arriver: reset the count, then flip the global sense to
	// release everyone (order matters: spinners leave only on the
	// sense flip, at which point the count is already reset).
	b.St(isa.R0, rCount, 0)
	b.St(rLocalSense, rSense, 0)
	b.Jmp(done)
	b.Mark(notLast)
	emitSpin(b, rT4, rSense, rLocalSense)
	b.Mark(done)
}

// EmitCriticalAdd emits lock-protected "counter += delta" on the word
// at (rData): acquire, load-add-store, release. The workhorse critical
// section of the lock-based workloads.
func EmitCriticalAdd(b *isa.Builder, rLock, rData uint8, delta int64, unsafeISync bool) {
	EmitAcquire(b, rLock, unsafeISync, 150)
	emitAddWord(b, rT3, rData, 0, delta)
	EmitRelease(b, rLock)
}

// emitAddWord emits a plain, non-atomic "word += delta" on the word at
// off(rAddr), through rTmp: callers hold the word's lock or own it.
func emitAddWord(b *isa.Builder, rTmp, rAddr uint8, off, delta int64) {
	b.Ld(rTmp, rAddr, off)
	b.Addi(rTmp, rTmp, delta)
	b.St(rTmp, rAddr, off)
}

// EmitTouchRange emits a read sweep of count words starting at the
// address in rBase with the given byte stride, accumulating into rSum
// (cache-pressure generator). Clobbers scratch; rPtr is used as the
// moving pointer and must differ from rBase.
func EmitTouchRange(b *isa.Builder, rBase, rPtr, rSum uint8, count, stride int64) {
	b.Mv(rPtr, rBase)
	b.Li(rT0, count)
	loop := b.Here()
	b.Ld(rT1, rPtr, 0)
	b.Add(rSum, rSum, rT1)
	b.Addi(rPtr, rPtr, stride)
	b.Addi(rT0, rT0, -1)
	b.Bne(rT0, isa.R0, loop)
}

// EmitWriteRange emits a write sweep storing rVal into count words
// from the address in rBase with the given byte stride.
func EmitWriteRange(b *isa.Builder, rBase, rPtr, rVal uint8, count, stride int64) {
	b.Mv(rPtr, rBase)
	b.Li(rT0, count)
	loop := b.Here()
	b.St(rVal, rPtr, 0)
	b.Addi(rPtr, rPtr, stride)
	b.Addi(rT0, rT0, -1)
	b.Bne(rT0, isa.R0, loop)
}

// EmitFlagRevert emits the "biased-lock header" pattern: store 1 then
// store 0 to the word at (rAddr), with some work in between — a
// temporally silent pair on (typically private) data. This is what
// makes plain MESTI drown specjbb in useless validates.
func EmitFlagRevert(b *isa.Builder, rAddr uint8, workLat int) {
	b.Li(rT0, 1)
	b.St(rT0, rAddr, 0)
	if workLat > 0 {
		b.Work(workLat)
	}
	b.St(isa.R0, rAddr, 0)
}

// EmitRandStep advances the per-workload PRNG register rRnd (seeded by
// the caller) one splitmix64 step with a salt.
func EmitRandStep(b *isa.Builder, rRnd uint8, salt int64) {
	b.Mix(rRnd, rRnd, salt)
}

// EmitRandIndexMasked computes a random table index from the PRNG
// register: rIdx = ((rRnd >> 33) & (pow2Size-1)) << strideShift.
// Clobbers rT0.
func EmitRandIndexMasked(b *isa.Builder, rRnd, rIdx uint8, pow2Size, strideShift int64) {
	b.Shri(rIdx, rRnd, 33)
	b.Li(rT0, pow2Size-1)
	b.And(rIdx, rIdx, rT0)
	if strideShift > 0 {
		b.Shli(rIdx, rIdx, strideShift)
	}
}

// EmitVariableDelay emits think time of base cycles plus a
// PRNG-derived variable part (0..chunks-1 loops of chunkCycles each,
// chunks a power of two). Constant task lengths put deterministic CPUs
// into lockstep convoys that collide at every lock; real tasks vary.
// Clobbers rT0 and rT4; steps rRnd.
func EmitVariableDelay(b *isa.Builder, rRnd uint8, base, chunks, chunkCycles int) {
	if base > 0 {
		b.Delay(rT4, base)
	}
	if chunks > 1 {
		EmitRandStep(b, rRnd, 101)
		EmitRandIndexMasked(b, rRnd, rT4, int64(chunks), 0)
		loop := b.Here()
		done := b.NewLabel()
		b.Beq(rT4, isa.R0, done)
		b.Delay(rT0, chunkCycles)
		b.Addi(rT4, rT4, -1)
		b.Jmp(loop)
		b.Mark(done)
	}
}
