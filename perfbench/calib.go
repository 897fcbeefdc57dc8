// The calibration kernel: a fixed mix of random memory reads and
// writes over a 2 MiB table and integer arithmetic, timed in CPU time
// between operations. On a shared VM the same code runs 10–30% slower
// when neighbouring guests load the caches and memory bus; scaling
// operation costs by the kernel's measured speed cancels most of that.
// Without it, one of two interleaved sets of ten route-star7 runs
// spread by 31% on its p90 CPU time, over the 25% bound.

package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

const (
	// calibSlots sizes the kernel's table: 2 MiB of uint32.
	calibSlots = 1 << 19
	// calibRefMS is the kernel's CPU time on the reference machine, the
	// 2-core Xeon VM the bounds in BENCHMARK.json were set on. Scaled
	// costs read as that machine's CPU milliseconds.
	calibRefMS = 5.5
	// calibPeriod is how often the timed window pauses to run the
	// kernel, so the scale follows the machine through the run.
	calibPeriod = 250 * time.Millisecond
)

var calibTable = func() []uint32 {
	t := make([]uint32, calibSlots)
	for i := range t {
		t[i] = uint32((uint64(i)*2654435761 + 12345) % calibSlots)
	}
	return t
}()

// calibSink keeps the kernel's result live.
var calibSink uint32

// calibrate runs the kernel once and returns its CPU time in seconds.
// It counts the CPU time of the kernel's own OS thread only. Process
// CPU time would add the garbage collector's background workers, still
// collecting after the operations before, so a change that allocates
// more would slow the kernel, shrink the scale and hide part of its
// own cost.
func calibrate() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUSeconds()
	j := uint32(1)
	x := uint64(88172645463325252)
	for i := 0; i < 100_000; i++ {
		j = (calibTable[j] ^ uint32(x&1)) % calibSlots
		calibTable[(j*7)%calibSlots]++
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += j
	return threadCPUSeconds() - c0
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPUSeconds is the calling OS thread's CPU time so far, read
// from CLOCK_THREAD_CPUTIME_ID. getrusage(RUSAGE_THREAD) is no
// substitute: it reads the running thread's time as of the last
// scheduler tick, so a 3 ms kernel timed with it reads 0 or 4 ms.
func threadCPUSeconds() float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}
