package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// pinWorker locks the calling goroutine to its OS thread for the rest of
// its life, so the thread CPU clock read around a spin measures that spin.
func pinWorker() { runtime.LockOSThread() }

// waitUntil spins until t and returns the CPU time the spin used, which
// the capacity metric leaves out. Workers spin instead of sleeping: on a
// shared virtual machine an idle vCPU took milliseconds to be scheduled
// again (generator lateness p99 of 5–10 ms with nanosleep and 1 ns timer
// slack, tens of microseconds spinning), which set every latency figure.
func waitUntil(t time.Time) time.Duration {
	c0 := threadCPU()
	for time.Now().Before(t) {
	}
	return threadCPU() - c0
}

// threadCPU returns the CPU time the calling thread has used.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0) // cannot fail for the calling thread's own clock
	return time.Duration(ts.Nano())
}

// clockThreadCPUTime is clock_gettime(2)'s CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// processCPU returns user+system CPU time consumed by the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
