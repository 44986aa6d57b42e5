package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The ledger measures CPU time, not wall time: on a shared host a thread
// can sit descheduled for a while, and that time belongs to no module.
// Cell spans and replays each read the CPU clock of the OS thread they run
// on, with the goroutine locked to that thread in between.

const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID

// threadCPU returns the calling thread's CPU time. The caller must hold
// runtime.LockOSThread for two readings to describe one goroutine.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// onThread runs fn with its goroutine locked to one OS thread, so fn may
// time itself with threadCPU.
func onThread(fn func()) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	fn()
}
