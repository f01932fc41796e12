package main

import (
	"syscall"
	"time"
)

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package does
// not name.
const rusageThread = 1

// Host CPU time is what the simulation workloads time: unlike wall time it
// leaves out the time other processes and guests held the CPUs, so two
// runs on a shared host compare the work the program did.

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(err) // only an invalid who fails, and both callers pass constants
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU is the CPU time every thread of this process has used.
func processCPU() time.Duration { return rusageCPU(syscall.RUSAGE_SELF) }

// threadCPU is the CPU time the calling OS thread has used; callers lock
// the goroutine to its thread around the span they measure.
func threadCPU() time.Duration { return rusageCPU(rusageThread) }
