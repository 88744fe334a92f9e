package main

import (
	"runtime"
	"sync"
	"time"
)

// The virtual machine this benchmark was built on shares its cores with
// other guests, whose load slows every core by up to half for a minute
// at a time, without any of it showing as stolen time: that reads as a
// regression no code caused. So before each repetition the parent times
// a fixed calibration kernel, in a child process of its own so that it
// shares no heap or runtime state with the simulator, and scales the
// repetition's time metrics by refCalibrationS / that time. They are
// then times on a host running at the reference speed. The kernel runs
// none of the simulator's code, so a change to the simulator moves the
// scaled metrics as much as the raw ones.

// refCalibrationS fixes the reference speed. At 0.55 s the scaled metrics
// read about what the raw ones read on the 2-core Intel Xeon host in its
// quietest periods.
const refCalibrationS = 0.55

// calibrationSteps is the kernel's total work, split evenly across
// GOMAXPROCS goroutines so that its CPU time does not depend on the
// number of cores.
const calibrationSteps = 12_000_000

// calibrate runs the kernel and returns the CPU time it took. Like the
// simulator's event loops it is memory-bound: random reads and writes
// over a buffer larger than a last-level cache, and a stream of small
// short-lived allocations for the garbage collector.
func calibrate() time.Duration {
	procs := runtime.GOMAXPROCS(0)
	bufs := make([][]uint64, procs)
	for i := range bufs {
		bufs[i] = make([]uint64, 1<<22) // 32 MiB
		for j := range bufs[i] {
			bufs[i][j] = uint64(j)
		}
	}
	sums := make([]uint64, procs)
	start := cpuTime()
	var wg sync.WaitGroup
	for i := range bufs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = kernel(bufs[i], uint64(i+1)*0x9e3779b97f4a7c15, calibrationSteps/procs)
		}(i)
	}
	wg.Wait()
	return cpuTime() - start
}

// kernel walks buf with an xorshift sequence from seed for n steps.
func kernel(buf []uint64, seed uint64, n int) uint64 {
	x, acc := seed|1, uint64(0)
	mask := uint64(len(buf) - 1)
	live := make([]*[6]uint64, 0, 1<<14)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		acc += buf[j]
		buf[(j*31)&mask] = acc
		if i%4 == 0 {
			if len(live) == cap(live) {
				live = live[:0]
			}
			p := new([6]uint64)
			p[0] = x
			live = append(live, p)
		}
	}
	return acc + uint64(len(live))
}
