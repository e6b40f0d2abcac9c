package main

import (
	"sync"
	"time"
)

// A shared virtual machine can change speed by up to 2× over minutes
// (other tenants of the physical machine, not steal, which core time
// already leaves out), and everything a process does slows alike. The
// gated times and rates are therefore given in reference seconds: after
// every pass and every set-up the benchmark times refKernel, a fixed
// CPU-bound job of its own that shares no code with the repository, and
// scales the measured time by refNominal ÷ that kernel time. A change to
// the repository's code moves the pass and not the kernel, so it shows in
// full; a change in the host's speed moves both and cancels.

// refOps is the map updates refKernel makes on each worker, in refChunks
// timed chunks.
const (
	refOps    = 400_000
	refChunks = 5
)

// refNominal is refKernel's time on the reference host, a 2-vCPU Intel
// Xeon virtual machine with go1.24, at its usual speed. It fixes the
// unit: one reference second is a second of that host.
const refNominal = 12 * time.Millisecond

// refSink keeps refKernel's result live.
var refSink uint64

// refKernel runs refOps updates of a small, cache-resident map on every
// worker at once, as the workloads run, and returns the CPU time per
// worker it took. CPU time leaves out steal, as core time does, and the
// kernel never waits. The kernel runs in chunks and the fastest chunk
// counts, so that a garbage collection the previous pass left running, or
// the first touch of the kernel's own memory, does not count.
func refKernel() time.Duration {
	n := workers()
	best := time.Duration(-1)
	for c := 0; c < refChunks; c++ {
		sums := make([]uint64, n)
		t0 := cpuTime()
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				m := make(map[uint64]uint64, 4096)
				x := uint64(w*refChunks+c)*0x9e3779b97f4a7c15 + 88172645463325252
				for i := 0; i < refOps/refChunks; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					m[x&8191] += x
					if len(m) > 4000 {
						clear(m)
					}
				}
				sums[w] = x + uint64(len(m))
			}(w)
		}
		wg.Wait()
		if d := (cpuTime() - t0) / time.Duration(n); best < 0 || d < best {
			best = d
		}
		for _, s := range sums {
			refSink += s
		}
	}
	return best * refChunks
}

// toRef converts d, measured while refKernel took ref per worker, into
// reference time.
func toRef(d, ref time.Duration) time.Duration {
	if ref <= 0 {
		return d
	}
	return time.Duration(float64(d) * float64(refNominal) / float64(ref))
}
