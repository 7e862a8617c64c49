package main

import (
	"slices"
	"time"
)

// The host's speed drifts by up to a quarter over tens of seconds (other
// tenants share the machine), which moves every wall-clock rate with it.
// A fixed calibration kernel, timed next to the workload, measures that
// drift: rates scaled by refSpeed/speed read what the reference machine
// would have measured. The kernel is benchmark code, so no change to the
// program moves it.

// refSpeed is a round value near the kernel's rate, in iterations per
// second, on the machine the benchmark was defined on (a 2-vCPU Intel
// Xeon VM, Go 1.24), so that scaled rates read close to raw ones there.
const refSpeed = 300.0

// speedProbe is how long one speed measurement runs the kernel.
const speedProbe = 300 * time.Millisecond

var kernelSink uint64

// kernel sorts and hashes 20,000 pseudo-random keys: branchy code, map
// updates, allocation and cache misses, as in the simulator and the
// servers.
func kernel() uint64 {
	x := uint64(88172645463325252)
	keys := make([]uint64, 20000)
	counts := make(map[uint64]int, 4096)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = x
		counts[x&4095]++
	}
	slices.Sort(keys)
	return keys[len(keys)/2] + uint64(len(counts))
}

// machineSpeed runs the kernel for d and returns its rate per second.
func machineSpeed(d time.Duration) float64 {
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		kernelSink += kernel()
		n++
	}
	return float64(n) / time.Since(start).Seconds()
}
