package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host records where the benchmark runs and how its processes are
// placed: the driver and the cluster child get disjoint CPUs when the
// machine has at least two and taskset is available.
type host struct {
	nproc       int
	cpuModel    string
	goVersion   string
	pinned      bool
	driverCPUs  string // taskset list, "" when unpinned
	clusterCPUs string
}

func (h *host) String() string {
	pin := "none"
	if h.pinned {
		pin = "cluster:" + h.clusterCPUs + ",driver:" + h.driverCPUs
	}
	return fmt.Sprintf("nproc=%d pinning=%s go=%s cpu=%q", h.nproc, pin, h.goVersion, h.cpuModel)
}

// pinDriver pins this process to the last allowed CPU and reserves the
// others for the cluster child. It falls back to no pinning when the
// machine has one CPU or taskset is missing or refused.
func pinDriver() *host {
	h := &host{
		nproc:     runtime.NumCPU(),
		cpuModel:  cpuModel(),
		goVersion: runtime.Version(),
	}
	cpus := allowedCPUs()
	if len(cpus) < 2 {
		return h
	}
	if _, err := exec.LookPath("taskset"); err != nil {
		return h
	}
	drv := cpus[len(cpus)-1]
	rest := make([]string, len(cpus)-1)
	for i, c := range cpus[:len(cpus)-1] {
		rest[i] = strconv.Itoa(c)
	}
	// -a applies the mask to every thread the runtime has started; threads
	// started later inherit it from their creator.
	cmd := exec.Command("taskset", "-a", "-p", "-c", strconv.Itoa(drv), strconv.Itoa(os.Getpid()))
	if out, err := cmd.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: taskset refused (%v: %s); running unpinned\n", err, strings.TrimSpace(string(out)))
		return h
	}
	runtime.GOMAXPROCS(1)
	h.pinned = true
	h.driverCPUs = strconv.Itoa(drv)
	h.clusterCPUs = strings.Join(rest, ",")
	return h
}

// allowedCPUs parses this process's CPU affinity list.
func allowedCPUs() []int {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return nil
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Cpus_allowed_list:") {
			continue
		}
		var cpus []int
		for _, part := range strings.Split(strings.TrimSpace(strings.TrimPrefix(line, "Cpus_allowed_list:")), ",") {
			lo, hi, found := strings.Cut(part, "-")
			a, err := strconv.Atoi(lo)
			if err != nil {
				return nil
			}
			b := a
			if found {
				if b, err = strconv.Atoi(hi); err != nil {
					return nil
				}
			}
			for c := a; c <= b; c++ {
				cpus = append(cpus, c)
			}
		}
		return cpus
	}
	return nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is this process's peak resident set in MiB (VmHWM). Unlike
// getrusage's ru_maxrss it is not inherited across fork and exec, so a
// child's figure is its own.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
