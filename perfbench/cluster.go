package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"msweb/internal/core"
	"msweb/internal/httpcluster"
	"msweb/internal/policy"
)

// The live workloads' cluster: one master and two slaves in fast mode
// (Uncalibrated) running the ms preset. Every transport option keeps its
// default (no BinaryFraming, BatchWindow, ListenerShards or Shards), so
// the master reaches its slaves over HTTP /exec.
const (
	liveNodes   = 3
	liveMasters = 1
	livePolicy  = "ms"
)

// runCluster is the cluster child ("perfbench cluster"). It starts the
// cluster through httpcluster.Start, prints one "node <id> <role> <url>"
// line per node and then "ready", answers each "stats" line on standard
// input with "stats <cpu_ns> <mallocs>", and when standard input closes
// shuts the cluster down and prints "exit <mallocs> <alloc_bytes>
// <peak_rss_mb>": its runtime.MemStats allocation delta since start-up
// and its peak resident set.
func runCluster() error {
	pre, err := policy.Lookup(livePolicy)
	if err != nil {
		return err
	}
	cfg := httpcluster.DefaultConfig(liveMasters, func(id int) core.Policy { return pre.Build(nil, int64(id)+1) })
	cfg.Nodes = liveNodes
	cfg.Uncalibrated = true
	c, err := httpcluster.Start(cfg)
	if err != nil {
		return err
	}
	defer c.Shutdown()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	w := bufio.NewWriter(os.Stdout)
	for _, m := range c.Masters {
		fmt.Fprintf(w, "node %d master %s\n", m.ID, m.URL)
	}
	for _, s := range c.Slaves {
		fmt.Fprintf(w, "node %d slave %s\n", s.ID, s.URL)
	}
	fmt.Fprintln(w, "ready")
	if err := w.Flush(); err != nil {
		return err
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if sc.Text() != "stats" {
			return fmt.Errorf("unknown command %q", sc.Text())
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(w, "stats %d %d\n", cpuTime().Nanoseconds(), ms.Mallocs)
		if err := w.Flush(); err != nil {
			return err
		}
	}
	c.Shutdown()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	fmt.Fprintf(w, "exit %d %d %.3f\n", end.Mallocs-base.Mallocs, end.TotalAlloc-base.TotalAlloc, peakRSSMB())
	return w.Flush()
}

// clusterProc is the driver's handle on a running cluster child.
type clusterProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	out    *bufio.Reader
	master string
	slaves []string
}

// childStats is one "stats" answer.
type childStats struct {
	cpu     time.Duration
	mallocs uint64
}

// startCluster launches the child, pinned to the cluster CPUs when the
// driver is pinned, and waits for its node URLs.
func startCluster(h *host) (*clusterProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	argv := []string{self, "cluster"}
	if h.pinned {
		argv = append([]string{"taskset", "-c", h.clusterCPUs}, argv...)
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &clusterProc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	watchdog := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer watchdog.Stop()
	for {
		line, err := p.out.ReadString('\n')
		if err != nil {
			p.kill()
			return nil, fmt.Errorf("cluster child exited before ready: %w", err)
		}
		f := strings.Fields(line)
		switch {
		case len(f) == 4 && f[0] == "node" && f[2] == "master":
			p.master = f[3]
		case len(f) == 4 && f[0] == "node" && f[2] == "slave":
			p.slaves = append(p.slaves, f[3])
		case len(f) == 1 && f[0] == "ready":
			if p.master == "" {
				p.kill()
				return nil, fmt.Errorf("cluster child reported no master")
			}
			return p, nil
		default:
			p.kill()
			return nil, fmt.Errorf("cluster child: unexpected line %q", line)
		}
	}
}

func (p *clusterProc) stats() (childStats, error) {
	if _, err := io.WriteString(p.stdin, "stats\n"); err != nil {
		return childStats{}, fmt.Errorf("cluster stats: %w", err)
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return childStats{}, fmt.Errorf("cluster stats: %w", err)
	}
	var s childStats
	var cpuNs int64
	if _, err := fmt.Sscanf(line, "stats %d %d", &cpuNs, &s.mallocs); err != nil {
		return childStats{}, fmt.Errorf("cluster stats %q: %w", line, err)
	}
	s.cpu = time.Duration(cpuNs)
	return s, nil
}

// stop closes the child's standard input, waits for it to shut the
// cluster down and exit, and returns its exit report.
func (p *clusterProc) stop() (exitReport, error) {
	p.stdin.Close()
	watchdog := time.AfterFunc(30*time.Second, func() { p.cmd.Process.Kill() })
	defer watchdog.Stop()
	line, _ := p.out.ReadString('\n')
	io.Copy(io.Discard, p.out) //nolint:errcheck // drain to EOF
	if err := p.cmd.Wait(); err != nil {
		return exitReport{}, fmt.Errorf("cluster child: %w", err)
	}
	var r exitReport
	if _, err := fmt.Sscanf(line, "exit %d %d %g", &r.mallocs, &r.allocBytes, &r.peakRSSMB); err != nil {
		return exitReport{}, fmt.Errorf("cluster child exit report %q: %w", line, err)
	}
	return r, nil
}

// exitReport is the child's last line.
type exitReport struct {
	mallocs, allocBytes uint64
	peakRSSMB           float64
}

// kill ends the child without the orderly shutdown, for error paths.
func (p *clusterProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait() //nolint:errcheck
}
