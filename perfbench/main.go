// Command perfbench is the repository benchmark. It runs one named
// workload, checks the workload's outputs, and prints every metric by
// name and unit; the last line of standard output is one JSON object.
//
//	perfbench --workload sim-fig4 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it makes an untraced and a traced pass, keeps a span for every call it
// makes into a layer, and reports the per-layer metrics instead. The
// live workloads start their cluster as a child process of this same
// binary ("perfbench cluster", see cluster.go). README.md explains the
// workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// endToEnd metrics are reported by untraced runs, perLayer metrics by
// traced runs; BENCHMARK.json declares the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
	{"req_s", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p95_us", "us"},
}

// perLayer metrics are reported on every workload. A layer the workload
// never reaches reports 0 (README.md lists which layers each workload
// reaches).
var perLayer = []metricDef{
	{"trace.gen_s", "s"},
	{"sim.events_per_req", "count"},
	{"sim.events_per_req_ksu", "count"},
	{"sim.events_per_req_adl", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.allocs_per_req", "count"},
	{"sim.stretch", "ratio"},
	{"sim.raw_req_s", "1/s"},
	{"simos.ctx_switches_per_req", "count"},
	{"simos.disk_ops_per_req", "count"},
	{"simos.page_faults_per_req", "count"},
	{"core.place_ns", "ns"},
	{"core.place_share", "ratio"},
	{"cluster.self_share", "ratio"},
	{"httpcluster.cpu_us_per_req", "us"},
	{"httpcluster.cpu_util", "ratio"},
	{"httpcluster.allocs_per_req", "count"},
	{"httpcluster.master_resp_p50_us", "us"},
	{"httpcluster.master_resp_p99_us", "us"},
	{"httpcluster.wire_p50_us", "us"},
	{"httpcluster.remote_frac", "ratio"},
	{"httpcluster.exec_probe_p50_us", "us"},
	{"httpcluster.retries_per_kreq", "count"},
	{"httpcluster.failovers", "count"},
	{"httpcluster.shed", "count"},
	{"httpcluster.piggyback_per_dispatch", "ratio"},
	{"httpcluster.poll_skipped_frac", "ratio"},
	{"httpcluster.view_staleness_ms", "ms"},
	{"driver.cpu_util", "ratio"},
	{"driver.trace_overhead_frac", "ratio"},
	{"driver.machine_speed", "1/s"},
	{"driver.lat_samples", "count"},
	{"driver.lat_p99_us", "us"},
	{"driver.fail_frac", "ratio"},
}

type metricDef struct{ name, unit string }

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	host    *host
}

// outcome is what a workload measured. attempted and failed count the
// operations of the measured phases; failedChecks names every output
// check that did not hold.
type outcome struct {
	attempted, failed int64
	failedChecks      []string
	metrics           map[string]float64
	spans             *spanLog
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failedChecks = append(o.failedChecks, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"sim-fig4":       runSimFig4,
	"live-frame-adl": func(rc runConfig) (*outcome, error) { return runLive(rc, frameADL) },
	"live-http-ucb":  func(rc runConfig) (*outcome, error) { return runLive(rc, httpUCB) },
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "cluster" {
		if err := runCluster(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench cluster:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// spansDir is where traced runs write their spans, relative to the
// directory the benchmark runs in.
const spansDir = ".bench_build/spans"

var errChecksFailed = errors.New("output checks failed")

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	// A run that hangs must still end, well inside three minutes; the
	// cluster child exits when its standard input closes with us.
	limit := time.Duration(*seconds*float64(time.Second)) + 2*time.Minute
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", limit)
		os.Exit(2)
	})
	h := pinDriver()
	fmt.Printf("# env workload=%s seed=%d seconds=%g trace=%d %s\n", *workload, *seed, *seconds, *traced, h)

	out, err := runWorkload(runConfig{
		seed: *seed, seconds: *seconds, traced: *traced == 1, host: h,
	})
	if err != nil {
		return err
	}
	if out.spans != nil {
		path, err := out.spans.write(spansDir, *workload, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("# spans %d written to %s\n", out.spans.len(), path)
	}
	res, err := report(out, *traced == 1)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	for _, c := range out.failedChecks {
		fmt.Printf("# check failed: %s\n", c)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errChecksFailed
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report selects the run's metrics from the outcome. End-to-end metrics
// must all be measured; a per-layer metric the workload did not reach
// reports 0.
func report(out *outcome, traced bool) (*result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := &result{
		Correct:   len(out.failedChecks) == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("workload did not measure %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.failedChecks = append(out.failedChecks, fmt.Sprintf("%s is not finite (%v)", d.name, v))
			res.Correct = false
			v = -1
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
