// Command benchjson converts `go test -bench` text output into a JSON
// document, one record per benchmark result. It reads stdin and writes
// stdout, so it composes with any bench invocation:
//
//	go test -bench=. -benchmem -run '^$' . | go run ./cmd/benchjson > BENCH_results.json
//
// Each record carries the benchmark name (GOMAXPROCS suffix stripped),
// the iteration count, and every reported metric (ns/op, B/op,
// allocs/op, and custom b.ReportMetric units) keyed by unit.
//
// With -baseline FILE, a second bench output is parsed from FILE and the
// document additionally carries the baseline results and per-benchmark
// before/after deltas (time speedup and allocation counts), so a single
// BENCH_results.json records an optimization's full trajectory:
//
//	go test -bench=. -benchmem -run '^$' . | \
//	    go run ./cmd/benchjson -baseline bench/baseline.txt > BENCH_results.json
//
// With -live FILE[,FILE...], loadgen JSON summaries (cmd/loadgen) are
// folded into the document as LiveCluster/<mode> results, so the same
// BENCH_results.json carries both microbenchmarks and end-to-end
// cluster throughput/latency numbers.
//
// With -tournament FILE, the policy-tournament CSV written by
// `msbench -experiment tournament -csv DIR` is folded in as a
// Tournament section, one record per (profile, load, policy) cell, so
// the report also carries the head-to-head policy comparison:
//
//	go run ./cmd/msbench -experiment tournament -quick -csv bench
//	go test -bench=. -benchmem -run '^$' . | \
//	    go run ./cmd/benchjson -tournament bench/policy-tournament.csv > BENCH_results.json
//
// With -autoscale FILE, the autoscaling-study CSV written by
// `msbench -experiment autoscale -csv DIR` is folded in as an Autoscale
// section, one record per (workload, scenario) row, carrying the
// node-hours saved and SLO attainment of the autoscaled fleet against
// the fixed one.
package main

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the emitted document.
type Report struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// ReqS is the aggregate-throughput headline: the best whole-process
	// req/s among the folded-in fast-mode (uncalibrated) loadgen runs.
	// On a multi-core run this is the number that matters; ReqSPerCore
	// remains the cross-machine normalizer (best per-core throughput
	// among the same runs, where the data plane itself is the bottleneck
	// rather than emulated service times).
	ReqS        float64            `json:"req_s,omitempty"`
	ReqSPerCore float64            `json:"req_s_per_core,omitempty"`
	Results     []Result           `json:"results"`
	Live        []Result           `json:"live,omitempty"`
	Scaling     *ScalingReport     `json:"scaling,omitempty"`
	Tournament  []TournamentResult `json:"tournament,omitempty"`
	Autoscale   []AutoscaleResult  `json:"autoscale,omitempty"`
	Baseline    []Result           `json:"baseline,omitempty"`
	Deltas      []Delta            `json:"deltas,omitempty"`
}

// ScalingReport is the cores→throughput curve folded in from a loadgen
// -scaling-sweep summary, with speedup and parallel efficiency computed
// relative to the narrowest completed point.
type ScalingReport struct {
	Points []ScalingResult `json:"points"`
	// PeakCores/PeakReqS locate the best completed point;
	// ParallelEfficiency is the widest completed point's speedup over
	// the narrowest, divided by the core ratio (1.0 = perfect scaling).
	PeakCores          int     `json:"peak_cores,omitempty"`
	PeakReqS           float64 `json:"peak_req_s,omitempty"`
	ParallelEfficiency float64 `json:"parallel_efficiency,omitempty"`
}

// ScalingResult is one width of the sweep.
type ScalingResult struct {
	Cores       int     `json:"cores"`
	Skipped     bool    `json:"skipped,omitempty"`
	Reason      string  `json:"reason,omitempty"`
	ReqS        float64 `json:"req_s,omitempty"`
	ReqSPerCore float64 `json:"req_s_per_core,omitempty"`
	P99S        float64 `json:"p99_s,omitempty"`
	Speedup     float64 `json:"speedup,omitempty"`
	Efficiency  float64 `json:"efficiency,omitempty"`
}

// TournamentResult is one (profile, load, policy) cell of the policy
// tournament, mirroring the CSV msbench emits.
type TournamentResult struct {
	Profile  string  `json:"profile"`
	Rho      float64 `json:"rho"`
	Policy   string  `json:"policy"`
	MeanMs   float64 `json:"mean_ms"`
	P99Ms    float64 `json:"p99_ms"`
	Stretch  float64 `json:"stretch"`
	CPUUtil  float64 `json:"cpu_util"`
	ShedRate float64 `json:"shed_rate"`
}

// tournamentResults parses the policy-tournament CSV. Columns are
// located by header name so reordering stays harmless.
func tournamentResults(path string) ([]TournamentResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("%s: no tournament rows", path)
	}
	col := map[string]int{}
	for i, name := range records[0] {
		col[name] = i
	}
	for _, name := range []string{"profile", "rho", "policy", "mean_ms", "p99_ms", "stretch", "cpu_util", "shed_rate"} {
		if _, ok := col[name]; !ok {
			return nil, fmt.Errorf("%s: not a tournament CSV (missing %q column)", path, name)
		}
	}
	num := func(rec []string, name string) float64 {
		v, _ := strconv.ParseFloat(rec[col[name]], 64)
		return v
	}
	out := make([]TournamentResult, 0, len(records)-1)
	for _, rec := range records[1:] {
		out = append(out, TournamentResult{
			Profile:  rec[col["profile"]],
			Rho:      num(rec, "rho"),
			Policy:   rec[col["policy"]],
			MeanMs:   num(rec, "mean_ms"),
			P99Ms:    num(rec, "p99_ms"),
			Stretch:  num(rec, "stretch"),
			CPUUtil:  num(rec, "cpu_util"),
			ShedRate: num(rec, "shed_rate"),
		})
	}
	return out, nil
}

// AutoscaleResult is one (workload, scenario) row of the autoscaling
// study, mirroring the CSV msbench emits.
type AutoscaleResult struct {
	Workload  string  `json:"workload"`
	Scenario  string  `json:"scenario"`
	Stretch   float64 `json:"stretch"`
	SLO       float64 `json:"slo_attainment"`
	NodeHours float64 `json:"node_hours"`
	SavedPct  float64 `json:"saved_pct"`
	SlaveOffs int64   `json:"slave_offs"`
	Epochs    int64   `json:"epochs"`
}

// autoscaleResults parses the autoscale-study CSV (header-addressed,
// like tournamentResults).
func autoscaleResults(path string) ([]AutoscaleResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("%s: no autoscale rows", path)
	}
	col := map[string]int{}
	for i, name := range records[0] {
		col[name] = i
	}
	for _, name := range []string{"workload", "scenario", "stretch", "slo_attainment", "node_hours", "saved_pct", "slave_offs", "epochs"} {
		if _, ok := col[name]; !ok {
			return nil, fmt.Errorf("%s: not an autoscale CSV (missing %q column)", path, name)
		}
	}
	num := func(rec []string, name string) float64 {
		v, _ := strconv.ParseFloat(rec[col[name]], 64)
		return v
	}
	out := make([]AutoscaleResult, 0, len(records)-1)
	for _, rec := range records[1:] {
		out = append(out, AutoscaleResult{
			Workload:  rec[col["workload"]],
			Scenario:  rec[col["scenario"]],
			Stretch:   num(rec, "stretch"),
			SLO:       num(rec, "slo_attainment"),
			NodeHours: num(rec, "node_hours"),
			SavedPct:  num(rec, "saved_pct"),
			SlaveOffs: int64(num(rec, "slave_offs")),
			Epochs:    int64(num(rec, "epochs")),
		})
	}
	return out, nil
}

// liveSummary mirrors the fields of cmd/loadgen's Summary that the
// report folds in (decoding stays tolerant of extra fields).
type liveSummary struct {
	Mode          string  `json:"mode"`
	Profile       string  `json:"profile"`
	Fast          bool    `json:"fast"`
	FrameClient   bool    `json:"frame_client"`
	Shards        int     `json:"shards"`
	Sent          int64   `json:"sent"`
	OK            int64   `json:"ok"`
	Errors        int64   `json:"errors"`
	Shed          int64   `json:"shed"`
	Exhausted     int64   `json:"exhausted"`
	ThroughputRPS float64 `json:"throughput_rps"`
	Cores         int     `json:"cores"`
	ReqSPerCore   float64 `json:"req_s_per_core"`
	Scaling       []struct {
		Cores       int     `json:"cores"`
		Skipped     bool    `json:"skipped"`
		Reason      string  `json:"reason"`
		ReqS        float64 `json:"req_s"`
		ReqSPerCore float64 `json:"req_s_per_core"`
		P99S        float64 `json:"p99_s"`
	} `json:"scaling"`
	Latency struct {
		P50  float64 `json:"p50"`
		P95  float64 `json:"p95"`
		P99  float64 `json:"p99"`
		Mean float64 `json:"mean"`
		Max  float64 `json:"max"`
	} `json:"latency"`
	Corrected *struct {
		P99 float64 `json:"p99"`
	} `json:"corrected"`
	Chaos *struct {
		Seed         int64 `json:"seed"`
		Events       int64 `json:"events"`
		FaultedNodes int64 `json:"faulted_nodes"`
		BreakerOpens int64 `json:"breaker_opens"`
		Failovers    int64 `json:"failovers"`
		Retries      int64 `json:"retries"`
	} `json:"chaos"`
}

// liveHeadline carries the figures liveResults extracts beyond the
// per-run records: the per-core and aggregate throughput headlines and
// the cores→throughput curve of any -scaling-sweep summary.
type liveHeadline struct {
	perCore   float64
	aggregate float64
	scaling   *ScalingReport
}

// liveResults converts loadgen summary files into pseudo-benchmark
// results named LiveCluster/<mode>, with Iterations carrying the
// request count and the latency quantiles keyed by unit-style names.
// Fast-mode (uncalibrated) runs are named apart with a /fast suffix and
// the best of them supplies the report's headlines: req_s (aggregate,
// the figure that matters on multi-core runs) and req_s_per_core (the
// cross-machine normalizer).
func liveResults(paths []string) ([]Result, liveHeadline, error) {
	var out []Result
	var hl liveHeadline
	for _, path := range paths {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, hl, err
		}
		var s liveSummary
		if err := json.Unmarshal(buf, &s); err != nil {
			return nil, hl, fmt.Errorf("%s: %w", path, err)
		}
		if s.Mode == "" {
			return nil, hl, fmt.Errorf("%s: not a loadgen summary (no mode)", path)
		}
		name := "LiveCluster/" + s.Mode
		if s.Fast {
			name += "/fast"
			if s.ReqSPerCore > hl.perCore {
				hl.perCore = s.ReqSPerCore
			}
			if s.ThroughputRPS > hl.aggregate {
				hl.aggregate = s.ThroughputRPS
			}
		}
		if s.FrameClient {
			name += "/frameclient"
		}
		if len(s.Scaling) > 0 {
			name += "/scaling"
			if sr := scalingReport(&s); sr != nil {
				hl.scaling = sr
			}
		}
		// A sharded control plane is a distinct experiment: name it apart
		// so the global-view and sharded runs of one mode can coexist.
		if s.Shards > 1 {
			name += "/sharded"
		}
		r := Result{
			Name:       name,
			Iterations: s.Sent,
			Metrics: map[string]float64{
				"throughput_rps": s.ThroughputRPS,
				"errors":         float64(s.Errors),
				"latency_p50_s":  s.Latency.P50,
				"latency_p95_s":  s.Latency.P95,
				"latency_p99_s":  s.Latency.P99,
				"latency_mean_s": s.Latency.Mean,
				"latency_max_s":  s.Latency.Max,
			},
		}
		if s.Cores > 0 {
			r.Metrics["cores"] = float64(s.Cores)
			r.Metrics["req_s_per_core"] = s.ReqSPerCore
		}
		if s.Shards > 1 {
			r.Metrics["shards"] = float64(s.Shards)
		}
		if s.Corrected != nil {
			r.Metrics["corrected_p99_s"] = s.Corrected.P99
		}
		// A chaos run is a distinct experiment: name it apart so a plain
		// and a chaos summary of the same mode can coexist in one report.
		if s.Chaos != nil {
			r.Name += "/chaos"
			r.Metrics["shed"] = float64(s.Shed)
			r.Metrics["exhausted"] = float64(s.Exhausted)
			r.Metrics["chaos_seed"] = float64(s.Chaos.Seed)
			r.Metrics["chaos_events"] = float64(s.Chaos.Events)
			r.Metrics["chaos_faulted_nodes"] = float64(s.Chaos.FaultedNodes)
			r.Metrics["chaos_breaker_opens"] = float64(s.Chaos.BreakerOpens)
			r.Metrics["chaos_failovers"] = float64(s.Chaos.Failovers)
			r.Metrics["chaos_retries"] = float64(s.Chaos.Retries)
		}
		out = append(out, r)
	}
	return out, hl, nil
}

// scalingReport folds one summary's sweep points into the report's
// scaling section, computing speedup and parallel efficiency relative
// to the narrowest completed width. Skipped points (widths the machine
// could not provide) are carried through so the curve keeps the shape
// the sweep asked for.
func scalingReport(s *liveSummary) *ScalingReport {
	sr := &ScalingReport{}
	baseCores, baseReqS := 0, 0.0
	for _, p := range s.Scaling {
		pt := ScalingResult{
			Cores: p.Cores, Skipped: p.Skipped, Reason: p.Reason,
			ReqS: p.ReqS, ReqSPerCore: p.ReqSPerCore, P99S: p.P99S,
		}
		if !p.Skipped && p.ReqS > 0 {
			if baseCores == 0 {
				baseCores, baseReqS = p.Cores, p.ReqS
			}
			pt.Speedup = p.ReqS / baseReqS
			pt.Efficiency = pt.Speedup / (float64(p.Cores) / float64(baseCores))
			if p.ReqS > sr.PeakReqS {
				sr.PeakCores, sr.PeakReqS = p.Cores, p.ReqS
			}
			// The widest completed point's efficiency is the headline.
			sr.ParallelEfficiency = pt.Efficiency
		}
		sr.Points = append(sr.Points, pt)
	}
	if baseCores == 0 {
		return nil // every point skipped: no curve to report
	}
	return sr
}

// Delta compares one benchmark between the baseline and current runs.
// Speedup is baseline ns/op over current ns/op (2 means twice as fast);
// allocation counts are carried as raw values because a reduction to
// zero has no finite ratio.
type Delta struct {
	Name       string  `json:"name"`
	NsBaseline float64 `json:"ns_baseline"`
	NsCurrent  float64 `json:"ns_current"`
	Speedup    float64 `json:"speedup"`
	AllocsOld  float64 `json:"allocs_baseline"`
	AllocsNew  float64 `json:"allocs_current"`
}

func main() {
	baseline := flag.String("baseline", "", "bench output file to diff the stdin run against")
	live := flag.String("live", "", "comma-separated loadgen JSON summaries to fold in")
	tournament := flag.String("tournament", "", "policy-tournament CSV (msbench -experiment tournament -csv DIR) to fold in")
	autoscale := flag.String("autoscale", "", "autoscale-study CSV (msbench -experiment autoscale -csv DIR) to fold in")
	flag.Parse()
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *tournament != "" {
		tr, err := tournamentResults(*tournament)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		rep.Tournament = tr
	}
	if *autoscale != "" {
		ar, err := autoscaleResults(*autoscale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		rep.Autoscale = ar
	}
	if *live != "" {
		lr, hl, err := liveResults(strings.Split(*live, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		rep.Live = lr
		rep.ReqSPerCore = hl.perCore
		rep.ReqS = hl.aggregate
		rep.Scaling = hl.scaling
	}
	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		base, err := parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		rep.Baseline = base.Results
		rep.Deltas = diff(base.Results, rep.Results)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// diff pairs baseline and current results by name.
func diff(base, cur []Result) []Delta {
	byName := make(map[string]Result, len(base))
	for _, r := range base {
		byName[r.Name] = r
	}
	var deltas []Delta
	for _, c := range cur {
		b, ok := byName[c.Name]
		if !ok {
			continue
		}
		d := Delta{
			Name:       c.Name,
			NsBaseline: b.Metrics["ns/op"],
			NsCurrent:  c.Metrics["ns/op"],
			AllocsOld:  b.Metrics["allocs/op"],
			AllocsNew:  c.Metrics["allocs/op"],
		}
		if d.NsCurrent > 0 {
			d.Speedup = d.NsBaseline / d.NsCurrent
		}
		deltas = append(deltas, d)
	}
	return deltas
}

// parse scans bench output, keeping the environment header and every
// Benchmark line; all other lines (PASS, ok, test logs) pass through
// unparsed.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseLine(line)
			if ok {
				rep.Results = append(rep.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// parseLine decodes one "BenchmarkName-P  N  v unit  v unit ..." line.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, false
	}
	res := Result{Name: fields[0], Metrics: map[string]float64{}}
	if i := strings.LastIndex(res.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(res.Name[i+1:]); err == nil {
			res.Name, res.Procs = res.Name[:i], procs
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		res.Metrics[fields[i+1]] = v
	}
	return res, true
}
