// Command loadgen drives a live msweb cluster with synthetic load and
// reports client-side latency quantiles as JSON.
//
// Two drive modes:
//
//   - open (-mode open -rps R): requests fire on a Poisson schedule at
//     R req/s regardless of how fast responses come back. Latency is
//     measured from each request's *scheduled* start, so queueing delay
//     caused by a slow server is charged to the server — the classic
//     coordinated-omission-safe arrangement. This is the mode whose
//     numbers correspond to an arrival process hitting a public site.
//
//   - closed (-mode closed -concurrency C): C workers issue requests
//     back-to-back, the shape of a fixed browser population. Raw
//     latencies understate tails under stalls (the stalled worker stops
//     sampling — coordinated omission), so when a target rate is also
//     given (-rps) each worker paces at C/R seconds per request and a
//     second, corrected histogram back-fills the hidden samples via
//     obs.Histogram.ObserveCoordinated.
//
// The request mix comes from the paper's trace profiles
// (trace.GenConfig): -profile selects the class mix and size
// distributions, -muh and -r calibrate demands exactly as the simulator
// does. With no -targets, loadgen boots its own loopback cluster
// (-nodes/-masters/-timescale) so `go run ./cmd/loadgen` benchmarks the
// live data plane end to end with zero setup.
//
// With -fast (self-hosted cluster only), the cluster runs uncalibrated:
// service demands are charged to virtual clocks instead of wall-clock
// sleeps, so the run measures the data plane's own overhead — parse,
// placement, dispatch, transport — rather than the emulated service
// times. Masters dispatch to slaves over persistent binary frames;
// -batch adds a coalescing window so concurrent requests for one slave
// share frames.
// The summary reports cores and req_s_per_core so fast-mode numbers are
// comparable across machine sizes.
//
// With -chaos (self-hosted cluster only), a seeded randomized fault
// schedule (internal/chaos) cycles the cluster's slaves through kills,
// pauses, injected latency and slow-loris while the load runs; the
// summary then separates deliberate shedding (503) and retry exhaustion
// (502) from transport errors and reports the breaker/failover counters
// the faults provoked.
//
// The self-hosted cluster's scheduling policy comes from the shared
// registry (internal/policy): -policy selects a preset, the
// -admission-policy/-routing-policy/-routing-scorers/-scheduling-policy
// stage flags assemble a custom pipeline, and -list-policies prints the
// catalog. -tournament runs the same load against a fresh self-hosted
// cluster per preset ("competitors" = the registry's competitor field)
// and reports one summary entry per policy, so the live plane replays
// the simulator's head-to-head comparison.
//
// Usage:
//
//	loadgen -mode open -rps 200 -n 2000 -profile KSU -timescale 0.05
//	loadgen -mode closed -concurrency 8 -rps 100 -n 1000 -out results/closed.json
//	loadgen -mode closed -concurrency 8 -n 2000 -chaos -chaos-seed 7 -nodes 6 -masters 2
//	loadgen -tournament competitors -fast -n 2000 -concurrency 16
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"msweb/internal/chaos"
	"msweb/internal/core"
	"msweb/internal/httpcluster"
	"msweb/internal/obs"
	"msweb/internal/policy"
	"msweb/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// LatencyStats is the JSON shape of one latency distribution (seconds).
type LatencyStats struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

func statsOf(h *obs.Histogram) LatencyStats {
	return LatencyStats{
		P50:  h.Quantile(0.50),
		P95:  h.Quantile(0.95),
		P99:  h.Quantile(0.99),
		Mean: h.Mean(),
		Max:  h.Max(),
	}
}

// Summary is loadgen's JSON report.
type Summary struct {
	Mode           string   `json:"mode"`
	Profile        string   `json:"profile"`
	Targets        []string `json:"targets"`
	Requests       int      `json:"requests"`
	Fast           bool     `json:"fast,omitempty"`
	FrameClient    bool     `json:"frame_client,omitempty"`
	Shards         int      `json:"shards,omitempty"`
	ListenerShards int      `json:"listener_shards,omitempty"`
	BatchWindowS   float64  `json:"batch_window_s,omitempty"`
	Sent           int64    `json:"sent"`
	OK             int64    `json:"ok"`
	Errors         int64    `json:"errors"`
	Shed           int64    `json:"shed,omitempty"`
	Exhausted      int64    `json:"exhausted,omitempty"`
	DurationS      float64  `json:"duration_s"`
	ThroughputRPS  float64  `json:"throughput_rps"`
	// ReqS is the aggregate throughput (same number as ThroughputRPS,
	// under the name the multi-core scaling harness reports): on a
	// multi-core run the aggregate is the headline, with ReqSPerCore as
	// the cross-machine normalizer.
	ReqS float64 `json:"req_s"`
	// Cores and ReqSPerCore normalize throughput for cross-machine
	// comparison: the single-core 100k req/s headline is stated per core.
	Cores       int          `json:"cores"`
	ReqSPerCore float64      `json:"req_s_per_core"`
	TargetRPS   float64      `json:"target_rps,omitempty"`
	Concurrency int          `json:"concurrency,omitempty"`
	Latency     LatencyStats `json:"latency"`
	// Corrected is present in closed mode with pacing (-rps): the same
	// samples plus HdrHistogram-style coordinated-omission back-fill.
	Corrected *LatencyStats `json:"corrected,omitempty"`
	// Chaos is present with -chaos: the fault schedule's shape and the
	// cluster-side resilience counters it provoked.
	Chaos *ChaosSummary `json:"chaos,omitempty"`
	// Tournament is present with -tournament: one entry per policy
	// preset, each measured against a fresh self-hosted cluster replaying
	// the identical request mix.
	Tournament []TournamentEntry `json:"tournament,omitempty"`
	// Scaling is present with -scaling-sweep: the cores→aggregate-req/s
	// curve, one point per requested GOMAXPROCS width (points wider than
	// the machine are marked skipped, never failed).
	Scaling []ScalingPoint `json:"scaling,omitempty"`
}

// TournamentEntry is one policy's aggregate in a -tournament run.
type TournamentEntry struct {
	Policy        string       `json:"policy"`
	OK            int64        `json:"ok"`
	Errors        int64        `json:"errors"`
	Shed          int64        `json:"shed,omitempty"`
	ThroughputRPS float64      `json:"throughput_rps"`
	Latency       LatencyStats `json:"latency"`
}

// ChaosSummary reports a -chaos run: what was injected and how the data
// plane's resilience machinery responded.
type ChaosSummary struct {
	Seed         int64 `json:"seed"`
	Events       int   `json:"events"`
	FaultedNodes int   `json:"faulted_nodes"`
	BreakerOpens int64 `json:"breaker_opens"`
	Failovers    int64 `json:"failovers"`
	Retries      int64 `json:"retries"`
	MasterShed   int64 `json:"master_shed"`
	Exhausted    int64 `json:"master_exhausted"`
}

// run parses args, drives the load, and writes the JSON summary. Split
// from main for testability.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	targets := fs.String("targets", "", "comma-separated master base URLs (empty: self-host a loopback cluster)")
	nodes := fs.Int("nodes", 3, "self-hosted cluster size")
	masters := fs.Int("masters", 1, "self-hosted master count")
	timescale := fs.Float64("timescale", 1, "self-hosted service-duration scale (0.01 = 100× fast)")
	mode := fs.String("mode", "closed", "drive mode: open (paced arrivals) or closed (fixed workers)")
	rps := fs.Float64("rps", 0, "target request rate; required for -mode open, optional pacing for closed")
	concurrency := fs.Int("concurrency", 4, "closed-loop worker count")
	workers := fs.Int("workers", 64, "open-loop worker pool size")
	n := fs.Int("n", 200, "number of requests to issue")
	profile := fs.String("profile", "KSU", "request-mix profile (UCB, KSU, ADL)")
	muH := fs.Float64("muh", 110, "static service rate for demand calibration")
	r := fs.Float64("r", 1.0/40, "service ratio μc/μh for demand calibration")
	seed := fs.Int64("seed", 1, "mix generation seed")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	out := fs.String("out", "", "write the JSON summary to this file (default stdout)")
	minRPS := fs.Float64("min-rps", 0, "exit nonzero if measured throughput falls below this")
	chaosOn := fs.Bool("chaos", false, "inject randomized faults into the self-hosted cluster's slaves while driving load")
	chaosSeed := fs.Int64("chaos-seed", 42, "fault schedule seed (reproducible)")
	chaosLen := fs.Duration("chaos-len", 5*time.Second, "fault schedule length; all nodes are healthy again afterwards")
	chaosKills := fs.Bool("chaos-kills-only", false, "restrict injected faults to node kills (no pauses, latency or slow-loris)")
	fast := fs.Bool("fast", false, "run the self-hosted cluster uncalibrated: virtual-time demand accounting, no wall-clock sleeps")
	frameClient := fs.Bool("frame-client", false, "drive the masters over persistent 'Q' frames instead of HTTP GET /req (works with -targets too)")
	batch := fs.Duration("batch", 0, "coalescing window for batched master→slave dispatch (0: off)")
	lshards := fs.Int("listener-shards", 0, "SO_REUSEPORT accept sockets per node in the self-hosted cluster (0/1: single listener)")
	sweep := fs.String("scaling-sweep", "", "comma-separated core widths (e.g. 1,2,4): run the closed-loop benchmark at each GOMAXPROCS width and report the cores→req/s curve; self-hosted cluster only")
	sweepClientCores := fs.Int("scaling-client-cores", 0, "with -scaling-sweep, reserve this many extra cores for the client on top of each cluster width (0: client shares the width)")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex-contention profile to this file at exit")
	blockProfile := fs.String("blockprofile", "", "write a goroutine-blocking profile to this file at exit")
	shards := fs.Int("shards", 0, "partition the self-hosted slave tier across the masters (must equal -masters; 0/1 = global view)")
	shardMap := fs.String("shard-map", "", "shard partitioning function: hash (default) or static")
	gossip := fs.Duration("gossip", 0, "master↔master shard-summary pull period (0 = 4×refresh)")
	var pf policy.Flags
	pf.Register(fs)
	tournament := fs.String("tournament", "", "run the live policy tournament over these comma-separated presets (\"competitors\" = the registry's competitor field); self-hosted cluster only")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if pf.List {
		fmt.Fprint(stdout, policy.ListText())
		return nil
	}

	if prof := *mutexProfile; prof != "" {
		runtime.SetMutexProfileFraction(100)
		defer writeProfile("mutex", prof)
	}
	if prof := *blockProfile; prof != "" {
		runtime.SetBlockProfileRate(100_000) // one sample per 100µs blocked
		defer writeProfile("block", prof)
	}

	if *mode != "open" && *mode != "closed" {
		return fmt.Errorf("-mode must be open or closed, got %q", *mode)
	}
	if *chaosOn && *targets != "" {
		return fmt.Errorf("-chaos needs the self-hosted cluster (drop -targets): faults are injected via proxies in front of its slaves")
	}
	if *targets != "" && (*fast || *batch > 0 || *shards > 1 || *lshards > 1) {
		return fmt.Errorf("-fast/-batch/-shards/-listener-shards configure the self-hosted cluster (drop -targets)")
	}
	if *mode == "open" && *rps <= 0 {
		return fmt.Errorf("-mode open requires -rps > 0")
	}
	if *mode == "closed" && *concurrency < 1 {
		return fmt.Errorf("-concurrency must be at least 1")
	}
	prof, ok := trace.ProfileByName(*profile)
	if !ok {
		return fmt.Errorf("unknown profile %q", *profile)
	}

	// The generated trace supplies the class mix, sizes, demands and (in
	// open mode) the Poisson arrival schedule. Lambda only shapes
	// arrivals, so closed mode can use any positive rate.
	lambda := *rps
	if lambda <= 0 {
		lambda = 100
	}
	tr, err := trace.Generate(trace.GenConfig{
		Profile:  prof,
		Lambda:   lambda,
		Requests: *n,
		MuH:      *muH,
		R:        *r,
		Seed:     *seed,
	})
	if err != nil {
		return err
	}

	build, err := pf.Resolve()
	if err != nil {
		return err
	}

	if *sweep != "" {
		if *targets != "" {
			return fmt.Errorf("-scaling-sweep boots its own clusters (drop -targets)")
		}
		if *chaosOn || *tournament != "" {
			return fmt.Errorf("-scaling-sweep is exclusive with -chaos and -tournament")
		}
		widths, err := parseWidths(*sweep)
		if err != nil {
			return err
		}
		return runScalingSweep(scalingRun{
			widths: widths, clientCores: *sweepClientCores,
			tr: tr, prof: prof,
			rps: *rps, concurrency: *concurrency,
			nodes: *nodes, masters: *masters, timescale: *timescale,
			fast: *fast, frameClient: *frameClient,
			batch: *batch, lshards: *lshards,
			shards: *shards, shardMap: *shardMap, gossip: *gossip,
			build: build, discipline: pf.Scheduling,
			timeout: *timeout, out: *out, minRPS: *minRPS,
		}, stdout)
	}

	if *tournament != "" {
		if *targets != "" {
			return fmt.Errorf("-tournament boots its own clusters (drop -targets)")
		}
		if *chaosOn {
			return fmt.Errorf("-tournament and -chaos are mutually exclusive")
		}
		names := policy.TournamentNames()
		if *tournament != "competitors" {
			names = names[:0]
			for _, name := range strings.Split(*tournament, ",") {
				if name = strings.TrimSpace(name); name != "" {
					names = append(names, name)
				}
			}
		}
		return runTournament(tournamentRun{
			names: names, tr: tr, prof: prof,
			mode: *mode, rps: *rps, concurrency: *concurrency, workers: *workers,
			nodes: *nodes, masters: *masters, timescale: *timescale,
			fast: *fast, batch: *batch,
			lshards: *lshards,
			shards:  *shards, shardMap: *shardMap, gossip: *gossip,
			discipline: pf.Scheduling, timeout: *timeout, out: *out,
			minRPS: *minRPS,
		}, stdout)
	}

	var targetURLs []string
	var harness *chaos.Harness
	var sched chaos.Schedule
	var schedDone chan struct{}
	var chaosCancel context.CancelFunc
	if *targets == "" {
		cfg := httpcluster.Config{
			Nodes: *nodes, Masters: *masters, TimeScale: *timescale,
			LoadRefresh: 50 * time.Millisecond,
			PolicyTick:  100 * time.Millisecond,
			MakePolicy: func(id int) core.Policy {
				return build(nil, int64(id)+1)
			},
			Discipline:     pf.Scheduling,
			Uncalibrated:   *fast,
			BatchWindow:    *batch,
			ListenerShards: *lshards,
			Shards:         *shards,
			ShardMapMode:   *shardMap,
			GossipEvery:    *gossip,
		}
		if *chaosOn {
			if *nodes <= *masters {
				return fmt.Errorf("-chaos needs at least one slave (nodes %d, masters %d)", *nodes, *masters)
			}
			// Faster fault detection than the steady-state defaults, so a
			// few-second schedule exercises open → half-open → closed; the
			// dispatch deadline stays under the client timeout so every
			// outcome is a counted status, not a client-side abort.
			cfg.Resilience = httpcluster.Resilience{
				Breaker:         httpcluster.BreakerConfig{OpenFor: 250 * time.Millisecond},
				DispatchTimeout: *timeout / 2,
				RetryBackoff:    2 * time.Millisecond,
			}
			h, err := chaos.Launch(cfg)
			if err != nil {
				return err
			}
			defer h.Shutdown()
			harness, targetURLs = h, h.MasterURLs()
			sched = chaos.Random(*chaosSeed, chaos.RandomConfig{
				Nodes:     h.SlaveIDs(),
				Length:    *chaosLen,
				KillsOnly: *chaosKills,
			})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			chaosCancel = cancel
			schedDone = make(chan struct{})
			go func() {
				defer close(schedDone)
				chaos.Run(ctx, time.Now(), sched, h.Proxies)
			}()
		} else {
			c, err := httpcluster.Start(cfg)
			if err != nil {
				return err
			}
			defer c.Shutdown()
			targetURLs = c.MasterURLs()
		}
	} else {
		targetURLs = strings.Split(*targets, ",")
	}

	s := Summary{
		Mode:           *mode,
		Profile:        prof.Name,
		Targets:        targetURLs,
		Requests:       *n,
		Fast:           *fast,
		FrameClient:    *frameClient,
		Shards:         *shards,
		ListenerShards: *lshards,
		BatchWindowS:   (*batch).Seconds(),
		TargetRPS:      *rps,
		Concurrency:    0,
	}
	var okCount, errCount, shedCount, exhaustedCount atomic.Int64
	var do func(int) bool
	if *frameClient {
		pool := newFramePool(targetURLs, *timeout)
		defer pool.Close()
		works := buildFrameWork(targetURLs, tr)
		do = newFrameDo(pool, works, &okCount, &errCount, &shedCount, &exhaustedCount)
	} else {
		client := &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 256},
			Timeout:   *timeout,
		}
		urls := buildURLs(targetURLs, tr)
		do = newHTTPDo(client, urls, &okCount, &errCount, &shedCount, &exhaustedCount)
	}

	start := time.Now()
	var merged, corrected *obs.Histogram
	switch *mode {
	case "open":
		merged = runOpen(*n, tr, *rps, *workers, start, do)
	case "closed":
		s.Concurrency = *concurrency
		merged, corrected = runClosed(*n, *concurrency, *rps, do)
	}
	dur := time.Since(start)

	s.Sent = int64(*n)
	s.OK = okCount.Load()
	s.Errors = errCount.Load()
	s.Shed = shedCount.Load()
	s.Exhausted = exhaustedCount.Load()
	s.DurationS = dur.Seconds()
	if s.DurationS > 0 {
		s.ThroughputRPS = float64(s.OK) / s.DurationS
	}
	s.ReqS = s.ThroughputRPS
	s.Cores = runtime.GOMAXPROCS(0)
	if s.Cores > 0 {
		s.ReqSPerCore = s.ThroughputRPS / float64(s.Cores)
	}
	s.Latency = statsOf(merged)
	if corrected != nil {
		cs := statsOf(corrected)
		s.Corrected = &cs
	}
	if harness != nil {
		chaosCancel() // load is done; stop replaying faults
		<-schedDone
		cs := ChaosSummary{Seed: *chaosSeed, Events: len(sched)}
		faulted := map[int]bool{}
		for _, e := range sched {
			if e.Mode != chaos.ModeOK {
				faulted[e.Node] = true
			}
		}
		cs.FaultedNodes = len(faulted)
		for _, m := range harness.Cluster.Masters {
			cs.Failovers += m.Failovers()
			cs.Retries += m.Retries()
			cs.MasterShed += m.Shed()
			cs.Exhausted += m.Exhausted()
			for _, id := range harness.SlaveIDs() {
				cs.BreakerOpens += m.BreakerOpens(id)
			}
		}
		s.Chaos = &cs
	}

	if err := writeSummary(&s, *out, stdout); err != nil {
		return err
	}

	if s.Errors > 0 && s.OK == 0 {
		return fmt.Errorf("every request failed (%d errors)", s.Errors)
	}
	if *minRPS > 0 && s.ThroughputRPS < *minRPS {
		return fmt.Errorf("throughput %.2f req/s below -min-rps %.2f", s.ThroughputRPS, *minRPS)
	}
	return nil
}

// buildURLs expands the trace's request mix into /req URLs striped
// across the target masters.
func buildURLs(targetURLs []string, tr *trace.Trace) []string {
	urls := make([]string, len(tr.Requests))
	for i, req := range tr.Requests {
		cls := "s"
		if req.Class == trace.Dynamic {
			cls = "d"
		}
		urls[i] = fmt.Sprintf("%s/req?class=%s&demand=%g&w=%g&script=%d&size=%d",
			targetURLs[i%len(targetURLs)], cls, req.Demand, req.CPUWeight, req.Script, req.Size)
	}
	return urls
}

// newHTTPDo builds the HTTP per-request driver, classifying each outcome
// into the given counters.
func newHTTPDo(client *http.Client, urls []string, ok, errs, shed, exhausted *atomic.Int64) func(int) bool {
	return func(i int) bool {
		resp, err := client.Get(urls[i])
		if err != nil {
			errs.Add(1)
			return false
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			ok.Add(1)
			return true
		case http.StatusServiceUnavailable:
			// Deliberate shedding (503 + Retry-After) is a terminal
			// outcome of overload protection, not a transport failure.
			shed.Add(1)
		case http.StatusBadGateway:
			// Retry budget or deadline exhausted at the master.
			exhausted.Add(1)
		default:
			errs.Add(1)
		}
		return false
	}
}

// writeProfile dumps a runtime profile family (mutex, block) to path at
// exit; failures are reported but never fail the run.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %s profile: %v\n", name, err)
		return
	}
	defer f.Close()
	p := pprof.Lookup(name)
	if p == nil {
		fmt.Fprintf(os.Stderr, "loadgen: no %s profile\n", name)
		return
	}
	if err := p.WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %s profile: %v\n", name, err)
	}
}

// writeSummary emits the JSON report to the -out file or stdout.
func writeSummary(s *Summary, out string, stdout io.Writer) error {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out != "" {
		if err := os.WriteFile(out, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loadgen: %s mode, %d ok / %d errors, %.1f req/s → %s\n",
			s.Mode, s.OK, s.Errors, s.ThroughputRPS, out)
	} else {
		stdout.Write(buf) //nolint:errcheck
	}
	return nil
}

// tournamentRun bundles everything one -tournament sweep needs.
type tournamentRun struct {
	names       []string
	tr          *trace.Trace
	prof        trace.Profile
	mode        string
	rps         float64
	concurrency int
	workers     int
	nodes       int
	masters     int
	timescale   float64
	fast        bool
	batch       time.Duration
	lshards     int
	shards      int
	shardMap    string
	gossip      time.Duration
	discipline  string
	timeout     time.Duration
	out         string
	minRPS      float64
}

// runTournament boots one fresh self-hosted cluster per policy preset
// and replays the identical request mix against each, so the live data
// plane reproduces the simulator's head-to-head comparison. Entries are
// emitted in the order the presets were named.
func runTournament(tc tournamentRun, stdout io.Writer) error {
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 256},
		Timeout:   tc.timeout,
	}
	s := Summary{
		Mode:         tc.mode,
		Profile:      tc.prof.Name,
		Requests:     len(tc.tr.Requests),
		Fast:         tc.fast,
		BatchWindowS: tc.batch.Seconds(),
		TargetRPS:    tc.rps,
		Cores:        runtime.GOMAXPROCS(0),
	}
	if tc.mode == "closed" {
		s.Concurrency = tc.concurrency
	}
	for _, name := range tc.names {
		preset, err := policy.Lookup(name)
		if err != nil {
			return err
		}
		cfg := httpcluster.Config{
			Nodes: tc.nodes, Masters: tc.masters, TimeScale: tc.timescale,
			LoadRefresh: 50 * time.Millisecond,
			PolicyTick:  100 * time.Millisecond,
			MakePolicy: func(id int) core.Policy {
				return preset.Build(nil, int64(id)+1)
			},
			Discipline:     tc.discipline,
			Uncalibrated:   tc.fast,
			BatchWindow:    tc.batch,
			ListenerShards: tc.lshards,
			Shards:         tc.shards,
			ShardMapMode:   tc.shardMap,
			GossipEvery:    tc.gossip,
		}
		c, err := httpcluster.Start(cfg)
		if err != nil {
			return fmt.Errorf("tournament %s: %w", preset.Name, err)
		}
		urls := buildURLs(c.MasterURLs(), tc.tr)
		var ok, errs, shed, exhausted atomic.Int64
		do := newHTTPDo(client, urls, &ok, &errs, &shed, &exhausted)

		start := time.Now()
		var merged *obs.Histogram
		n := len(urls)
		switch tc.mode {
		case "open":
			merged = runOpen(n, tc.tr, tc.rps, tc.workers, start, do)
		case "closed":
			merged, _ = runClosed(n, tc.concurrency, tc.rps, do)
		}
		dur := time.Since(start).Seconds()
		c.Shutdown()
		client.CloseIdleConnections()

		entry := TournamentEntry{
			Policy:  preset.Name,
			OK:      ok.Load(),
			Errors:  errs.Load() + exhausted.Load(),
			Shed:    shed.Load(),
			Latency: statsOf(merged),
		}
		if dur > 0 {
			entry.ThroughputRPS = float64(entry.OK) / dur
		}
		s.Tournament = append(s.Tournament, entry)
		s.Sent += int64(len(urls))
		s.OK += entry.OK
		s.Errors += entry.Errors
		s.Shed += entry.Shed
		s.DurationS += dur
	}
	if s.DurationS > 0 {
		s.ThroughputRPS = float64(s.OK) / s.DurationS
	}
	s.ReqS = s.ThroughputRPS
	if s.Cores > 0 {
		s.ReqSPerCore = s.ThroughputRPS / float64(s.Cores)
	}
	if err := writeSummary(&s, tc.out, stdout); err != nil {
		return err
	}
	if s.Errors > 0 && s.OK == 0 {
		return fmt.Errorf("every request failed (%d errors)", s.Errors)
	}
	if tc.minRPS > 0 && s.ThroughputRPS < tc.minRPS {
		return fmt.Errorf("throughput %.2f req/s below -min-rps %.2f", s.ThroughputRPS, tc.minRPS)
	}
	return nil
}

// runOpen fires requests on the trace's Poisson schedule rescaled to the
// target rate, measuring latency from each request's scheduled start. A
// fully buffered queue means the dispatcher never blocks on a slow
// server: delay shows up in the measurements, not in the schedule.
func runOpen(n int, tr *trace.Trace, rps float64, workers int, start time.Time, do func(int) bool) *obs.Histogram {
	type item struct {
		idx   int
		sched time.Time
	}
	queue := make(chan item, n)
	for i := 0; i < n; i++ {
		// Trace arrivals are already at mean rate Lambda == rps.
		queue <- item{idx: i, sched: start.Add(time.Duration(tr.Requests[i].Arrival * float64(time.Second)))}
	}
	close(queue)

	if workers < 1 {
		workers = 1
	}
	hists := make([]*obs.Histogram, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		hists[w] = obs.NewHistogram()
		wg.Add(1)
		go func(h *obs.Histogram) {
			defer wg.Done()
			for it := range queue {
				if d := time.Until(it.sched); d > 0 {
					time.Sleep(d)
				}
				do(it.idx)
				// Scheduled start, not send time: if every worker was
				// busy past sched, that wait is server-induced queueing
				// and belongs in the latency.
				h.Observe(time.Since(it.sched).Seconds())
			}
		}(hists[w])
	}
	wg.Wait()

	merged := obs.NewHistogram()
	for _, h := range hists {
		merged.Merge(h)
	}
	return merged
}

// runClosed drives a fixed worker population. With rps > 0 each worker
// paces itself at concurrency/rps seconds per request and the corrected
// histogram back-fills coordinated omission at that interval; with no
// pacing the workers run flat out and corrected is nil (there is no
// intended schedule to correct against).
func runClosed(n, concurrency int, rps float64, do func(int) bool) (*obs.Histogram, *obs.Histogram) {
	var next atomic.Int64
	interval := 0.0
	if rps > 0 {
		interval = float64(concurrency) / rps
	}

	raws := make([]*obs.Histogram, concurrency)
	corrs := make([]*obs.Histogram, concurrency)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		raws[w] = obs.NewHistogram()
		corrs[w] = obs.NewHistogram()
		wg.Add(1)
		go func(raw, corr *obs.Histogram) {
			defer wg.Done()
			var sched time.Time
			if interval > 0 {
				sched = time.Now()
			}
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				if interval > 0 {
					if d := time.Until(sched); d > 0 {
						time.Sleep(d)
					}
					sched = sched.Add(time.Duration(interval * float64(time.Second)))
				}
				t0 := time.Now()
				do(int(i))
				lat := time.Since(t0).Seconds()
				raw.Observe(lat)
				corr.ObserveCoordinated(lat, interval)
			}
		}(raws[w], corrs[w])
	}
	wg.Wait()

	raw := obs.NewHistogram()
	for _, h := range raws {
		raw.Merge(h)
	}
	if interval <= 0 {
		return raw, nil
	}
	corr := obs.NewHistogram()
	for _, h := range corrs {
		corr.Merge(h)
	}
	return raw, corr
}
