package main

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"msweb/internal/core"
	"msweb/internal/httpcluster"
	"msweb/internal/policy"
	"msweb/internal/trace"
)

// ScalingPoint is one width of a -scaling-sweep run: the closed-loop
// benchmark replayed with GOMAXPROCS pinned to Cores (plus any reserved
// client cores). Widths the machine cannot provide are reported with
// Skipped=true rather than failing the sweep, so the JSON curve always
// has the shape the caller asked for.
type ScalingPoint struct {
	Cores       int     `json:"cores"`
	Procs       int     `json:"procs,omitempty"`
	Skipped     bool    `json:"skipped,omitempty"`
	Reason      string  `json:"reason,omitempty"`
	OK          int64   `json:"ok,omitempty"`
	Errors      int64   `json:"errors,omitempty"`
	Shed        int64   `json:"shed,omitempty"`
	DurationS   float64 `json:"duration_s,omitempty"`
	ReqS        float64 `json:"req_s,omitempty"`
	ReqSPerCore float64 `json:"req_s_per_core,omitempty"`
	P99S        float64 `json:"p99_s,omitempty"`
}

// scalingRun bundles everything one -scaling-sweep needs.
type scalingRun struct {
	widths      []int
	clientCores int
	tr          *trace.Trace
	prof        trace.Profile
	rps         float64
	concurrency int
	nodes       int
	masters     int
	timescale   float64
	fast        bool
	frameClient bool
	batch       time.Duration
	lshards     int
	shards      int
	shardMap    string
	gossip      time.Duration
	build       policy.Builder
	discipline  string
	timeout     time.Duration
	out         string
	minRPS      float64
}

// parseWidths parses "1,2,4" into sorted, deduplicated core widths.
func parseWidths(s string) ([]int, error) {
	var widths []int
	seen := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := strconv.Atoi(part)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("-scaling-sweep: bad width %q (want positive integers)", part)
		}
		if !seen[w] {
			seen[w] = true
			widths = append(widths, w)
		}
	}
	if len(widths) == 0 {
		return nil, fmt.Errorf("-scaling-sweep: no widths")
	}
	sort.Ints(widths)
	return widths, nil
}

// runScalingSweep replays the identical closed-loop benchmark at each
// requested core width: GOMAXPROCS is pinned to the width (plus any
// -scaling-client-cores reservation), a fresh self-hosted cluster boots,
// and the aggregate req/s lands in one ScalingPoint. The resulting
// cores→throughput curve is the harness's answer to "does the data plane
// scale with cores?" — parallel efficiency at width w is
// (req_s[w]/req_s[1])/w, computed downstream by benchjson.
func runScalingSweep(sc scalingRun, stdout io.Writer) error {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	s := Summary{
		Mode:           "closed",
		Profile:        sc.prof.Name,
		Requests:       len(sc.tr.Requests),
		Fast:           sc.fast,
		FrameClient:    sc.frameClient,
		Shards:         sc.shards,
		ListenerShards: sc.lshards,
		BatchWindowS:   sc.batch.Seconds(),
		TargetRPS:      sc.rps,
		Concurrency:    sc.concurrency,
	}
	for _, width := range sc.widths {
		procs := width + sc.clientCores
		pt := ScalingPoint{Cores: width, Procs: procs}
		if procs > runtime.NumCPU() {
			// Skip-gated, never failed: a 1-CPU CI box still emits the
			// full curve shape, with the wide points marked.
			pt.Skipped = true
			pt.Reason = fmt.Sprintf("needs %d procs, machine has %d CPUs", procs, runtime.NumCPU())
			s.Scaling = append(s.Scaling, pt)
			continue
		}
		runtime.GOMAXPROCS(procs)
		if err := runScalingPoint(&sc, &pt); err != nil {
			return fmt.Errorf("scaling width %d: %w", width, err)
		}
		s.Scaling = append(s.Scaling, pt)
		s.Sent += int64(len(sc.tr.Requests))
		s.OK += pt.OK
		s.Errors += pt.Errors
		s.Shed += pt.Shed
		s.DurationS += pt.DurationS
	}
	runtime.GOMAXPROCS(prev)

	// Headline fields come from the widest completed point: on a
	// multi-core run the aggregate req/s is the number that matters.
	for i := len(s.Scaling) - 1; i >= 0; i-- {
		if pt := s.Scaling[i]; !pt.Skipped {
			s.Cores = pt.Cores
			s.ThroughputRPS = pt.ReqS
			s.ReqS = pt.ReqS
			s.ReqSPerCore = pt.ReqSPerCore
			s.Latency.P99 = pt.P99S
			break
		}
	}

	if err := writeSummary(&s, sc.out, stdout); err != nil {
		return err
	}
	ran := s.OK + s.Errors + s.Shed
	if ran > 0 && s.OK == 0 {
		return fmt.Errorf("every request failed (%d errors)", s.Errors)
	}
	if sc.minRPS > 0 && s.ReqS > 0 && s.ReqS < sc.minRPS {
		return fmt.Errorf("throughput %.2f req/s below -min-rps %.2f", s.ReqS, sc.minRPS)
	}
	return nil
}

// runScalingPoint boots a fresh cluster and drives the closed loop once,
// filling the point's measurements.
func runScalingPoint(sc *scalingRun, pt *ScalingPoint) error {
	cfg := httpcluster.Config{
		Nodes: sc.nodes, Masters: sc.masters, TimeScale: sc.timescale,
		LoadRefresh: 50 * time.Millisecond,
		PolicyTick:  100 * time.Millisecond,
		MakePolicy: func(id int) core.Policy {
			return sc.build(nil, int64(id)+1)
		},
		Discipline:     sc.discipline,
		Uncalibrated:   sc.fast,
		BatchWindow:    sc.batch,
		ListenerShards: sc.lshards,
		Shards:         sc.shards,
		ShardMapMode:   sc.shardMap,
		GossipEvery:    sc.gossip,
	}
	c, err := httpcluster.Start(cfg)
	if err != nil {
		return err
	}
	defer c.Shutdown()
	targets := c.MasterURLs()

	var ok, errs, shed, exhausted atomic.Int64
	var do func(int) bool
	if sc.frameClient {
		pool := newFramePool(targets, sc.timeout)
		defer pool.Close()
		do = newFrameDo(pool, buildFrameWork(targets, sc.tr), &ok, &errs, &shed, &exhausted)
	} else {
		client := &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 256},
			Timeout:   sc.timeout,
		}
		defer client.CloseIdleConnections()
		do = newHTTPDo(client, buildURLs(targets, sc.tr), &ok, &errs, &shed, &exhausted)
	}

	start := time.Now()
	merged, _ := runClosed(len(sc.tr.Requests), sc.concurrency, sc.rps, do)
	dur := time.Since(start).Seconds()

	pt.OK = ok.Load()
	pt.Errors = errs.Load() + exhausted.Load()
	pt.Shed = shed.Load()
	pt.DurationS = dur
	if dur > 0 {
		pt.ReqS = float64(pt.OK) / dur
	}
	if pt.Cores > 0 {
		pt.ReqSPerCore = pt.ReqS / float64(pt.Cores)
	}
	pt.P99S = merged.Quantile(0.99)
	return nil
}
