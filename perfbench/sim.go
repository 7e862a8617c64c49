package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/experiments"
	"msweb/internal/metrics"
	"msweb/internal/queuemodel"
	"msweb/internal/sim"
	"msweb/internal/trace"
)

// sim-fig4 replays the Figure 4(a) M/S cells for KSU and ADL, set up as
// experiments.RunFig4 sets them up: p = 32 with the Theorem 1 master
// count, the default target utilization (0.65), 1/r = 40, the default
// request count and warm-up, and the same 16-deep off-line w sample.
const (
	fig4Nodes = 32
	fig4InvR  = 40
	// fig4Seeds trace seeds per profile; like RunFig4, the stretch of a
	// profile is the mean over its seeds. The simulated response-time
	// quantiles vary by about 8% from one seed set to the next at 16
	// seeds per profile; 24 keep that spread under 7%.
	fig4Seeds = 24
	// wSampleDepth matches the experiments package's off-line sampling.
	wSampleDepth = 16
	// simSetupReps set-ups are timed; setup_s is their median.
	simSetupReps = 5
	// simMinReps is the fewest timed repetitions a phase makes.
	simMinReps = 3
)

var fig4Profiles = []trace.Profile{trace.KSU, trace.ADL}

// fig4Cell is one (profile, trace seed) replay.
type fig4Cell struct {
	prof    trace.Profile
	seed    int64
	masters int
	gen     trace.GenConfig
	tr      *trace.Trace
	wt      core.WTable
	reqBase int64 // global id of the cell's first request
	counted int   // requests arriving after the warm-up cut
}

func planFig4(seed int64) ([]*fig4Cell, error) {
	opts := experiments.Default()
	var cells []*fig4Cell
	for _, prof := range fig4Profiles {
		a, r := prof.ArrivalRatio(), 1.0/fig4InvR
		lambda := experiments.LambdaForRho(fig4Nodes, a, r, opts.TargetRho)
		plan, err := queuemodel.NewParams(fig4Nodes, lambda, a, experiments.MuH, r).OptimalPlan()
		if err != nil {
			return nil, fmt.Errorf("fig4 %s: %w", prof.Name, err)
		}
		n := max(opts.MinRequests, int(lambda*opts.Duration))
		for k := int64(0); k < fig4Seeds; k++ {
			s := seed*fig4Seeds + k
			cells = append(cells, &fig4Cell{
				prof: prof, seed: s, masters: plan.M,
				gen: trace.GenConfig{
					Profile: prof, Lambda: lambda, Requests: n,
					MuH: experiments.MuH, R: r, Seed: s,
				},
			})
		}
	}
	return cells, nil
}

// newCellCluster builds the cell's cluster with a fresh M/S policy,
// wrapped in timer when timer is non-nil.
func newCellCluster(c *fig4Cell, hook func(float64, metrics.Sample), timer *placeTimer) (*cluster.Cluster, error) {
	pl := core.NewMS(c.wt, c.seed)
	var pol core.Policy = pl
	if timer != nil {
		timer.Pipeline = pl
		pol = timer
	}
	cfg := cluster.DefaultConfig(fig4Nodes, c.masters)
	cfg.WarmupFraction = experiments.Default().Warmup
	cfg.SampleHook = hook
	return cluster.New(sim.NewEngine(), cfg, pol)
}

// placeTimer times every Place call of one cell. It embeds the
// *core.Pipeline, so the cluster still finds the pipeline's optional
// interfaces (AbsorptionGate, PlacementExplainer, AdaptiveStats,
// MasterAdmission) by promotion; a bare core.Policy wrapper would hide
// them and change decisions. Arrivals are placed once each, in trace
// order, so the k-th call places the cell's k-th request.
type placeTimer struct {
	*core.Pipeline
	log     *spanLog
	parent  int32
	reqBase int64
	calls   int64
	total   time.Duration
}

func (t *placeTimer) Place(req core.Request, master int, v *core.View) int {
	start := time.Now()
	node := t.Pipeline.Place(req, master, v)
	end := time.Now()
	t.total += end.Sub(start)
	t.log.add(layerPlace, t.reqBase+t.calls, t.parent, start, end)
	t.calls++
	return node
}

// simRep sums one repetition over every cell.
type simRep struct {
	speed   float64 // calibration kernel rate right after the replays
	reqs    int64
	shed    int64
	events  uint64
	wall    time.Duration
	allocs  uint64
	place   time.Duration
	placeN  int64
	results []*cluster.Result
}

func (r simRep) reqPerSec() float64 { return float64(r.reqs) / r.wall.Seconds() }

// scaledReqPerSec is reqPerSec at the reference machine's speed.
func (r simRep) scaledReqPerSec() float64 { return r.reqPerSec() * refSpeed / r.speed }

// runRep replays every cell once on fresh clusters. With traced set the
// policies are wrapped in placeTimers and spans go to log when it is
// non-nil; otherwise each Run's allocations are counted.
func runRep(cells []*fig4Cell, traced bool, log *spanLog) (simRep, error) {
	var rep simRep
	var ms runtime.MemStats
	for i, c := range cells {
		var timer *placeTimer
		if traced {
			// Place spans are kept for the first seed of each profile;
			// the Place time sums cover every cell.
			timer = &placeTimer{reqBase: c.reqBase}
			if i%fig4Seeds == 0 {
				timer.log = log
			}
		}
		// Start every replay from a collected heap, so the peak RSS does
		// not depend on when the collector last ran.
		runtime.GC()
		cl, err := newCellCluster(c, nil, timer)
		if err != nil {
			return rep, err
		}
		var mallocs uint64
		if !traced {
			runtime.ReadMemStats(&ms)
			mallocs = ms.Mallocs
		}
		start := time.Now()
		if timer != nil {
			timer.parent = log.begin(layerClusterRun, -1, -1, start)
		}
		res, err := cl.Run(c.tr)
		end := time.Now()
		if err != nil {
			return rep, fmt.Errorf("%s seed %d: %w", c.prof.Name, c.seed, err)
		}
		if timer != nil {
			log.finish(timer.parent, end)
			rep.place += timer.total
			rep.placeN += timer.calls
			if timer.calls != int64(len(c.tr.Requests)) {
				return rep, fmt.Errorf("%s seed %d: %d placements for %d requests", c.prof.Name, c.seed, timer.calls, len(c.tr.Requests))
			}
		} else {
			runtime.ReadMemStats(&ms)
			rep.allocs += ms.Mallocs - mallocs
		}
		rep.wall += end.Sub(start)
		rep.reqs += int64(len(c.tr.Requests))
		rep.shed += res.Shed
		rep.events += res.Events
		rep.results = append(rep.results, res)
	}
	rep.speed = machineSpeed(speedProbe)
	return rep, nil
}

func runSimFig4(rc runConfig) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	origin := time.Now()
	var log *spanLog
	if rc.traced {
		log = newSpanLog(origin)
		out.spans = log
	}

	// Set-up: trace generation, off-line w sampling and cluster
	// construction for every cell, timed simSetupReps times.
	cells, err := planFig4(rc.seed)
	if err != nil {
		return nil, err
	}
	var setups, gens []float64
	for rep := 0; rep < simSetupReps; rep++ {
		var slog *spanLog
		if rep == simSetupReps-1 {
			slog = log
		}
		// Collect the previous set-up's garbage outside the timed part, so
		// the peak RSS does not depend on when the collector last ran.
		for _, c := range cells {
			c.tr, c.wt = nil, nil
		}
		runtime.GC()
		var gen time.Duration
		start := time.Now()
		var base int64
		for _, c := range cells {
			t0 := time.Now()
			tr, err := trace.Generate(c.gen)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			wt := core.SampleW(tr, wSampleDepth)
			t2 := time.Now()
			c.tr, c.wt, c.reqBase = tr, wt, base
			base += int64(len(tr.Requests))
			if _, err := newCellCluster(c, nil, nil); err != nil {
				return nil, err
			}
			t3 := time.Now()
			gen += t1.Sub(t0)
			slog.add(layerTraceGenerate, -1, -1, t0, t1)
			slog.add(layerSampleW, -1, -1, t1, t2)
			slog.add(layerClusterNew, -1, -1, t2, t3)
		}
		setups = append(setups, time.Since(start).Seconds())
		gens = append(gens, gen.Seconds())
	}
	out.metrics["setup_s"] = median(setups)

	// Reference replay: outputs and output checks. Its sample hook keeps
	// every counted response time.
	samples := make([][]float64, len(cells))
	refs := make([]*cluster.Result, len(cells))
	var refReqs int64
	var refEvents uint64
	perProfile := map[string][2]float64{} // events, requests
	var nodeStats [3]uint64               // context switches, disk ops, page faults
	for i, c := range cells {
		runtime.GC()
		cl, err := newCellCluster(c, func(_ float64, s metrics.Sample) {
			samples[i] = append(samples[i], s.Response)
		}, nil)
		if err != nil {
			return nil, err
		}
		res, err := cl.Run(c.tr)
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", c.prof.Name, c.seed, err)
		}
		refs[i] = res
		cut := c.tr.Requests[0].Arrival + experiments.Default().Warmup*c.tr.Duration()
		c.counted = 0
		for _, r := range c.tr.Requests {
			if r.Arrival >= cut {
				c.counted++
			}
		}
		out.check(res.Summary.Count == c.counted, "%s seed %d: summarized %d requests, trace has %d after warm-up",
			c.prof.Name, c.seed, res.Summary.Count, c.counted)
		out.check(len(samples[i]) == c.counted, "%s seed %d: sample hook saw %d requests, trace has %d after warm-up",
			c.prof.Name, c.seed, len(samples[i]), c.counted)
		out.check(!math.IsNaN(res.StretchFactor) && !math.IsInf(res.StretchFactor, 0) && res.StretchFactor >= 1,
			"%s seed %d: stretch factor %v is not finite and >= 1", c.prof.Name, c.seed, res.StretchFactor)
		out.check(res.Shed == 0, "%s seed %d: %d requests shed", c.prof.Name, c.seed, res.Shed)
		n := int64(len(c.tr.Requests))
		refReqs += n
		refEvents += res.Events
		pp := perProfile[c.prof.Name]
		perProfile[c.prof.Name] = [2]float64{pp[0] + float64(res.Events), pp[1] + float64(n)}
		for _, st := range res.NodeStats {
			nodeStats[0] += st.ContextSwitches
			nodeStats[1] += st.DiskOps
			nodeStats[2] += st.PageFaults
		}
	}

	// sameAsRef checks that a timed repetition made the reference's
	// decisions: identical stretch factors and event counts.
	sameAsRef := func(rep simRep, what string) {
		for i, res := range rep.results {
			out.check(res.StretchFactor == refs[i].StretchFactor && res.Events == refs[i].Events,
				"%s replay of %s seed %d: stretch %v events %d, reference %v %d", what,
				cells[i].prof.Name, cells[i].seed, res.StretchFactor, res.Events, refs[i].StretchFactor, refs[i].Events)
		}
	}

	// Untraced timed phase.
	phase := rc.seconds
	if rc.traced {
		phase /= 2
	}
	var untraced []simRep
	cpu0, wall0 := cpuTime(), time.Now()
	deadline := wall0.Add(time.Duration(phase * float64(time.Second)))
	for len(untraced) < simMinReps || time.Now().Before(deadline) {
		rep, err := runRep(cells, false, nil)
		if err != nil {
			return nil, err
		}
		sameAsRef(rep, "untraced")
		rep.results = nil
		untraced = append(untraced, rep)
	}
	driverUtil := (cpuTime() - cpu0).Seconds() / time.Since(wall0).Seconds()

	var rates, rawRates, speeds []float64
	var uReqs int64
	var uEvents, uAllocs uint64
	var uWall time.Duration
	for _, r := range untraced {
		rates = append(rates, r.scaledReqPerSec())
		rawRates = append(rawRates, r.reqPerSec())
		speeds = append(speeds, r.speed)
		uReqs += r.reqs
		out.failed += r.shed
		uEvents += r.events
		uAllocs += r.allocs
		uWall += r.wall
	}
	out.attempted = uReqs
	reqS := median(rates)

	var all []float64
	for _, s := range samples {
		all = append(all, s...)
	}
	p50, p95, p99 := quantile(all, 0.50), quantile(all, 0.95), quantile(all, 0.99)
	out.metrics["req_s"] = reqS
	out.metrics["lat_p50_us"] = p50 * 1e6
	out.metrics["lat_p95_us"] = p95 * 1e6
	out.metrics["driver.lat_p99_us"] = p99 * 1e6
	out.metrics["ok_frac"] = 1 - float64(out.failed)/float64(out.attempted)

	stretch := 0.0
	for _, prof := range fig4Profiles {
		sum, k := 0.0, 0
		for i, c := range cells {
			if c.prof.Name == prof.Name {
				sum += refs[i].StretchFactor
				k++
			}
		}
		stretch += sum / float64(k) / float64(len(fig4Profiles))
	}
	fmt.Printf("# sim-fig4 cells=%d requests/rep=%d reps=%d stretch=%.6f events/req=%.4f latency samples=%d p50=%.1fus p95=%.1fus p99=%.1fus raw_req_s=%.0f machine_speed=%.1f\n",
		len(cells), refReqs, len(untraced), stretch, float64(refEvents)/float64(refReqs), len(all), p50*1e6, p95*1e6, p99*1e6,
		median(rawRates), median(speeds))

	if rc.traced {
		// Traced phase: every Place timed; spans kept for the first
		// repetition only, sums for all.
		var traced []simRep
		deadline := time.Now().Add(time.Duration(phase * float64(time.Second)))
		for len(traced) < simMinReps || time.Now().Before(deadline) {
			var l *spanLog
			if len(traced) == 0 {
				l = log
			}
			rep, err := runRep(cells, true, l)
			if err != nil {
				return nil, err
			}
			sameAsRef(rep, "traced")
			rep.results = nil
			traced = append(traced, rep)
		}
		var tRates []float64
		var place, tWall time.Duration
		var placeN int64
		for _, r := range traced {
			tRates = append(tRates, r.scaledReqPerSec())
			place += r.place
			placeN += r.placeN
			tWall += r.wall
			out.attempted += r.reqs
			out.failed += r.shed
		}
		m := out.metrics
		m["trace.gen_s"] = median(gens)
		m["sim.events_per_req"] = float64(refEvents) / float64(refReqs)
		m["sim.events_per_req_ksu"] = perProfile["KSU"][0] / perProfile["KSU"][1]
		m["sim.events_per_req_adl"] = perProfile["ADL"][0] / perProfile["ADL"][1]
		m["sim.ns_per_event"] = float64(uWall.Nanoseconds()) / float64(uEvents)
		m["sim.allocs_per_req"] = float64(uAllocs) / float64(uReqs)
		m["sim.stretch"] = stretch
		m["sim.raw_req_s"] = median(rawRates)
		m["driver.machine_speed"] = median(speeds)
		m["simos.ctx_switches_per_req"] = float64(nodeStats[0]) / float64(refReqs)
		m["simos.disk_ops_per_req"] = float64(nodeStats[1]) / float64(refReqs)
		m["simos.page_faults_per_req"] = float64(nodeStats[2]) / float64(refReqs)
		m["core.place_ns"] = float64(place.Nanoseconds()) / float64(placeN)
		m["core.place_share"] = place.Seconds() / tWall.Seconds()
		m["cluster.self_share"] = 1 - m["core.place_share"]
		m["driver.cpu_util"] = driverUtil
		m["driver.trace_overhead_frac"] = 1 - median(tRates)/reqS
		m["driver.lat_samples"] = float64(len(all))
		m["driver.fail_frac"] = float64(out.failed) / float64(out.attempted)
	}
	out.metrics["peak_rss_mb"] = peakRSSMB()
	return out, nil
}
