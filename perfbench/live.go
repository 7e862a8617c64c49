package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"msweb/internal/httpcluster"
	"msweb/internal/trace"
)

// liveWorkload is one closed-loop load on the live cluster.
type liveWorkload struct {
	profile trace.Profile
	// frames drives the master over 'Q' frames through one FrameClient
	// per connection; otherwise over raw HTTP/1.1 GET /req keep-alives.
	frames bool
}

var (
	frameADL = liveWorkload{profile: trace.ADL, frames: true}
	httpUCB  = liveWorkload{profile: trace.UCB, frames: false}
)

const (
	// livePool requests are generated and replayed cyclically.
	livePool = 1 << 16
	// liveMuH and liveR calibrate demands to the live nodes' capability
	// (110 static requests/s per node, 1/r = 40), as cmd/loadgen does.
	liveMuH = 110
	liveR   = 1.0 / 40
	// liveSetupReps set-ups are timed; setup_s is their median and the
	// last one's cluster is measured.
	liveSetupReps = 9
	liveWarmup    = 1500 * time.Millisecond
	// liveWindows splits a measured phase; req_s is the median window's.
	liveWindows = 10
	// probesPerSlave direct /exec calls per slave in a traced run.
	probesPerSlave = 500
	// stalenessEvery is the /metrics sampling period of the traced phase.
	stalenessEvery = 250 * time.Millisecond
	requestTimeout = 30 * time.Second
)

// requestPool is the generated load, pre-encoded for both transports.
type requestPool struct {
	frames []httpcluster.FrameRequest
	lines  []byte  // raw GET /req requests, back to back
	ends   []int32 // ends[i] is the end of request i in lines
	want   []int   // expected /req body length
}

func (p *requestPool) line(i int) []byte {
	start := int32(0)
	if i > 0 {
		start = p.ends[i-1]
	}
	return p.lines[start:p.ends[i]]
}

func buildPool(tr *trace.Trace, master string) *requestPool {
	p := &requestPool{}
	host := strings.TrimPrefix(master, "http://")
	for _, r := range tr.Requests {
		cls := "s"
		if r.Class == trace.Dynamic {
			cls = "d"
		}
		p.frames = append(p.frames, httpcluster.FrameRequest{
			Demand: r.Demand, W: r.CPUWeight, Script: r.Script, Dynamic: r.Class == trace.Dynamic,
		})
		p.lines = fmt.Appendf(p.lines,
			"GET /req?class=%s&demand=%g&w=%g&script=%d&size=%d HTTP/1.1\r\nHost: %s\r\n\r\n",
			cls, r.Demand, r.CPUWeight, r.Script, r.Size, host)
		p.ends = append(p.ends, int32(len(p.lines)))
		// The master writes size bytes, or a 3-byte "ok\n" outside (0, 8 MiB].
		want := 3
		if r.Size > 0 && r.Size <= 8<<20 {
			want = int(r.Size)
		}
		p.want = append(p.want, want)
	}
	return p
}

// worker is one client connection running a closed loop: it sends its
// next request only when the previous one has completed.
type worker struct {
	id     int
	stride int
	master string
	pool   *requestPool
	frames bool
	fc     *httpcluster.FrameClient
	hc     *httpConn
	next   int

	// per phase
	lat                        []float32          // seconds, every attempted request
	windows                    [liveWindows]int64 // OK completions per window
	ok, shed, exhausted, other int64
	badBody                    int64
	seq                        int64
	log                        *spanLog
	err                        error
}

func (w *worker) dial() error {
	if w.frames {
		fc, err := httpcluster.DialFrame(w.master, 5*time.Second)
		w.fc = fc
		return err
	}
	hc, err := dialHTTP(w.master)
	w.hc = hc
	return err
}

func (w *worker) close() {
	if w.fc != nil {
		w.fc.Close()
	}
	if w.hc != nil {
		w.hc.Close()
	}
}

// do sends pool request i and returns its status.
func (w *worker) do(i int, start time.Time) (int, error) {
	if w.frames {
		sts, err := w.fc.Do(w.pool.frames[i:i+1], start.Add(requestTimeout))
		if err != nil {
			return 0, err
		}
		return sts[0], nil
	}
	status, n, err := w.hc.roundTrip(w.pool.line(i))
	if err == nil && status == http.StatusOK && n != w.pool.want[i] {
		w.badBody++
	}
	return status, err
}

// layer is the span layer of the worker's requests.
func (w *worker) layer() uint8 {
	if w.frames {
		return layerFrameDo
	}
	return layerHTTPReq
}

// run drives the closed loop until the phase ends.
func (w *worker) run(phaseStart time.Time, d time.Duration) {
	layer := w.layer()
	until := phaseStart.Add(d)
	if w.hc != nil {
		w.hc.c.SetDeadline(until.Add(requestTimeout)) //nolint:errcheck // a missed deadline surfaces as a read error
	}
	for {
		start := time.Now()
		if !start.Before(until) {
			return
		}
		i := w.next
		w.next = (w.next + w.stride) % len(w.pool.want)
		status, err := w.do(i, start)
		end := time.Now()
		w.lat = append(w.lat, float32(end.Sub(start).Seconds()))
		w.log.add(layer, w.seq*int64(w.stride)+int64(w.id), -1, start, end)
		w.seq++
		switch {
		case err != nil:
			// A broken connection is redialed; the request counts as failed.
			w.other++
			w.close()
			if w.err = w.dial(); w.err != nil {
				return
			}
		case status == http.StatusOK:
			w.ok++
			w.windows[min(int(end.Sub(phaseStart)*liveWindows/d), liveWindows-1)]++
		case status == http.StatusServiceUnavailable:
			w.shed++
		case status == http.StatusBadGateway:
			w.exhausted++
		default:
			w.other++
		}
	}
}

// phase is one closed-loop measurement over every worker.
type phase struct {
	wall                            time.Duration
	attempted, ok, shed, exh, other int64
	badBody                         int64
	lat                             []float32
	reqS                            float64
	driverCPU                       time.Duration
	before, after                   []promPage // master first, then slaves
	childBefore, childAfter         childStats
	staleness                       []float64
	outcomesAddUp                   bool
}

// runPhase runs every worker for d. With measure set it scrapes every
// node's /metrics and the child's stats around the phase; with logs it
// records spans and samples the master's view staleness meanwhile.
func runPhase(cp *clusterProc, ws []*worker, d time.Duration, measure bool, logs []*spanLog) (*phase, error) {
	ph := &phase{}
	var err error
	if measure {
		if ph.before, err = scrapeAll(cp); err != nil {
			return nil, err
		}
		if ph.childBefore, err = cp.stats(); err != nil {
			return nil, err
		}
	}
	for i, w := range ws {
		w.lat, w.windows = w.lat[:0], [liveWindows]int64{}
		w.ok, w.shed, w.exhausted, w.other, w.badBody = 0, 0, 0, 0, 0
		w.log = nil
		if logs != nil {
			w.log = logs[i]
		}
	}
	stopSampling := make(chan struct{})
	var sampler sync.WaitGroup
	if logs != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			ph.staleness = sampleStaleness(cp, stopSampling)
		}()
	}
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(start, d)
		}(w)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.driverCPU = cpuTime() - cpu0
	close(stopSampling)
	sampler.Wait()

	windows := make([]float64, liveWindows)
	ph.outcomesAddUp = true
	for _, w := range ws {
		if w.err != nil {
			return nil, fmt.Errorf("connection %d: %w", w.id, w.err)
		}
		n := int64(len(w.lat))
		ph.attempted += n
		ph.ok += w.ok
		ph.shed += w.shed
		ph.exh += w.exhausted
		ph.other += w.other
		ph.badBody += w.badBody
		ph.lat = append(ph.lat, w.lat...)
		var inWindows int64
		for k, c := range w.windows {
			windows[k] += float64(c)
			inWindows += c
		}
		if w.ok+w.shed+w.exhausted+w.other != n || inWindows != w.ok {
			ph.outcomesAddUp = false
		}
	}
	slices.Sort(ph.lat)
	for k := range windows {
		windows[k] /= d.Seconds() / liveWindows
	}
	ph.reqS = median(windows)
	if measure {
		if ph.childAfter, err = cp.stats(); err != nil {
			return nil, err
		}
		if ph.after, err = scrapeAll(cp); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

func scrapeAll(cp *clusterProc) ([]promPage, error) {
	var pages []promPage
	for _, base := range append([]string{cp.master}, cp.slaves...) {
		p, err := scrape(base)
		if err != nil {
			return nil, err
		}
		pages = append(pages, p)
	}
	return pages, nil
}

// sampleStaleness scrapes the master every stalenessEvery until stop
// closes and returns the sampled ages of its load view of each slave.
func sampleStaleness(cp *clusterProc, stop chan struct{}) []float64 {
	var ages []float64
	t := time.NewTicker(stalenessEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return ages
		case <-t.C:
			p, err := scrape(cp.master)
			if err != nil {
				continue
			}
			for id := liveMasters; id < liveNodes; id++ {
				if age, ok := p[fmt.Sprintf(`msweb_master_view_staleness_seconds{node="%d"}`, id)]; ok && age >= 0 {
					ages = append(ages, age)
				}
			}
		}
	}
}

// deltas are the /metrics counter changes over one phase.
type deltas struct {
	accepted, served, shed, exhausted      float64
	retries, failovers, piggyback, skipped float64
	slaveExec                              float64
}

func phaseDeltas(ph *phase) deltas {
	b, a := ph.before[0], ph.after[0]
	d := func(name string) float64 { return a.sum(name) - b.sum(name) }
	out := deltas{
		accepted:  d("msweb_master_accepted_total"),
		served:    d("msweb_master_response_seconds_count"),
		shed:      d("msweb_master_shed_total"),
		exhausted: d("msweb_master_exhausted_total"),
		retries:   d("msweb_master_retries_total"),
		failovers: d("msweb_master_failovers_total"),
		piggyback: d("msweb_master_piggyback_total"),
		skipped:   d("msweb_master_poll_skipped_total"),
	}
	for i := 1; i < len(ph.after); i++ {
		out.slaveExec += ph.after[i].sum("msweb_node_executed_total") - ph.before[i].sum("msweb_node_executed_total")
	}
	return out
}

// checkPhase applies the live output checks to one measured phase.
func checkPhase(out *outcome, name string, ph *phase, wl liveWorkload) deltas {
	d := phaseDeltas(ph)
	out.check(ph.outcomesAddUp, "%s: client outcomes do not add up to the requests attempted", name)
	out.check(d.accepted == d.served+d.shed+d.exhausted, "%s: accepted %v != served %v + shed %v + exhausted %v",
		name, d.accepted, d.served, d.shed, d.exhausted)
	out.check(d.served == float64(ph.ok), "%s: master served %v, client saw %d OK", name, d.served, ph.ok)
	out.check(d.accepted == float64(ph.attempted-ph.other), "%s: master accepted %v, client attempted %d (%d transport or other failures)",
		name, d.accepted, ph.attempted, ph.other)
	if !wl.frames {
		out.check(ph.badBody == 0, "%s: %d /req bodies differ from the requested size", name, ph.badBody)
	}
	return d
}

func runLive(rc runConfig, wl liveWorkload) (out *outcome, err error) {
	out = &outcome{metrics: map[string]float64{}}
	nconn := rc.host.nproc
	origin := time.Now()

	// Set-up: generate the load, start the cluster child, dial every
	// connection and complete one request, liveSetupReps times.
	var cp *clusterProc
	var ws []*worker
	teardown := func() {
		for _, w := range ws {
			w.close()
		}
		ws = nil
	}
	defer func() {
		teardown()
		if cp != nil {
			cp.kill()
		}
	}()
	var setups, gens []float64
	var setupSpans *spanLog
	var pool *requestPool
	for rep := 0; rep < liveSetupReps; rep++ {
		if cp != nil {
			teardown()
			if _, err := cp.stop(); err != nil {
				return nil, err
			}
			cp = nil
		}
		// Collect the previous set-up's garbage outside the timed part, so
		// the peak RSS does not depend on when the collector last ran.
		pool = nil
		runtime.GC()
		var slog *spanLog
		if rc.traced && rep == liveSetupReps-1 {
			slog = newSpanLog(origin)
			setupSpans = slog
		}
		start := time.Now()
		tr, err := trace.Generate(trace.GenConfig{
			Profile: wl.profile, Lambda: 100, Requests: livePool,
			MuH: liveMuH, R: liveR, Seed: rc.seed,
		})
		if err != nil {
			return nil, err
		}
		genEnd := time.Now()
		slog.add(layerTraceGenerate, -1, -1, start, genEnd)
		if cp, err = startCluster(rc.host); err != nil {
			return nil, err
		}
		booted := time.Now()
		slog.add(layerClusterStart, -1, -1, genEnd, booted)
		pool = buildPool(tr, cp.master)
		for i := 0; i < nconn; i++ {
			w := &worker{id: i, stride: nconn, master: cp.master, pool: pool, frames: wl.frames, next: i}
			ws = append(ws, w)
			if err := w.dial(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		status, err := ws[0].do(0, t0)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("first request: status %d, %v", status, err)
		}
		ws[0].next += nconn
		end := time.Now()
		slog.add(ws[0].layer(), -1, -1, t0, end)
		setups = append(setups, end.Sub(start).Seconds())
		gens = append(gens, genEnd.Sub(start).Seconds())
	}
	out.metrics["setup_s"] = median(setups)

	if _, err := runPhase(cp, ws, liveWarmup, false, nil); err != nil {
		return nil, err
	}

	measured := time.Duration(rc.seconds * float64(time.Second))
	if rc.traced {
		measured /= 2
	}
	ph, err := runPhase(cp, ws, measured, true, nil)
	if err != nil {
		return nil, err
	}
	checkPhase(out, "untraced phase", ph, wl)
	out.attempted, out.failed = ph.attempted, ph.attempted-ph.ok
	p50, p95, p99 := quantile32(ph.lat, 0.50), quantile32(ph.lat, 0.95), quantile32(ph.lat, 0.99)
	out.metrics["req_s"] = ph.reqS
	out.metrics["lat_p50_us"] = p50 * 1e6
	out.metrics["lat_p95_us"] = p95 * 1e6
	out.metrics["driver.lat_p99_us"] = p99 * 1e6
	fmt.Printf("# %s latency samples=%d p50=%.1fus p95=%.1fus p99=%.1fus req_s=%.0f ok=%d shed=%d exhausted=%d other=%d\n",
		wl.profile.Name, len(ph.lat), p50*1e6, p95*1e6, p99*1e6, ph.reqS, ph.ok, ph.shed, ph.exh, ph.other)

	if rc.traced {
		logs := make([]*spanLog, len(ws))
		for i := range logs {
			logs[i] = newSpanLog(origin)
		}
		tph, err := runPhase(cp, ws, measured, true, logs)
		if err != nil {
			return nil, err
		}
		d := checkPhase(out, "traced phase", tph, wl)
		out.attempted += tph.attempted
		out.failed += tph.attempted - tph.ok

		log := setupSpans
		for _, l := range logs {
			log.merge(l)
		}
		probe, err := probeSlaves(cp, pool, log)
		if err != nil {
			return nil, err
		}
		out.check(probe.bad == 0, "%d of %d /exec probes failed", probe.bad, probe.n)
		out.spans = log
		layerMetrics(out.metrics, rc.host, tph, d, probe.p50)
		out.metrics["trace.gen_s"] = median(gens)
		out.metrics["driver.trace_overhead_frac"] = 1 - tph.reqS/ph.reqS
		out.metrics["driver.machine_speed"] = machineSpeed(speedProbe)
		out.metrics["driver.fail_frac"] = float64(out.failed) / float64(out.attempted)
	}

	teardown()
	child, err := cp.stop()
	cp = nil
	if err != nil {
		return nil, err
	}
	fmt.Printf("# cluster child: %d mallocs, %d bytes allocated since start-up; peak rss %.1f MB, driver %.1f MB\n",
		child.mallocs, child.allocBytes, child.peakRSSMB, peakRSSMB())
	out.metrics["ok_frac"] = 1 - float64(out.failed)/float64(out.attempted)
	out.metrics["peak_rss_mb"] = peakRSSMB() + child.peakRSSMB
	return out, nil
}

// layerMetrics fills the per-layer metrics of a traced phase.
func layerMetrics(m map[string]float64, h *host, ph *phase, d deltas, probeP50 float64) {
	wall := ph.wall.Seconds()
	clusterCPU := (ph.childAfter.cpu - ph.childBefore.cpu).Seconds()
	clusterCores, driverCores := float64(h.nproc), float64(h.nproc)
	if h.pinned {
		clusterCores = float64(len(strings.Split(h.clusterCPUs, ",")))
		driverCores = 1
	}
	const resp = "msweb_master_response_seconds"
	masterP50 := histQuantile(ph.before[0], ph.after[0], resp, 0.50)
	clientP50 := quantile32(ph.lat, 0.50)
	m["httpcluster.cpu_us_per_req"] = clusterCPU * 1e6 / d.served
	m["httpcluster.cpu_util"] = clusterCPU / wall / clusterCores
	m["httpcluster.allocs_per_req"] = float64(ph.childAfter.mallocs-ph.childBefore.mallocs) / d.served
	m["httpcluster.master_resp_p50_us"] = masterP50 * 1e6
	m["httpcluster.master_resp_p99_us"] = histQuantile(ph.before[0], ph.after[0], resp, 0.99) * 1e6
	m["httpcluster.wire_p50_us"] = (clientP50 - masterP50) * 1e6
	m["httpcluster.remote_frac"] = d.slaveExec / d.accepted
	m["httpcluster.exec_probe_p50_us"] = probeP50 * 1e6
	m["httpcluster.retries_per_kreq"] = d.retries * 1000 / d.accepted
	m["httpcluster.failovers"] = d.failovers
	m["httpcluster.shed"] = d.shed
	m["httpcluster.piggyback_per_dispatch"] = 0
	if d.slaveExec > 0 {
		m["httpcluster.piggyback_per_dispatch"] = d.piggyback / d.slaveExec
	}
	// Poll opportunities: one per node of the master's poll set per
	// refresh period (httpcluster.DefaultConfig's 100 ms).
	const refresh = 100 * time.Millisecond
	m["httpcluster.poll_skipped_frac"] = d.skipped / (ph.wall.Seconds() / refresh.Seconds() * liveNodes)
	if len(ph.staleness) > 0 {
		m["httpcluster.view_staleness_ms"] = median(ph.staleness) * 1e3
	}
	m["driver.cpu_util"] = ph.driverCPU.Seconds() / wall / driverCores
	m["driver.lat_samples"] = float64(len(ph.lat))
}

type probeResult struct {
	n, bad int
	p50    float64
}

// probeSlaves times direct /exec calls on every slave with the pool's
// dynamic demands. It runs after the last scrape, so it does not enter
// the phase's counters.
func probeSlaves(cp *clusterProc, pool *requestPool, log *spanLog) (probeResult, error) {
	var res probeResult
	var lat []float64
	for _, base := range cp.slaves {
		hc, err := dialHTTP(base)
		if err != nil {
			return res, err
		}
		hc.c.SetDeadline(time.Now().Add(requestTimeout)) //nolint:errcheck // a missed deadline surfaces as a read error
		for k, i := 0, 0; k < probesPerSlave; i++ {
			if f := pool.frames[i%livePool]; f.Dynamic {
				req := getLine(base, fmt.Sprintf("/exec?demand=%g&w=%g&fork=1", f.Demand, f.W))
				start := time.Now()
				status, n, err := hc.roundTrip(req)
				end := time.Now()
				log.add(layerHTTPExec, -1, -1, start, end)
				res.n++
				if err != nil || status != http.StatusOK || n != 3 {
					res.bad++
				}
				lat = append(lat, end.Sub(start).Seconds())
				k++
			}
		}
		hc.Close()
	}
	res.p50 = quantile(lat, 0.5)
	if math.IsNaN(res.p50) {
		res.p50 = 0
	}
	return res, nil
}
