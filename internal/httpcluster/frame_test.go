package httpcluster

import (
	"bufio"
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"msweb/internal/core"
)

// launchFrameMaster wires a master (optionally batching) over the given
// slave URLs, polling disabled so only the request path drives transport
// and breaker state.
func launchFrameMaster(t *testing.T, rs Resilience, batch time.Duration, slaveURLs ...string) *Master {
	t.Helper()
	urls := append([]string{""}, slaveURLs...)
	slaves := make([]int, len(slaveURLs))
	for i := range slaves {
		slaves[i] = i + 1
	}
	m, err := LaunchMaster(NodeOptions{
		ID:          0,
		TimeScale:   1e-6,
		Masters:     []int{0},
		Slaves:      slaves,
		NodeURLs:    urls,
		Policy:      firstSlave{},
		LoadRefresh: time.Hour,
		PolicyTick:  time.Hour,
		Resilience:  rs,
		BatchWindow: batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	return m
}

// The codec must round-trip exec batches and responses exactly.
func TestFrameCodecRoundTrip(t *testing.T) {
	reqs := []frameExec{
		{demand: 0.25, w: 0.5, deadlineNs: 123456789, fork: true},
		{demand: 0, w: 1, deadlineNs: 0, fork: false},
		{demand: math.MaxFloat64, w: 0, deadlineNs: -1, fork: true},
	}
	b := appendExecFrame(nil, reqs)
	payload, _, err := readFrame(bufio.NewReader(bytes.NewReader(b)), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseExecPayload(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, got[i], reqs[i])
		}
	}

	sts := []int{200, 503, 504}
	load := core.Load{CPUIdle: 0.75, DiskAvail: 0.5, CPUQueue: 3, DiskQueue: 1, Speed: 1}
	sum := (&core.ShardSummary{Shard: 2, AtNs: 42, Nodes: 3, CPUIdle: 0.5}).AppendWire(nil)
	rb := appendRespFrame(nil, sts, load, sum)
	payload, _, err = readFrame(bufio.NewReader(bytes.NewReader(rb)), nil)
	if err != nil {
		t.Fatal(err)
	}
	gotSts, gotLoad, hasLoad, gotSum, err := parseRespPayload(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasLoad || gotLoad != load {
		t.Fatalf("load round trip: got %+v (hasLoad=%v) want %+v", gotLoad, hasLoad, load)
	}
	if !bytes.Equal(gotSum, sum) {
		t.Fatalf("summary round trip: got %q want %q", gotSum, sum)
	}
	for i := range sts {
		if gotSts[i] != sts[i] {
			t.Fatalf("status %d: got %d want %d", i, gotSts[i], sts[i])
		}
	}

	// Summary-less responses carry an explicit empty block…
	rb = appendRespFrame(nil, sts, load, nil)
	if _, _, _, gotSum, err = parseRespPayload(rb[4:], nil); err != nil || gotSum != nil {
		t.Fatalf("summary-less response: sum=%q err=%v", gotSum, err)
	}
	// …and responses from peers predating the block (ending right after
	// the load report) still parse.
	if _, _, hasLoad, gotSum, err = parseRespPayload(rb[4:len(rb)-1], nil); err != nil || !hasLoad || gotSum != nil {
		t.Fatalf("pre-extension response: hasLoad=%v sum=%q err=%v", hasLoad, gotSum, err)
	}
}

// The client-request ('Q') codec must round-trip batches exactly.
func TestReqFrameCodecRoundTrip(t *testing.T) {
	reqs := []frameReq{
		{demand: 0.25, w: 0.5, script: 7, timeoutMs: 1500, dynamic: true, idem: true},
		{demand: 0, w: 1, script: 0, timeoutMs: 0, dynamic: false, idem: false},
		{demand: 3, w: 0.9, script: 1 << 20, timeoutMs: 1, dynamic: true, idem: false},
	}
	b := appendReqFrame(nil, reqs)
	payload, _, err := readFrame(bufio.NewReader(bytes.NewReader(b)), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseReqPayload(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, got[i], reqs[i])
		}
	}
	// Kind confusion must fail loudly, not mis-decode.
	if _, err := parseExecPayload(payload, nil); err == nil {
		t.Fatal("exec parser accepted a 'Q' payload")
	}
	if _, err := parseReqPayload(appendExecFrame(nil, []frameExec{{w: 0.5}})[4:], nil); err == nil {
		t.Fatal("req parser accepted an 'E' payload")
	}
}

// A dynamic request over binary framing is executed by the slave's
// frame loop, and the response's piggybacked load lands in the
// master's freshness stamps.
func TestFrameTransportEndToEnd(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 1, TimeScale: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	m := launchFrameMaster(t, Resilience{DisableShedding: true}, 0, n.URL)

	for i := 0; i < 3; i++ {
		resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	if n.framesServed.Load() == 0 {
		t.Fatal("slave served no binary frames")
	}
	if m.frameDials.Load() == 0 {
		t.Fatal("master recorded no frame upgrades")
	}
	if m.piggyTotal.Load() == 0 {
		t.Fatal("no piggybacked load report arrived over the frame transport")
	}
	if m.fresh.Stamp(1) == 0 {
		t.Fatal("freshness stamp for the slave never touched")
	}
}

// An entry whose propagated deadline already passed is refused with 504
// by the slave's frame loop — deadline propagation is per entry, not
// per connection.
func TestFrameDeadlinePropagation(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 1, TimeScale: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	m := launchFrameMaster(t, Resilience{DisableShedding: true}, 0, n.URL)

	reqs := []frameExec{
		{demand: 0, w: 0.5, deadlineNs: time.Now().Add(-time.Second).UnixNano(), fork: true},
		{demand: 0, w: 0.5, deadlineNs: time.Now().Add(time.Minute).UnixNano(), fork: true},
	}
	sts, err := m.frames.exchange(1, reqs, nil, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	if sts[0] != http.StatusGatewayTimeout || sts[1] != http.StatusOK {
		t.Fatalf("statuses %v, want [504 200]", sts)
	}
	if n.DeadlineExpired() != 1 {
		t.Fatalf("slave deadline_expired=%d, want 1", n.DeadlineExpired())
	}
	if n.Executed() != 1 {
		t.Fatalf("slave executed=%d, want only the live entry", n.Executed())
	}
}

// A client deadline tighter than a slow slave's service turns into 502
// over the frame transport too (mirror of TestClientDeadlineExhausts).
func TestFrameClientDeadlineExhausts(t *testing.T) {
	// Calibrated slave: demand 0.3 really takes ~300 ms.
	n, err := LaunchNode(NodeOptions{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	m := launchFrameMaster(t, Resilience{DisableShedding: true}, 0, n.URL)

	h := http.Header{}
	h.Set(TimeoutHeader, "50")
	resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0.3&w=0.5&idem=0", h)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 for an expired deadline", resp.StatusCode)
	}
	if m.Exhausted() != 1 || m.Served() != 0 {
		t.Fatalf("exhausted=%d served=%d, want 1/0", m.Exhausted(), m.Served())
	}
	if m.Accepted() != m.Served()+m.Shed()+m.Exhausted() {
		t.Fatal("terminal outcomes do not add up to accepted")
	}
}

// framePeer is a fake slave on the frame transport: it accepts the
// /frame upgrade and answers every exec frame with serve's status for
// each entry, or — when serve reports drop — closes the connection after
// reading the frame: a slave that dies once the work may have started.
func framePeer(serve func() (status int, drop bool)) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/frame" {
			w.Write(okBody) //nolint:errcheck
			return
		}
		conn, brw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " +
			frameProtocol + "\r\n\r\n"); err != nil || brw.Flush() != nil {
			return
		}
		var buf, out []byte
		var reqs []frameExec
		var sts []int
		for {
			payload, nbuf, err := readFrame(brw.Reader, buf)
			buf = nbuf
			if err != nil {
				return
			}
			if reqs, err = parseExecPayload(payload, reqs[:0]); err != nil {
				return
			}
			status, drop := serve()
			if drop {
				return
			}
			sts = sts[:0]
			for range reqs {
				sts = append(sts, status)
			}
			out = appendRespFrame(out[:0], sts, core.Load{CPUIdle: 1, DiskAvail: 1, Speed: 1}, nil)
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}))
}

// frameKiller is a framePeer that drops every connection mid-exchange.
func frameKiller() *httptest.Server {
	return framePeer(func() (int, bool) { return 0, true })
}

// A frame transport failure fails over to a distinct node and feeds the
// failing node's breaker, mirroring the HTTP-path retry semantics.
func TestFrameRetryFailoverAndBreaker(t *testing.T) {
	bad := frameKiller()
	defer bad.Close()
	good, err := LaunchNode(NodeOptions{ID: 2, TimeScale: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Shutdown()

	m := launchFrameMaster(t, Resilience{DisableShedding: true}, 0, bad.URL, good.URL)
	resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 after failover", resp.StatusCode)
	}
	if m.Failovers() == 0 {
		t.Fatal("no failover recorded for the dead frame slave")
	}
	if good.framesServed.Load() == 0 {
		t.Fatal("failover target did not serve over the frame transport")
	}
	// FailureThreshold defaults to 1: the dead pair's breaker must be open.
	if m.BreakerState(1) != breakerOpen {
		t.Fatalf("bad slave breaker state %d, want open (%d)", m.BreakerState(1), breakerOpen)
	}
	if m.BreakerState(2) != breakerClosed {
		t.Fatalf("good slave breaker state %d, want closed (%d)", m.BreakerState(2), breakerClosed)
	}
}

// With a batch window, concurrent dynamics to one slave coalesce into
// shared frames and every caller still gets its own 200.
func TestBatchedDispatch(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 1, TimeScale: 1e-6, Uncalibrated: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	m := launchFrameMaster(t, Resilience{DisableShedding: true}, 2*time.Millisecond, n.URL)

	// Warm the pair so negotiation completes and batching engages.
	if resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status %d", resp.StatusCode)
	}

	const clients = 16
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			resp, err := http.Get(m.URL + "/req?class=d&demand=0&w=0.5")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = remoteStatusError(resp.StatusCode)
				}
			}
			errs <- err
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if m.batchesSent.Load() == 0 {
		t.Fatal("no coalesced frames shipped")
	}
	if m.batchedReqs.Load() < clients {
		t.Fatalf("batched %d requests, want at least %d", m.batchedReqs.Load(), clients)
	}
	if m.batchedReqs.Load() < m.batchesSent.Load() {
		t.Fatal("more batches than batched requests")
	}
	if n.Executed() != clients+1 {
		t.Fatalf("slave executed %d, want %d", n.Executed(), clients+1)
	}
}
