package httpcluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"msweb/internal/core"
	"msweb/internal/trace"
)

// firstSlave is a deterministic test policy: always the first live
// slave, falling back to the master. It removes the MS tie-break RNG
// from resilience tests so each asserts exactly one dispatch order.
type firstSlave struct{}

func (firstSlave) Name() string { return "first-slave" }
func (firstSlave) Place(_ core.Request, master int, v *core.View) int {
	if len(v.Slaves) > 0 {
		return v.Slaves[0]
	}
	return master
}
func (firstSlave) ObserveCompletion(trace.Class, float64, float64) {}
func (firstSlave) Tick(float64, *core.View)                        {}

// launchTestMaster wires an unbatched master over the given fake-slave
// URLs with polling effectively disabled, so only the request path
// drives breaker state.
func launchTestMaster(t *testing.T, rs Resilience, slaveURLs ...string) *Master {
	t.Helper()
	return launchFrameMaster(t, rs, 0, slaveURLs...)
}

func getStatus(t *testing.T, url string, header http.Header) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

// A client deadline tighter than a slow slave's service turns into a 502
// (exhausted), not an unbounded wait.
func TestClientDeadlineExhausts(t *testing.T) {
	slow := framePeer(func() (int, bool) {
		time.Sleep(300 * time.Millisecond)
		return http.StatusOK, false
	})
	defer slow.Close()

	m := launchTestMaster(t, Resilience{DisableShedding: true}, slow.URL)
	h := http.Header{}
	h.Set(TimeoutHeader, "50")
	resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", h)
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

// hijackClose kills the TCP connection before answering: on GET /frame
// the master's upgrade fails before any exec frame was written.
func hijackClose(w http.ResponseWriter, _ *http.Request) {
	conn, _, err := w.(http.Hijacker).Hijack()
	if err == nil {
		conn.Close()
	}
}

// An idempotent request retries across distinct slaves and ultimately
// falls back to local execution; a non-idempotent one must stop at the
// first ambiguous failure with 502.
func TestRetryDistinctNodesAndIdempotency(t *testing.T) {
	var hits1, hits2 atomic.Int64
	bad1 := framePeer(func() (int, bool) {
		hits1.Add(1)
		return 0, true
	})
	defer bad1.Close()
	bad2 := framePeer(func() (int, bool) {
		hits2.Add(1)
		return 0, true
	})
	defer bad2.Close()

	m := launchTestMaster(t, Resilience{DisableShedding: true}, bad1.URL, bad2.URL)
	resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via local fallback", resp.StatusCode)
	}
	if hits1.Load() != 1 || hits2.Load() != 1 {
		t.Fatalf("slave hits %d/%d, want one each (distinct-node retries)", hits1.Load(), hits2.Load())
	}
	if m.Failovers() != 2 {
		t.Fatalf("failovers=%d, want 2", m.Failovers())
	}

	// Non-idempotent: the dropped connection is ambiguous (the exec frame
	// reached the node), so no retry and no local rerun — a 502.
	m2 := launchTestMaster(t, Resilience{DisableShedding: true}, bad1.URL, bad2.URL)
	resp, _ = getStatus(t, m2.URL+"/req?class=d&demand=0&w=0.5&idem=0", nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 for ambiguous non-idempotent failure", resp.StatusCode)
	}
	if m2.Exhausted() != 1 {
		t.Fatalf("exhausted=%d, want 1", m2.Exhausted())
	}
}

// A connection upgrade that fails never carried the exec frame, so even
// a non-idempotent request is safe to retry: it moves on to the next
// slave and finally runs locally, and each failed upgrade still charges
// its node's breaker. Both ways a peer can fail the handshake count:
// dropping the connection and refusing the upgrade with an HTTP error.
func TestUpgradeFailureIsNotExecuted(t *testing.T) {
	refuse := func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "no frames here", http.StatusNotFound)
	}
	for name, fail := range map[string]http.HandlerFunc{"dropped": hijackClose, "refused": refuse} {
		var hits1, hits2 atomic.Int64
		peer := func(hits *atomic.Int64) *httptest.Server {
			return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				fail(w, r)
			}))
		}
		bad1, bad2 := peer(&hits1), peer(&hits2)
		defer bad1.Close()
		defer bad2.Close()

		m := launchTestMaster(t, Resilience{DisableShedding: true}, bad1.URL, bad2.URL)
		resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5&idem=0", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200 via local fallback after two failed upgrades", name, resp.StatusCode)
		}
		if hits1.Load() != 1 || hits2.Load() != 1 {
			t.Fatalf("%s: upgrade attempts %d/%d, want one per slave", name, hits1.Load(), hits2.Load())
		}
		if m.Failovers() != 2 || m.Exhausted() != 0 || m.Served() != 1 {
			t.Fatalf("%s: failovers=%d exhausted=%d served=%d, want 2/0/1", name, m.Failovers(), m.Exhausted(), m.Served())
		}
		for _, id := range []int{1, 2} {
			if m.BreakerState(id) != breakerOpen {
				t.Fatalf("%s: slave %d breaker state %d, want open after its failed upgrade", name, id, m.BreakerState(id))
			}
		}
	}
}

// A hedged request completes at the fast secondary while the slow
// primary is still sleeping.
func TestHedgeWinsTailLatency(t *testing.T) {
	slow := framePeer(func() (int, bool) {
		time.Sleep(400 * time.Millisecond)
		return http.StatusOK, false
	})
	defer slow.Close()
	fast := framePeer(func() (int, bool) { return http.StatusOK, false })
	defer fast.Close()

	m := launchTestMaster(t, Resilience{HedgeAfter: 30 * time.Millisecond, DisableShedding: true}, slow.URL, fast.URL)
	start := time.Now()
	resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if d := time.Since(start); d > 300*time.Millisecond {
		t.Fatalf("hedged request took %v; the hedge should beat the slow primary", d)
	}
	if m.Hedges() != 1 {
		t.Fatalf("hedges=%d, want 1", m.Hedges())
	}
	// Let the slow primary finish into the buffered channel before the
	// server shuts down.
	time.Sleep(450 * time.Millisecond)
}

// With every slave circuit-open and the θ₂ reservation denying master
// admission, dynamics are shed with 503 + Retry-After instead of
// silently overrunning the master tier.
func TestShedsWhenAllSlavesOpen(t *testing.T) {
	bad := frameKiller()
	defer bad.Close()

	m, err := LaunchMaster(NodeOptions{
		ID:          0,
		TimeScale:   1e-6,
		Masters:     []int{0},
		Slaves:      []int{1},
		NodeURLs:    []string{"", bad.URL},
		Policy:      core.NewMS(nil, 1),
		LoadRefresh: time.Hour,
		PolicyTick:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	// First dynamic: dispatch fails, breaker opens, local fallback serves.
	resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via fallback while the breaker is closed", resp.StatusCode)
	}
	if m.BreakerState(1) != breakerOpen {
		t.Fatalf("breaker state %d, want open after the failed dispatch", m.BreakerState(1))
	}

	// Now every slave is open. The fresh reservation admits no dynamics at
	// masters until the estimators move, so requests shed until some are
	// denied — drive a few and require at least one 503 with Retry-After.
	sawShed := false
	for i := 0; i < 5 && !sawShed; i++ {
		resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
		if resp.StatusCode == http.StatusServiceUnavailable {
			sawShed = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("shed response missing Retry-After")
			}
		}
	}
	if !sawShed {
		t.Fatal("no dynamic was shed with every slave circuit-open")
	}
	if m.Shed() == 0 {
		t.Fatal("shed counter did not move")
	}
	if m.Accepted() != m.Served()+m.Shed()+m.Exhausted() {
		t.Fatalf("accepted=%d served=%d shed=%d exhausted=%d: outcomes do not add up",
			m.Accepted(), m.Served(), m.Shed(), m.Exhausted())
	}

	// Statics keep flowing through the degraded master.
	resp, _ = getStatus(t, m.URL+"/req?class=s&demand=0&w=0.5", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("static got %d during degradation, want 200", resp.StatusCode)
	}
}

// MaxInflight bounds admission: with one token held by a slow static,
// a concurrent request is shed.
func TestMaxInflightSheds(t *testing.T) {
	m := launchTestMaster(t, Resilience{MaxInflight: 1, DisableShedding: true})
	// TimeScale is 1e-6, so a demand of 500_000 unscaled seconds holds the
	// inflight token for ~0.5 s of wall time — comfortably longer than a
	// loopback round trip even on a loaded host.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, _ := getStatus(t, m.URL+"/req?class=s&demand=500000&w=1", nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("long request got %d", resp.StatusCode)
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for m.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("long request never became inflight")
		}
		time.Sleep(time.Millisecond)
	}
	resp, _ := getStatus(t, m.URL+"/req?class=s&demand=0&w=0.5", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 above MaxInflight", resp.StatusCode)
	}
	<-done
	if m.Shed() != 1 || m.Served() != 1 {
		t.Fatalf("shed=%d served=%d, want 1/1", m.Shed(), m.Served())
	}
}

// Slaves shed before queueing at MaxQueue and refuse work whose
// propagated deadline already expired.
func TestNodeShedAndDeadline(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 1, TimeScale: 1e-6, Resilience: Resilience{MaxQueue: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()

	// Expired deadline → 504 without touching the resources.
	h := http.Header{}
	h.Set(DeadlineHeader, strconv.FormatInt(time.Now().Add(-time.Second).UnixNano(), 10))
	resp, _ := getStatus(t, n.URL+"/exec?demand=0&w=0.5", h)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 for an expired deadline", resp.StatusCode)
	}
	if n.DeadlineExpired() != 1 {
		t.Fatalf("deadlineExpired=%d, want 1", n.DeadlineExpired())
	}

	// Fill the queue with one long job, then a second /exec must shed.
	done := make(chan struct{})
	go func() {
		defer close(done)
		getStatus(t, n.URL+"/exec?demand=500000&w=1", nil)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for n.res.CPU.QueueLength() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("long job never occupied the CPU")
		}
		time.Sleep(time.Millisecond)
	}
	resp, _ = getStatus(t, n.URL+"/exec?demand=0&w=1", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 shed before queueing", resp.StatusCode)
	}
	if n.ExecShed() != 1 {
		t.Fatalf("execShed=%d, want 1", n.ExecShed())
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("node shed missing Retry-After")
	}
	<-done
}

// Retry backoff is bounded by the deadline: with a backoff window wider
// than the budget allows, the request exhausts quickly instead of
// sleeping past its deadline.
func TestBackoffRespectsDeadline(t *testing.T) {
	bad := framePeer(func() (int, bool) { return http.StatusInternalServerError, false })
	defer bad.Close()

	// A refusing (status-error) slave is always safe to retry, so the
	// budget alone would retry three times with up-to-4 s sleeps; the
	// 80 ms deadline must cut that short.
	m := launchTestMaster(t, Resilience{
		DisableShedding: true,
		RetryBackoff:    2 * time.Second,
		RetryBudget:     3,
	}, bad.URL)
	h := http.Header{}
	h.Set(TimeoutHeader, "80")
	start := time.Now()
	resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", h)
	elapsed := time.Since(start)
	// Full jitter may land under 80 ms and permit a local fallback run —
	// either terminal is legal, but the deadline must hold.
	if resp.StatusCode != http.StatusBadGateway && resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 502 or 200", resp.StatusCode)
	}
	if elapsed > time.Second {
		t.Fatalf("request held for %v; backoff ignored the deadline", elapsed)
	}
}
