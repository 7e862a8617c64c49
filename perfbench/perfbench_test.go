package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"testing"

	"msweb/internal/obs"
)

// histogramPage exposes h as /metrics would and parses it back.
func histogramPage(t *testing.T, h *obs.Histogram) promPage {
	t.Helper()
	var b bytes.Buffer
	w := obs.NewPromWriter(&b)
	w.Histogram("x_seconds", "test", `node="0"`, h)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Write(b.Bytes())
	}))
	defer srv.Close()
	p, err := scrape(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBucketLowerMatchesHistogramLayout(t *testing.T) {
	h := obs.NewHistogram()
	for v := 2e-6; v < 10; v *= 1.01 {
		h.Observe(v)
	}
	bk := h.Buckets()
	for i := 1; i < len(bk)-1; i++ {
		if got, want := bucketLower(bk[i].UpperBound), bk[i-1].UpperBound; got != want {
			t.Fatalf("bucketLower(%g) = %g, want %g", bk[i].UpperBound, got, want)
		}
	}
}

func TestHistQuantileDelta(t *testing.T) {
	h := obs.NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(5e-3) // before the phase
	}
	before := histogramPage(t, h)
	var vals []float64
	for i := 1; i <= 10000; i++ {
		v := 1e-5 * float64(i)
		vals = append(vals, v)
		h.Observe(v)
	}
	after := histogramPage(t, h)
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.99} {
		got, want := histQuantile(before, after, "x_seconds", q), quantile(vals, q)
		if math.Abs(got-want) > want/8 {
			t.Errorf("q%.2f = %g, exact %g: off by more than a bucket", q, got, want)
		}
	}
}

func TestRoundTripReadsBodies(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("size"))
		if n == 0 {
			http.Error(rw, "shed", http.StatusServiceUnavailable)
			return
		}
		rw.Header().Set("Content-Length", strconv.Itoa(n))
		rw.Write(bytes.Repeat([]byte("x"), n))
	}))
	defer srv.Close()
	hc, err := dialHTTP(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	for _, tc := range []struct{ size, status, body int }{
		{3, 200, 3}, {5000, 200, 5000}, {0, 503, len("shed\n")}, {70000, 200, 70000},
	} {
		status, n, err := hc.roundTrip(getLine(srv.URL, "/req?size="+strconv.Itoa(tc.size)))
		if err != nil || status != tc.status || n != tc.body {
			t.Errorf("size %d: status %d body %d err %v, want %d %d", tc.size, status, n, err, tc.status, tc.body)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0.2: 1, 0.5: 3, 0.99: 5} {
		if got := quantile(append([]float64(nil), vals...), q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile32([]float32{1, 2, 3, 4}, 0.5); got != 2 {
		t.Errorf("quantile32 p50 = %v, want 2", got)
	}
}
