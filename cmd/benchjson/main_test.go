package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: msweb
cpu: Example CPU @ 2.00GHz
BenchmarkEngineScheduleFire-4   	12034518	        99.3 ns/op	       0 B/op	       0 allocs/op
BenchmarkParallelGrid/sequential-4         	       8	 140123456 ns/op
BenchmarkClusterSimulation-4    	      36	  31456789 ns/op	        13.02 events/req
PASS
ok  	msweb	12.3s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "msweb" {
		t.Fatalf("header mis-parsed: %+v", rep)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("%d results, want 3", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Name != "BenchmarkEngineScheduleFire" || r.Procs != 4 || r.Iterations != 12034518 {
		t.Fatalf("first result mis-parsed: %+v", r)
	}
	if r.Metrics["allocs/op"] != 0 || r.Metrics["ns/op"] != 99.3 {
		t.Fatalf("metrics mis-parsed: %+v", r.Metrics)
	}
	if rep.Results[1].Name != "BenchmarkParallelGrid/sequential" {
		t.Fatalf("sub-benchmark name mis-parsed: %+v", rep.Results[1])
	}
	if rep.Results[2].Metrics["events/req"] != 13.02 {
		t.Fatalf("custom metric lost: %+v", rep.Results[2].Metrics)
	}
}

func TestLiveResults(t *testing.T) {
	dir := t.TempDir()
	closed := filepath.Join(dir, "closed.json")
	open := filepath.Join(dir, "open.json")
	os.WriteFile(closed, []byte(`{
		"mode": "closed", "profile": "KSU", "sent": 100, "ok": 100, "errors": 0,
		"throughput_rps": 250.5,
		"latency": {"p50": 0.001, "p95": 0.004, "p99": 0.006, "mean": 0.002, "max": 0.01},
		"corrected": {"p50": 0.002, "p95": 0.005, "p99": 0.009, "mean": 0.003, "max": 0.01}
	}`), 0o644) //nolint:errcheck
	os.WriteFile(open, []byte(`{
		"mode": "open", "sent": 50, "ok": 50, "errors": 0,
		"throughput_rps": 480,
		"latency": {"p50": 0.001, "p95": 0.002, "p99": 0.003, "mean": 0.001, "max": 0.004}
	}`), 0o644) //nolint:errcheck

	rs, _, err := liveResults([]string{closed, open})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("%d results, want 2", len(rs))
	}
	c := rs[0]
	if c.Name != "LiveCluster/closed" || c.Iterations != 100 {
		t.Fatalf("closed result mis-folded: %+v", c)
	}
	if c.Metrics["throughput_rps"] != 250.5 || c.Metrics["latency_p99_s"] != 0.006 {
		t.Fatalf("closed metrics mis-folded: %+v", c.Metrics)
	}
	if c.Metrics["corrected_p99_s"] != 0.009 {
		t.Fatalf("corrected p99 lost: %+v", c.Metrics)
	}
	o := rs[1]
	if o.Name != "LiveCluster/open" {
		t.Fatalf("open result mis-folded: %+v", o)
	}
	if _, present := o.Metrics["corrected_p99_s"]; present {
		t.Fatal("open summary must not grow a corrected metric")
	}

	chaosPath := filepath.Join(dir, "chaos.json")
	os.WriteFile(chaosPath, []byte(`{
		"mode": "closed", "sent": 200, "ok": 190, "errors": 0, "shed": 6, "exhausted": 4,
		"throughput_rps": 300,
		"latency": {"p50": 0.001, "p95": 0.002, "p99": 0.003, "mean": 0.001, "max": 0.004},
		"chaos": {"seed": 7, "events": 12, "faulted_nodes": 3, "breaker_opens": 5, "failovers": 9, "retries": 11}
	}`), 0o644) //nolint:errcheck
	rs, _, err = liveResults([]string{chaosPath})
	if err != nil {
		t.Fatal(err)
	}
	ch := rs[0]
	if ch.Name != "LiveCluster/closed/chaos" {
		t.Fatalf("chaos run not named apart: %+v", ch)
	}
	if ch.Metrics["shed"] != 6 || ch.Metrics["exhausted"] != 4 ||
		ch.Metrics["chaos_breaker_opens"] != 5 || ch.Metrics["chaos_failovers"] != 9 {
		t.Fatalf("chaos metrics mis-folded: %+v", ch.Metrics)
	}

	fastPath := filepath.Join(dir, "fast.json")
	os.WriteFile(fastPath, []byte(`{
		"mode": "closed", "fast": true, "frame": true, "sent": 1000, "ok": 1000, "errors": 0,
		"throughput_rps": 23000, "cores": 1, "req_s_per_core": 23000,
		"latency": {"p50": 0.0003, "p95": 0.0007, "p99": 0.001, "mean": 0.0004, "max": 0.004}
	}`), 0o644) //nolint:errcheck
	rs, headline, err := liveResults([]string{fastPath})
	if err != nil {
		t.Fatal(err)
	}
	fr := rs[0]
	if fr.Name != "LiveCluster/closed/fast" {
		t.Fatalf("fast run not named apart: %+v", fr)
	}
	if fr.Metrics["req_s_per_core"] != 23000 || fr.Metrics["cores"] != 1 {
		t.Fatalf("fast metrics mis-folded: %+v", fr.Metrics)
	}
	// Summaries from before frames became the only dispatch hop still
	// carry "frame"; it no longer means anything and is not folded.
	if _, ok := fr.Metrics["frame"]; ok {
		t.Fatalf("obsolete frame flag folded as a metric: %+v", fr.Metrics)
	}
	if headline.perCore != 23000 {
		t.Fatalf("req_s_per_core headline %v, want 23000", headline.perCore)
	}
	if headline.aggregate != 23000 {
		t.Fatalf("req_s aggregate headline %v, want 23000", headline.aggregate)
	}

	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"not": "a summary"}`), 0o644) //nolint:errcheck
	if _, _, err := liveResults([]string{bad}); err == nil {
		t.Fatal("accepted a JSON file that is not a loadgen summary")
	}
	if _, _, err := liveResults([]string{filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("accepted a missing file")
	}
}

func TestScalingFold(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scaling.json")
	os.WriteFile(path, []byte(`{
		"mode": "closed", "fast": true, "frame_client": true,
		"sent": 800, "ok": 800, "errors": 0,
		"throughput_rps": 36000, "req_s": 36000, "cores": 2, "req_s_per_core": 18000,
		"latency": {"p99": 0.001},
		"scaling": [
			{"cores": 1, "ok": 400, "req_s": 20000, "req_s_per_core": 20000, "p99_s": 0.001},
			{"cores": 2, "ok": 400, "req_s": 36000, "req_s_per_core": 18000, "p99_s": 0.0012},
			{"cores": 4, "skipped": true, "reason": "needs 4 procs, machine has 2 CPUs"}
		]
	}`), 0o644) //nolint:errcheck
	rs, hl, err := liveResults([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Name != "LiveCluster/closed/fast/frameclient/scaling" {
		t.Fatalf("scaling run not named apart: %+v", rs[0])
	}
	if hl.aggregate != 36000 {
		t.Fatalf("aggregate headline %v, want 36000", hl.aggregate)
	}
	sr := hl.scaling
	if sr == nil || len(sr.Points) != 3 {
		t.Fatalf("scaling report mis-folded: %+v", sr)
	}
	if sr.PeakCores != 2 || sr.PeakReqS != 36000 {
		t.Fatalf("peak mis-located: %+v", sr)
	}
	// Speedup 36000/20000 = 1.8 at 2× cores → efficiency 0.9.
	if got := sr.Points[1].Speedup; got < 1.79 || got > 1.81 {
		t.Fatalf("speedup %v, want 1.8", got)
	}
	if got := sr.ParallelEfficiency; got < 0.89 || got > 0.91 {
		t.Fatalf("parallel efficiency %v, want 0.9", got)
	}
	if !sr.Points[2].Skipped || sr.Points[2].Reason == "" {
		t.Fatalf("skipped point not carried through: %+v", sr.Points[2])
	}

	// A sweep where every point was skipped (1-CPU box asked for 2,4)
	// yields no curve, and must not fabricate one.
	allSkipped := filepath.Join(dir, "skipped.json")
	os.WriteFile(allSkipped, []byte(`{
		"mode": "closed", "fast": true,
		"scaling": [{"cores": 2, "skipped": true, "reason": "x"}]
	}`), 0o644) //nolint:errcheck
	_, hl, err = liveResults([]string{allSkipped})
	if err != nil {
		t.Fatal(err)
	}
	if hl.scaling != nil {
		t.Fatalf("fabricated a curve from skipped points: %+v", hl.scaling)
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	if _, ok := parseLine("BenchmarkBroken"); ok {
		t.Fatal("accepted a line without an iteration count")
	}
	if _, ok := parseLine("BenchmarkBroken notanumber"); ok {
		t.Fatal("accepted a non-numeric iteration count")
	}
}

func TestTournamentResults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "policy-tournament.csv")
	os.WriteFile(path, []byte(
		"profile,rho,policy,mean_ms,p99_ms,stretch,cpu_util,shed_rate\n"+
			"UCB,0.5,M/S,12.5,80.25,2.1,0.44,0\n"+
			"UCB,0.5,Random,20,120,3.5,0.43,0.015\n"), 0o644) //nolint:errcheck
	rows, err := tournamentResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	r := rows[0]
	if r.Profile != "UCB" || r.Rho != 0.5 || r.Policy != "M/S" || r.MeanMs != 12.5 || r.P99Ms != 80.25 {
		t.Fatalf("first row mis-parsed: %+v", r)
	}
	if rows[1].ShedRate != 0.015 {
		t.Fatalf("shed_rate mis-parsed: %+v", rows[1])
	}

	bad := filepath.Join(dir, "bad.csv")
	os.WriteFile(bad, []byte("a,b\n1,2\n"), 0o644) //nolint:errcheck
	if _, err := tournamentResults(bad); err == nil {
		t.Fatal("accepted a CSV without tournament columns")
	}
	if _, err := tournamentResults(filepath.Join(dir, "missing.csv")); err == nil {
		t.Fatal("accepted a missing file")
	}
}

func TestAutoscaleResults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "autoscale-vs-fixed-fleet.csv")
	os.WriteFile(path, []byte(
		"workload,scenario,stretch,slo_attainment,node_hours,saved_pct,slave_offs,epochs\n"+
			"diurnal,fixed fleet,11.5,0.986,0.0646,0,0,0\n"+
			"diurnal,autoscaled,9.5,0.999,0.0514,20.5,29,33\n"), 0o644) //nolint:errcheck
	rows, err := autoscaleResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	r := rows[1]
	if r.Workload != "diurnal" || r.Scenario != "autoscaled" ||
		r.SavedPct != 20.5 || r.SLO != 0.999 || r.SlaveOffs != 29 || r.Epochs != 33 {
		t.Fatalf("autoscaled row mis-parsed: %+v", r)
	}

	bad := filepath.Join(dir, "bad.csv")
	os.WriteFile(bad, []byte("a,b\n1,2\n"), 0o644) //nolint:errcheck
	if _, err := autoscaleResults(bad); err == nil {
		t.Fatal("accepted a CSV without autoscale columns")
	}
	if _, err := autoscaleResults(filepath.Join(dir, "missing.csv")); err == nil {
		t.Fatal("accepted a missing file")
	}
}
