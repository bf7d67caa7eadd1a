package serve

import (
	"context"

	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dscts/internal/obs"
)

// newMetricsServer is newTestServer with an observability registry wired in.
func newMetricsServer(t *testing.T, cfg Config) (*Server, *Client, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, NewClient(ts.URL), ts, reg
}

func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics content type %q", ct)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestMetricFamiliesGolden pins the exported metric set: adding a family is
// a deliberate act (update this list), renaming or dropping one is a
// breaking change for dashboards and must fail loudly here.
func TestMetricFamiliesGolden(t *testing.T) {
	_, client, ts, _ := newMetricsServer(t, Config{MaxRunning: 2})
	if _, err := client.Synthesize(context.Background(), &Request{Design: "C4"}); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	want := []string{
		"dscts_build_info",
		"dscts_cache_corruptions_total",
		"dscts_cache_encode_drops_total",
		"dscts_cache_entries",
		"dscts_cache_evictions_total",
		"dscts_cache_hits_total",
		"dscts_cache_misses_total",
		"dscts_eco_base_entries",
		"dscts_eco_base_hits_total",
		"dscts_eco_base_misses_total",
		"dscts_faults_injected_total",
		"dscts_http_request_duration_seconds",
		"dscts_http_requests_total",
		"dscts_idempotent_replays_total",
		"dscts_job_duration_seconds",
		"dscts_job_queue_wait_seconds",
		"dscts_jobs_abandoned_workers",
		"dscts_jobs_panics_total",
		"dscts_jobs_queue_capacity",
		"dscts_jobs_queue_depth",
		"dscts_jobs_rejected_total",
		"dscts_jobs_running",
		"dscts_jobs_submitted_total",
		"dscts_jobs_timeouts_total",
		"dscts_jobs_total",
		"dscts_jobs_watchdog_kills_total",
		"dscts_phase_duration_seconds",
		"dscts_qos_dispatched_total",
		"dscts_qos_jobs_total",
		"dscts_qos_pending",
		"dscts_qos_running",
		"dscts_qos_share",
		"dscts_readyz_checks_total",
		"dscts_regions_total",
		"dscts_store_dropped_total",
		"dscts_store_entries",
		"dscts_store_pending",
		"dscts_store_warm_loaded_total",
		"dscts_store_warm_skipped_total",
		"dscts_store_write_errors_total",
		"dscts_store_writes_total",
		"dscts_uptime_seconds",
		"dscts_worker_budget",
		"go_gc_cycles_total",
		"go_gc_pause_seconds_total",
		"go_gomaxprocs",
		"go_goroutines",
		"go_heap_alloc_bytes",
		"go_heap_objects",
		"go_heap_sys_bytes",
	}
	got := obs.FamilyNames(scrape(t, ts))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exported families changed:\n got %v\nwant %v", got, want)
	}
	if len(got) < 25 {
		t.Errorf("only %d families exported; the observability contract requires >= 25", len(got))
	}
}

// TestMetricsMatchStats cross-checks /metrics against /stats after a mixed
// run: same atomics, so every shared counter must agree exactly.
func TestMetricsMatchStats(t *testing.T) {
	s, client, ts, _ := newMetricsServer(t, Config{MaxRunning: 2, MaxJobSinks: 20_000})
	ctx := context.Background()
	if _, err := client.Synthesize(ctx, &Request{Design: "C4"}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Synthesize(ctx, &Request{Design: "C4"}); err != nil { // cache hit
		t.Fatal(err)
	}
	if _, err := client.Synthesize(ctx, &Request{Design: "C2", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	// One admission-control rejection (413: over the sink budget).
	if _, err := client.Synthesize(ctx, &Request{XLSinks: 100_000}); err == nil {
		t.Fatal("oversized request not rejected")
	}

	stats := s.Queue().Stats()
	m := scrape(t, ts)

	checks := map[string]float64{
		"dscts_jobs_submitted_total":                     float64(stats.Jobs.Submitted),
		`dscts_jobs_total{state="done"}`:                 float64(stats.Jobs.Done),
		`dscts_jobs_total{state="failed"}`:               float64(stats.Jobs.Failed),
		`dscts_jobs_total{state="cancelled"}`:            float64(stats.Jobs.Cancelled),
		`dscts_jobs_rejected_total{reason="too_large"}`:  float64(stats.Jobs.RejectedLarge),
		`dscts_jobs_rejected_total{reason="queue_full"}`: float64(stats.Jobs.RejectedFull),
		`dscts_jobs_rejected_total{reason="closed"}`:     float64(stats.Jobs.RejectedClosed),
		`dscts_jobs_rejected_total{reason="quota"}`:      float64(stats.Jobs.RejectedQuota),
		"dscts_cache_hits_total":                         float64(stats.Cache.Hits),
		"dscts_cache_misses_total":                       float64(stats.Cache.Misses),
		"dscts_jobs_panics_total":                        float64(stats.Jobs.Panics),
	}
	for name, want := range checks {
		if got := m[name]; got != want {
			t.Errorf("%s = %v, /stats says %v", name, got, want)
		}
	}
	if stats.Jobs.RejectedLarge != 1 {
		t.Errorf("rejected_large = %d, want 1", stats.Jobs.RejectedLarge)
	}
	if stats.Jobs.Rejected != stats.Jobs.RejectedFull+stats.Jobs.RejectedLarge+stats.Jobs.RejectedClosed+stats.Jobs.RejectedQuota {
		t.Errorf("rejected sum mismatch: %+v", stats.Jobs)
	}
	// The accounting identity: submitted counts ADMITTED jobs only, so the
	// terminal states plus the in-flight ones always sum back to it — a
	// rejection (the 413 above) must not leak into submitted.
	if got := stats.Jobs.Done + stats.Jobs.Failed + stats.Jobs.Cancelled +
		stats.Jobs.Queued + stats.Jobs.Running; got != stats.Jobs.Submitted {
		t.Errorf("accounting identity broken: done+failed+cancelled+queued+running = %d, submitted = %d",
			got, stats.Jobs.Submitted)
	}
	if stats.Jobs.Submitted != 3 {
		t.Errorf("submitted = %d, want 3 (the rejected submission must not count)", stats.Jobs.Submitted)
	}
	// Done-job latency observations must sum to the done counter.
	durCount := m[`dscts_job_duration_seconds_count{cache="hit"}`] + m[`dscts_job_duration_seconds_count{cache="miss"}`]
	if durCount != float64(stats.Jobs.Done) {
		t.Errorf("job_duration count %v != done %d", durCount, stats.Jobs.Done)
	}
	if m[`dscts_job_duration_seconds_count{cache="hit"}`] != 1 {
		t.Errorf("cache-hit duration count = %v, want 1", m[`dscts_job_duration_seconds_count{cache="hit"}`])
	}
}

// TestConcurrentScrapeUnderLoad hammers /metrics while jobs run; with -race
// this is the data-race gate for the scrape path against the hot path.
func TestConcurrentScrapeUnderLoad(t *testing.T) {
	_, client, ts, _ := newMetricsServer(t, Config{MaxRunning: 4, MaxQueued: 64})
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := client.Synthesize(ctx, &Request{Design: "C4", Seed: int64(1 + i%3)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := obs.ParseText(resp.Body); err != nil {
					t.Errorf("scrape %d unparseable: %v", k, err)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	m := scrape(t, ts)
	if m["dscts_jobs_submitted_total"] != 8 {
		t.Errorf("submitted = %v, want 8", m["dscts_jobs_submitted_total"])
	}
}

// TestResultPhases asserts the span tracer's accounting: a synthesis result
// carries its phase breakdown, and the phase durations sum to approximately
// the job's engine-reported wall time (the flow is phases end to end; only
// inter-phase glue may fall in the gaps).
func TestResultPhases(t *testing.T) {
	_, client, _, _ := newMetricsServer(t, Config{MaxRunning: 1})
	info, err := client.Synthesize(context.Background(), &Request{Design: "C3"})
	if err != nil {
		t.Fatal(err)
	}
	res := info.Result
	if res == nil || len(res.Phases) == 0 {
		t.Fatalf("result carries no phase breakdown: %+v", info)
	}
	seen := map[string]obs.PhaseTotal{}
	var sum float64
	for _, pt := range res.Phases {
		seen[pt.Phase] = pt
		sum += pt.MS
	}
	for _, ph := range []string{"route", "insert", "eval"} {
		if seen[ph].Count == 0 {
			t.Errorf("phase %q missing from breakdown %+v", ph, res.Phases)
		}
	}
	if sum > res.TotalMS*1.10+1 {
		t.Errorf("phase sum %.3fms exceeds job total %.3fms", sum, res.TotalMS)
	}
	if sum < res.TotalMS*0.5 {
		t.Errorf("phase sum %.3fms is under half the job total %.3fms — spans are dropping time", sum, res.TotalMS)
	}

	// A repeat is a cache hit and reports the producing run's breakdown.
	info2, err := client.Synthesize(context.Background(), &Request{Design: "C3"})
	if err != nil {
		t.Fatal(err)
	}
	if !info2.CacheHit {
		t.Error("repeat was not a cache hit")
	}
	if !reflect.DeepEqual(info2.Result.Phases, res.Phases) {
		t.Errorf("cache hit changed the phase breakdown:\n%+v\n%+v", info2.Result.Phases, res.Phases)
	}
}

// TestVersionEndpointAndStats covers the build-identity satellite: GET
// /version, the /stats uptime/version fields, and the result stamp.
func TestVersionEndpointAndStats(t *testing.T) {
	s, client, ts, _ := newMetricsServer(t, Config{})
	resp, err := http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "go_version") {
		t.Fatalf("GET /version: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("response carries no X-Request-ID")
	}
	stats := s.Queue().Stats()
	if stats.UptimeSeconds <= 0 || stats.Version == "" || stats.Revision == "" {
		t.Errorf("stats missing identity fields: %+v", stats)
	}
	info, err := client.Synthesize(context.Background(), &Request{Design: "C4"})
	if err != nil {
		t.Fatal(err)
	}
	if info.Result == nil || info.Result.Version == "" || info.Result.Revision == "" {
		t.Errorf("result missing build stamp: %+v", info.Result)
	}
}

// TestRequestIDInErrorBody: a client-supplied X-Request-ID is echoed in the
// header and the error body.
func TestRequestIDInErrorBody(t *testing.T) {
	_, _, ts, _ := newMetricsServer(t, Config{})
	req, _ := http.NewRequest("POST", ts.URL+"/synthesize", strings.NewReader("{not json"))
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-ID") != "trace-me-42" {
		t.Errorf("header X-Request-ID = %q", resp.Header.Get("X-Request-ID"))
	}
	if !strings.Contains(string(body), `"request_id":"trace-me-42"`) {
		t.Errorf("error body missing request_id: %s", body)
	}
}

// TestReadyzCounters: the distinct readiness outcomes land in distinct
// counters (satellite: saturated/draining were previously unobservable).
func TestReadyzCounters(t *testing.T) {
	s, _, ts, _ := newMetricsServer(t, Config{})
	get := func() int {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(); code != http.StatusOK {
		t.Fatalf("ready probe: %d", code)
	}
	s.Drain()
	if code := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("draining probe: %d", code)
	}
	m := scrape(t, ts)
	if m[`dscts_readyz_checks_total{state="ready"}`] != 1 {
		t.Errorf("ready checks = %v, want 1", m[`dscts_readyz_checks_total{state="ready"}`])
	}
	if m[`dscts_readyz_checks_total{state="draining"}`] != 1 {
		t.Errorf("draining checks = %v, want 1", m[`dscts_readyz_checks_total{state="draining"}`])
	}
}

// TestMetricsDisabled: with no registry the endpoints degrade cleanly —
// /metrics 404s, jobs still carry phases, nothing panics.
func TestMetricsDisabled(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics with metrics disabled: %d, want 404", resp.StatusCode)
	}
	info, err := NewClient(ts.URL).Synthesize(context.Background(), &Request{Design: "C4"})
	if err != nil {
		t.Fatal(err)
	}
	if info.Result == nil || len(info.Result.Phases) == 0 {
		t.Error("phases missing with metrics disabled (the tracer is always on)")
	}
}
