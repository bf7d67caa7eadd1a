package serve

import (
	"context"
	"encoding/json"

	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"dscts/internal/core"
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
	got := familyNames(scrape(t, ts))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exported families changed:\n got %v\nwant %v", got, want)
	}
	if len(got) < 25 {
		t.Errorf("only %d families exported; the observability contract requires >= 25", len(got))
	}
}

// TestMetricsMatchStats cross-checks /metrics against /stats through
// CheckMetrics, after a mixed run and after a fault-injected one: same
// atomics, so every shared counter must agree exactly.
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
	if err := CheckMetrics(stats, m); err != nil {
		t.Error(err)
	}
	if stats.Jobs.RejectedLarge != 1 {
		t.Errorf("rejected_large = %d, want 1", stats.Jobs.RejectedLarge)
	}
	if stats.Jobs.Submitted != 3 {
		t.Errorf("submitted = %d, want 3 (the rejected submission must not count)", stats.Jobs.Submitted)
	}
	if m[`dscts_job_duration_seconds_count{cache="hit"}`] != 1 {
		t.Errorf("cache-hit duration count = %v, want 1", m[`dscts_job_duration_seconds_count{cache="hit"}`])
	}

	// The fault-injected run: a panic and an injected error fail two of
	// three jobs, so panics, failures, the panic ring and the fired-faults
	// sum are all nonzero when the two renderings are compared.
	fs, fclient, fts, _ := newMetricsServer(t, Config{MaxRunning: 1,
		Faults: mustFaults(t, "panic@serve.job:nth=1;error@core.route:nth=1", 1)})
	for _, design := range []string{"C1", "C2", "C3"} {
		fclient.Synthesize(ctx, &Request{Design: design}) // two of these fail by design
	}
	fst := fs.Queue().Stats()
	if fst.Jobs.Panics != 1 || fst.Jobs.Failed != 2 || fst.Jobs.Done != 1 || len(fst.Faults) != 2 {
		t.Fatalf("fault run: jobs %+v, faults %v; want 1 panic, 2 failed, 1 done, 2 fired points", fst.Jobs, fst.Faults)
	}
	if err := CheckMetrics(fst, scrape(t, fts)); err != nil {
		t.Error(err)
	}
}

// TestCheckMetricsNamesDrift: CheckMetrics fails on one counter off by one
// and on one missing sample, naming the sample either way.
func TestCheckMetricsNamesDrift(t *testing.T) {
	s, client, ts, _ := newMetricsServer(t, Config{MaxRunning: 1})
	if _, err := client.Synthesize(context.Background(), &Request{Design: "C1"}); err != nil {
		t.Fatal(err)
	}
	st := s.Queue().Stats()
	m := scrape(t, ts)
	if err := CheckMetrics(st, m); err != nil {
		t.Fatalf("unmodified scrape: %v", err)
	}
	for _, tc := range []struct {
		name, sample string
		mutate       func(m map[string]float64)
	}{
		{"counter off by one", "dscts_cache_misses_total", func(m map[string]float64) { m["dscts_cache_misses_total"]++ }},
		{"sample missing", `dscts_jobs_total{state="done"}`, func(m map[string]float64) { delete(m, `dscts_jobs_total{state="done"}`) }},
	} {
		cp := make(map[string]float64, len(m))
		for k, v := range m {
			cp[k] = v
		}
		tc.mutate(cp)
		err := CheckMetrics(st, cp)
		if err == nil || !strings.Contains(err.Error(), tc.sample) {
			t.Errorf("%s: got %v, want an error naming %s", tc.name, err, tc.sample)
		}
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

// TestResultPhases asserts the timing record's accounting: a synthesis
// result carries the engine's record, and the phase durations sum to
// approximately the job's engine-reported wall time (the flow is phases end
// to end; only inter-phase glue may fall in the gaps).
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
	seen := map[string]core.PhaseTotal{}
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

// TestDSEPhasesCountPoints: a DSE sweep reports each finished threshold as
// a point event, so the result's sweep row counts points and no spans, and
// the per-phase duration histogram gets no sweep series.
func TestDSEPhasesCountPoints(t *testing.T) {
	_, client, ts, _ := newMetricsServer(t, Config{MaxRunning: 1})
	thresholds := []int{8, 16, 32}
	info, err := client.DSE(context.Background(), &Request{Design: "C1", Thresholds: thresholds})
	if err != nil {
		t.Fatal(err)
	}
	if info.Result == nil {
		t.Fatalf("dse job carries no result: %+v", info)
	}
	var sweep []core.PhaseTotal
	for _, pt := range info.Result.Phases {
		if pt.Phase == "sweep" {
			sweep = append(sweep, pt)
		}
	}
	if want := (core.PhaseTotal{Phase: "sweep", Points: len(thresholds)}); len(sweep) != 1 || sweep[0] != want {
		t.Fatalf("sweep rows %+v, want [%+v] (phases %+v)", sweep, want, info.Result.Phases)
	}
	for name := range scrape(t, ts) {
		if strings.HasPrefix(name, "dscts_phase_duration_seconds") && strings.Contains(name, `phase="sweep"`) {
			t.Errorf("scrape has a sweep phase-duration series: %s", name)
		}
	}
}

// phaseRow returns the row of phase ph in a result's timing record.
func phaseRow(t *testing.T, res *Result, ph core.Phase) core.PhaseTotal {
	t.Helper()
	for _, p := range res.Phases {
		if p.Phase == string(ph) {
			return p
		}
	}
	t.Fatalf("no %s row in phases %+v", ph, res.Phases)
	return core.PhaseTotal{}
}

// TestPartitionedJobRecordsRegionPhases: a partitioned job's phases carry
// its regions' route, insert and refine spans, one per region, and the
// response has no per-phase *_ms fields. The job's route histogram series
// and the region counter read that record.
func TestPartitionedJobRecordsRegionPhases(t *testing.T) {
	_, _, ts, _ := newMetricsServer(t, Config{MaxRunning: 1, Workers: 2})
	req := &Request{Design: "C4", Options: OptionsSpec{PartitionMaxSinks: 300}}
	_, raw := postSyncRaw(t, ts.URL, "/synthesize", req)
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"route_ms", "insert_ms", "refine_ms", "corners_ms", "eco_ms"} {
		if _, ok := fields[k]; ok {
			t.Errorf("result carries %s", k)
		}
	}
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	regions := phaseRow(t, &res, core.PhasePartition).Points
	if regions != 4 {
		t.Fatalf("partition row has %d points, want 4 regions", regions)
	}
	for _, ph := range []core.Phase{core.PhaseRoute, core.PhaseInsert, core.PhaseRefine} {
		if got := phaseRow(t, &res, ph).Count; got != regions {
			t.Errorf("%s row counts %d spans, want one per region (%d)", ph, got, regions)
		}
	}
	m := scrape(t, ts)
	if got := m[`dscts_phase_duration_seconds_count{phase="route"}`]; got != 1 {
		t.Errorf("route duration count = %v, want 1 (one job)", got)
	}
	if got := m["dscts_regions_total"]; got != float64(regions) {
		t.Errorf("dscts_regions_total = %v, want %d", got, regions)
	}
}

// TestColdECORecordFoldsBase: a cold monolithic ECO job's record folds the
// base run's rows in by phase name, so its route row counts the base run
// and the one dirty leaf cluster, and its eco row one point per dirty
// scope. A cache hit replays the record unchanged.
func TestColdECORecordFoldsBase(t *testing.T) {
	_, client, _, _ := newMetricsServer(t, Config{MaxRunning: 1})
	req := &Request{Design: "C4", Delta: &DeltaSpec{Remove: []int{3}}}
	info, err := client.ECO(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res := info.Result
	if res == nil || res.ECO == nil || res.BaseCacheHit {
		t.Fatalf("want a cold eco result, got %+v", res)
	}
	if res.ECO.DirtyScopes != 1 {
		t.Fatalf("delta dirtied %d scopes, want 1", res.ECO.DirtyScopes)
	}
	if got := phaseRow(t, res, core.PhaseRoute).Count; got != 2 {
		t.Errorf("route row counts %d spans, want 2 (base run + dirty scope)", got)
	}
	if got := phaseRow(t, res, core.PhaseECO).Points; got != res.ECO.DirtyScopes {
		t.Errorf("eco row has %d points, want dirty_scopes %d", got, res.ECO.DirtyScopes)
	}
	again, err := client.ECO(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("repeat was not a cache hit")
	}
	if !reflect.DeepEqual(again.Result.Phases, res.Phases) {
		t.Errorf("cache hit changed the record:\n%+v\n%+v", again.Result.Phases, res.Phases)
	}
}

// TestFoldPhases: folding rows into a record adds up rows of the same
// phase and appends new phases in first-completion order, leaving the
// base record as it was.
func TestFoldPhases(t *testing.T) {
	base := []core.PhaseTotal{
		{Phase: "route", Count: 1, MS: 2},
		{Phase: "insert", Count: 1, MS: 3},
		{Phase: "eval", Count: 1, MS: 1},
	}
	kept := slices.Clone(base)
	rows := []core.PhaseTotal{
		{Phase: "route", Count: 2, MS: 0.5},
		{Phase: "eco", Count: 1, Points: 2, MS: 4},
		{Phase: "eval", Count: 1, MS: 0.25},
		{Phase: "corners", Count: 1, Points: 3, MS: 1},
	}
	want := []core.PhaseTotal{
		{Phase: "route", Count: 3, MS: 2.5},
		{Phase: "insert", Count: 1, MS: 3},
		{Phase: "eval", Count: 2, MS: 1.25},
		{Phase: "eco", Count: 1, Points: 2, MS: 4},
		{Phase: "corners", Count: 1, Points: 3, MS: 1},
	}
	if got := foldPhases(base, rows); !reflect.DeepEqual(got, want) {
		t.Fatalf("fold %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(base, kept) {
		t.Fatalf("fold modified its base: %+v", base)
	}
	if got := foldPhases(nil, nil); got != nil {
		t.Fatalf("empty fold %+v, want nil", got)
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
		t.Error("phases missing with metrics disabled (the record is the engine's)")
	}
}

// familyNames reduces a ParseText sample map to its distinct family names,
// sorted: the label section is dropped and the histogram series suffixes
// (_bucket, _sum, _count) collapse into their base family.
func familyNames(samples map[string]float64) []string {
	set := make(map[string]bool)
	for name := range samples {
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); base != name {
				name = base
				break
			}
		}
		set[name] = true
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
