package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dscts/internal/core"
)

// TestSizeAdmissionControl checks the job-size budget: an oversized request
// is rejected with ErrTooLarge at the queue and HTTP 413 with a size
// estimate in the body — before any placement is materialized.
func TestSizeAdmissionControl(t *testing.T) {
	srv := NewServer(Config{MaxJobSinks: 10_000})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Queue-level: sentinel and size payload.
	_, err := srv.Queue().Submit(&Request{XLSinks: 1_000_000}, KindSynthesize)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized submit error = %v, want ErrTooLarge", err)
	}
	var sz *SizeError
	if !errors.As(err, &sz) || sz.EstimatedSinks != 1_000_000 || sz.MaxSinks != 10_000 {
		t.Fatalf("size error payload = %+v", sz)
	}

	// HTTP-level: 413 with the estimate in the body.
	resp, err := http.Post(ts.URL+"/synthesize", "application/json",
		strings.NewReader(`{"xl_sinks": 1000000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var body struct {
		Error          string `json:"error"`
		EstimatedSinks int    `json:"estimated_sinks"`
		MaxSinks       int    `json:"max_sinks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.EstimatedSinks != 1_000_000 || body.MaxSinks != 10_000 || body.Error == "" {
		t.Fatalf("413 body = %+v", body)
	}

	// A C2-sized named benchmark (14338 sinks) also exceeds the budget.
	if _, err := srv.Queue().Submit(&Request{Design: "C2"}, KindSynthesize); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("C2 submit error = %v, want ErrTooLarge", err)
	}
	// All three rejections (direct XL, HTTP XL, C2) are counted, and C4
	// still fits.
	if st := srv.Queue().Stats(); st.Jobs.Rejected != 3 || st.Jobs.MaxJobSinks != 10_000 {
		t.Fatalf("stats after rejections: %+v", st.Jobs)
	}
	if _, err := srv.Queue().Submit(&Request{Design: "C4"}, KindSynthesize); err != nil {
		t.Fatalf("C4 submit: %v", err)
	}
}

// TestBodyBoundedBeforeDecode: a request body larger than the sink budget
// allows is refused with 413 while it is still being read — no size
// estimate, since nothing was decoded — and counted as too large, not as a
// submission. Requests within the budget are unaffected.
func TestBodyBoundedBeforeDecode(t *testing.T) {
	const maxSinks = 5000 // admits C1 (4380 sinks)
	srv := NewServer(Config{MaxRunning: 1, Workers: 1, MaxJobSinks: maxSinks})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var body strings.Builder
	body.WriteString(`{"root":{"x":0,"y":0},"sinks":[`)
	for i := 0; body.Len() <= maxSinks*bodyBytesPerSink+bodyAllowance; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"x":%.10f,"y":%.10f}`, 1000+float64(i)/7, 2000+float64(i)/3)
	}
	body.WriteString(`]}`)
	resp, err := http.Post(ts.URL+"/synthesize", "application/json", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Error          string `json:"error"`
		EstimatedSinks int    `json:"estimated_sinks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || got.EstimatedSinks != 0 ||
		!strings.Contains(got.Error, "request body exceeds") {
		t.Fatalf("over-limit body: status %d, body %+v; want 413 from the body bound", resp.StatusCode, got)
	}
	if st := srv.Queue().Stats(); st.Jobs.RejectedLarge != 1 || st.Jobs.Submitted != 0 {
		t.Fatalf("stats after the over-limit body: %+v", st.Jobs)
	}

	client := NewClient(ts.URL)
	ctx := context.Background()
	for _, req := range []*Request{
		{Design: "C1"},
		{Root: &XY{0, 0}, Sinks: []XY{{10, 10}, {20, 5}}},
	} {
		info, err := client.Synthesize(ctx, req)
		if err != nil || info.State != StateDone {
			t.Fatalf("request within budget: %+v, %v", info, err)
		}
	}
}

// TestWorkersSizedByJob checks the size-aware budget split: ordinary jobs
// share the worker budget, mega-scale jobs get all of it.
func TestWorkersSizedByJob(t *testing.T) {
	q := NewQueue(Config{MaxRunning: 4, Workers: 8})
	t.Cleanup(q.Close)
	if w := q.workersFor(1000); w != 2 {
		t.Fatalf("small job workers = %d, want 2", w)
	}
	if w := q.workersFor(xlSoloSinks); w != 8 {
		t.Fatalf("XL job workers = %d, want the full budget 8", w)
	}
}

// TestPartitionOptionsInCacheKey checks that the partition options are part
// of the result identity: the same design with and without partitioning (or
// with different capacities/strategies) must never share a cache entry.
func TestPartitionOptionsInCacheKey(t *testing.T) {
	plain := &Request{Design: "C1"}
	part := &Request{Design: "C1", Options: OptionsSpec{PartitionMaxSinks: 2000}}
	smaller := &Request{Design: "C1", Options: OptionsSpec{PartitionMaxSinks: 1000}}
	grid := &Request{Design: "C1", Options: OptionsSpec{PartitionMaxSinks: 2000, PartitionStrategy: "grid"}}
	kd := &Request{Design: "C1", Options: OptionsSpec{PartitionMaxSinks: 2000, PartitionStrategy: "kd"}}
	keys := map[string]string{
		"plain":   plain.Key(KindSynthesize),
		"part":    part.Key(KindSynthesize),
		"smaller": smaller.Key(KindSynthesize),
		"grid":    grid.Key(KindSynthesize),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Fatalf("requests %q and %q share cache key %s", prev, name, k)
		}
		seen[k] = name
	}
	// The empty strategy canonicalizes to "kd": same entry.
	if kd.Key(KindSynthesize) != part.Key(KindSynthesize) {
		t.Fatal(`explicit "kd" and default strategy should share a cache entry`)
	}
}

// TestXLRequestValidation covers the xl_sinks request form.
func TestXLRequestValidation(t *testing.T) {
	bad := []*Request{
		{XLSinks: -5},
		{XLSinks: 1000, Design: "C1"},
		{XLSinks: 1000, Root: &XY{1, 1}, Sinks: []XY{{2, 2}}},
		{Design: "C1", Options: OptionsSpec{PartitionMaxSinks: -1}},
		{Design: "C1", Options: OptionsSpec{PartitionMaxSinks: 10, PartitionStrategy: "voronoi"}},
	}
	for i, r := range bad {
		if _, _, err := r.validate(KindSynthesize); err == nil {
			t.Errorf("bad request %d validated: %+v", i, r)
		}
	}
	design, sinks, err := (&Request{XLSinks: 250_000}).validate(KindSynthesize)
	if err != nil || design != "XL250000" || sinks != 250_000 {
		t.Fatalf("XL validate = %q, %d, %v", design, sinks, err)
	}
}

// TestPartitionedJobStreamsPhases runs a small partitioned synthesis through
// the service and checks that partition/stitch phase events reach the NDJSON
// stream and the result matches a direct library run bit-identically.
func TestPartitionedJobStreamsPhases(t *testing.T) {
	srv := NewServer(Config{MaxRunning: 2, Workers: 2})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL)

	req := &Request{Design: "C4", Options: OptionsSpec{PartitionMaxSinks: 300}}
	var phases []string
	last, err := client.Stream(context.Background(), KindSynthesize, req, func(ev Event) {
		if ev.Event == "phase" && ev.PhaseDone {
			phases = append(phases, ev.Phase)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.Event != string(StateDone) || last.Result == nil {
		t.Fatalf("terminal event %+v", last)
	}
	var sawPartition, sawStitch bool
	for _, ph := range phases {
		if ph == "partition" {
			sawPartition = true
		}
		if ph == "stitch" {
			sawStitch = true
		}
	}
	if !sawPartition || !sawStitch {
		t.Fatalf("phases %v missing partition/stitch", phases)
	}

	// Bit-identical to the direct library run.
	rv, err := req.resolve(KindSynthesize)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Synthesize(rv.root, rv.sinks, rv.tc, rv.opt)
	if err != nil {
		t.Fatal(err)
	}
	if last.Result.Metrics.Latency != direct.Metrics.Latency ||
		last.Result.Metrics.Skew != direct.Metrics.Skew ||
		last.Result.Metrics.Buffers != direct.Metrics.Buffers ||
		last.Result.Metrics.NTSVs != direct.Metrics.NTSVs {
		t.Fatalf("service result drifted from direct run:\nservice %+v\ndirect  %+v", last.Result.Metrics, direct.Metrics)
	}
}
