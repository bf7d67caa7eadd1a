package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"dscts/internal/bench"
	"dscts/internal/core"
	"dscts/internal/dse"
	"dscts/internal/fault"
	"dscts/internal/tech"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, NewClient(ts.URL)
}

// directMetrics runs the library directly with the options the service
// derives from req, as the reference for bit-identical comparison.
func directMetrics(t *testing.T, req *Request, kind string) *resolved {
	t.Helper()
	rv, err := req.resolve(kind)
	if err != nil {
		t.Fatal(err)
	}
	return rv
}

func requireSameMetrics(t *testing.T, label string, got *Result, req *Request) {
	t.Helper()
	rv := directMetrics(t, req, KindSynthesize)
	want, err := core.Synthesize(rv.root, rv.sinks, rv.tc, rv.opt)
	if err != nil {
		t.Fatalf("%s: direct synthesis: %v", label, err)
	}
	wm, gm := want.Metrics, got.Metrics
	if gm == nil {
		t.Fatalf("%s: no metrics in service result", label)
	}
	if gm.Latency != wm.Latency || gm.Skew != wm.Skew || gm.Buffers != wm.Buffers ||
		gm.NTSVs != wm.NTSVs || gm.WL != wm.WL {
		t.Fatalf("%s: service metrics differ from direct synthesis:\nservice %+v\ndirect  %+v", label, gm, wm)
	}
	if len(gm.SinkDelays) != len(wm.SinkDelays) {
		t.Fatalf("%s: sink delay count %d != %d", label, len(gm.SinkDelays), len(wm.SinkDelays))
	}
	for idx, d := range wm.SinkDelays {
		if gd, ok := gm.SinkDelays[idx]; !ok || gd != d {
			t.Fatalf("%s: sink %d delay %v != %v", label, idx, gm.SinkDelays[idx], d)
		}
	}
}

// TestConcurrentJobsBitIdentical serves 8 concurrent synthesis jobs over
// HTTP and checks every result — down to each per-sink delay, after a JSON
// round trip — against a direct library call. This is the service's core
// guarantee: scheduling and worker budgets never change results.
func TestConcurrentJobsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent end-to-end run")
	}
	_, client := newTestServer(t, Config{MaxRunning: 8, MaxQueued: 32})
	reqs := make([]*Request, 8)
	for i := range reqs {
		design := "C4"
		if i%2 == 1 {
			design = "C5"
		}
		reqs[i] = &Request{
			Design: design, Seed: int64(1 + i/4),
			Options:           OptionsSpec{FanoutThreshold: []int{0, 120}[i%2]},
			IncludeSinkDelays: true,
		}
	}
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			info, err := client.Synthesize(context.Background(), req)
			if err != nil {
				errs[i] = err
				return
			}
			if info.State != StateDone {
				errs[i] = fmt.Errorf("job %s state %s (%s)", info.ID, info.State, info.Error)
				return
			}
			results[i] = info.Result
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		requireSameMetrics(t, fmt.Sprintf("job %d (%s)", i, reqs[i].Design), results[i], reqs[i])
	}
}

// TestCacheHitOnRepeat submits the identical request twice and checks the
// second is answered from the cache — visible both on the job (cache_hit)
// and in the /stats counters — with an identical result. A request
// differing only in scheduling-irrelevant fields shares the entry.
func TestCacheHitOnRepeat(t *testing.T) {
	_, client := newTestServer(t, Config{MaxRunning: 2, MaxQueued: 8})
	req := &Request{Design: "C4", IncludeSinkDelays: true}

	first, err := client.Synthesize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 0 || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
		t.Fatalf("after first request: %+v", st.Cache)
	}

	second, err := client.Synthesize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("repeated identical request was not a cache hit")
	}
	st, err = client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("after repeat: %+v", st.Cache)
	}
	fm, sm := first.Result.Metrics, second.Result.Metrics
	if fm.Latency != sm.Latency || fm.Skew != sm.Skew || fm.Buffers != sm.Buffers || fm.NTSVs != sm.NTSVs {
		t.Fatalf("cache returned different metrics: %+v vs %+v", fm, sm)
	}
	if len(sm.SinkDelays) != len(fm.SinkDelays) {
		t.Fatalf("cache dropped sink delays: %d vs %d", len(sm.SinkDelays), len(fm.SinkDelays))
	}
}

// TestCancelInFlight cancels a running job and checks it stops promptly and
// leaves no goroutines behind once the server closes.
func TestCancelInFlight(t *testing.T) {
	before := runtime.NumGoroutine()

	// A deterministic context-honoring delay at the insert boundary holds
	// the job in flight long enough to be cancelled on any machine (the
	// bare C2 synthesis can finish in tens of milliseconds, losing the
	// race); cancellation interrupts the delay immediately.
	reg, err := fault.Parse("delay@core.insert:every=1:30s", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{MaxRunning: 1, MaxQueued: 4, Workers: 1, Faults: reg})
	ts := httptest.NewServer(s.Handler())
	client := NewClient(ts.URL)

	// C2 is the biggest design; at one worker it runs long enough to be
	// caught in flight.
	info, err := client.SubmitAsync(context.Background(), KindSynthesize, &Request{Design: "C2"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := client.Job(context.Background(), info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == StateRunning {
			break
		}
		if j.State.terminal() {
			t.Fatalf("job finished before it could be cancelled: %s", j.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", j.State)
		}
		time.Sleep(time.Millisecond)
	}
	cancelled := time.Now()
	if _, err := client.Cancel(context.Background(), info.ID); err != nil {
		t.Fatal(err)
	}
	for {
		j, err := client.Job(context.Background(), info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State.terminal() {
			if j.State != StateCancelled {
				t.Fatalf("cancelled job ended %s (%s)", j.State, j.Error)
			}
			break
		}
		if time.Since(cancelled) > 5*time.Second {
			t.Fatal("job did not stop after cancellation")
		}
		time.Sleep(time.Millisecond)
	}
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs.Cancelled != 1 || st.Jobs.Running != 0 {
		t.Fatalf("stats after cancel: %+v", st.Jobs)
	}

	ts.Close()
	s.Close()
	// All runner and flow goroutines must be gone.
	settle := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(settle) {
			t.Fatalf("goroutines leaked: %d before, %d after shutdown", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionControl fills the queue and checks the next submission is
// rejected with 429, visible in /stats.
func TestAdmissionControl(t *testing.T) {
	s, client := newTestServer(t, Config{MaxRunning: 1, MaxQueued: 1, Workers: 1})
	// Occupy the single runner.
	run, err := s.Queue().Submit(&Request{Design: "C2"}, KindSynthesize)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		run.Cancel()
		<-run.Done()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for run.Info().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Fill the single queue slot.
	queued, err := s.Queue().Submit(&Request{Design: "C2", Seed: 2}, KindSynthesize)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		queued.Cancel()
		<-queued.Done()
	}()
	// Next admission must bounce, as HTTP 429 through the API.
	if _, err := client.SubmitAsync(context.Background(), KindSynthesize, &Request{Design: "C2", Seed: 3}); err == nil {
		t.Fatal("over-capacity submission accepted")
	} else if ae, ok := err.(*apiError); !ok || ae.Status != 429 {
		t.Fatalf("want HTTP 429, got %v", err)
	}
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs.Rejected != 1 {
		t.Fatalf("rejected count %d", st.Jobs.Rejected)
	}
}

// TestStreamingProgress runs a job in stream mode and checks the NDJSON
// event sequence: queued, running, every phase in order, then a terminal
// done event carrying the result.
func TestStreamingProgress(t *testing.T) {
	_, client := newTestServer(t, Config{MaxRunning: 2})
	var events []Event
	last, err := client.Stream(context.Background(), KindSynthesize, &Request{Design: "C4"}, func(ev Event) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.Event != string(StateDone) || last.Result == nil || last.Result.Metrics == nil {
		t.Fatalf("terminal event %+v", last)
	}
	var kinds []string
	phaseDone := map[string]bool{}
	for _, ev := range events {
		kinds = append(kinds, ev.Event)
		if ev.Event == "phase" && ev.PhaseDone {
			phaseDone[ev.Phase] = true
		}
	}
	if kinds[0] != "queued" || kinds[1] != "running" {
		t.Fatalf("event order %v", kinds)
	}
	for _, ph := range []core.Phase{core.PhaseRoute, core.PhaseInsert, core.PhaseEval} {
		if !phaseDone[string(ph)] {
			t.Fatalf("missing completed phase %q in %v", ph, kinds)
		}
	}
}

// TestDSEEndpoint sweeps thresholds through the service and compares
// against the direct sweep, then checks the repeat is a cache hit.
func TestDSEEndpoint(t *testing.T) {
	_, client := newTestServer(t, Config{MaxRunning: 2})
	req := &Request{Design: "C4", Thresholds: []int{60, 400}}
	info, err := client.DSE(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateDone || len(info.Result.Points) != 2 {
		t.Fatalf("dse job %+v", info)
	}
	p := mustPlacement(t, "C4", 1)
	want, err := dse.SweepFanout(p.Root, p.Sinks, tech.ASAP7(), req.Thresholds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range info.Result.Points {
		if pt != want[i] {
			t.Fatalf("dse point %d: service %+v direct %+v", i, pt, want[i])
		}
	}
	again, err := client.DSE(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("repeated dse request missed the cache")
	}
}

func mustPlacement(t *testing.T, id string, seed int64) *bench.Placement {
	t.Helper()
	d, err := bench.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Generate(d, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBadRequests exercises the 400 paths.
func TestBadRequests(t *testing.T) {
	_, client := newTestServer(t, Config{})
	cases := []*Request{
		{},                             // no placement at all
		{Design: "C9"},                 // unknown design
		{Design: "C4", Tech: "sky130"}, // unknown tech
		{Design: "C4", Options: OptionsSpec{Mode: "triple"}}, // bad mode
		{Design: "C4", Root: &XY{1, 1}, Sinks: []XY{{2, 2}}}, // both forms
	}
	for i, req := range cases {
		_, err := client.Synthesize(context.Background(), req)
		ae, ok := err.(*apiError)
		if !ok || ae.Status != 400 {
			t.Fatalf("case %d: want HTTP 400, got %v", i, err)
		}
	}
	// DSE without thresholds.
	if _, err := client.DSE(context.Background(), &Request{Design: "C4"}); err == nil {
		t.Fatal("dse without thresholds accepted")
	}
	// Health must still be fine.
	if err := client.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRequestKey pins the cache-identity rules: scheduling- and response-
// shape fields are excluded, every result-affecting field participates.
func TestRequestKey(t *testing.T) {
	base := func() *Request { return &Request{Design: "C4", Seed: 1} }
	k := base().Key(KindSynthesize)
	same := base()
	same.IncludeSinkDelays = true
	if same.Key(KindSynthesize) != k {
		t.Fatal("IncludeSinkDelays changed the key")
	}
	// bench.ByID accepts ID and name; both spellings must share the entry.
	byName := &Request{Design: "riscv32i", Seed: 1}
	if byName.Key(KindSynthesize) != k {
		t.Fatal("design name and ID produced different keys")
	}
	// An implicit seed is the same request as seed 1.
	if (&Request{Design: "C4"}).Key(KindSynthesize) != k {
		t.Fatal("default seed keyed differently from seed 1")
	}
	if base().Key(KindDSE) == k {
		t.Fatal("kind did not change the key")
	}
	diff := []*Request{
		{Design: "C5", Seed: 1},
		{Design: "C4", Seed: 2},
		{Design: "C4", Seed: 1, Options: OptionsSpec{Mode: "single"}},
		{Design: "C4", Seed: 1, Options: OptionsSpec{FanoutThreshold: 100}},
		{Design: "C4", Seed: 1, Options: OptionsSpec{Alpha: 2}},
		{Design: "C4", Seed: 1, Options: OptionsSpec{SkipRefine: true}},
		{Design: "C4", Seed: 1, Options: OptionsSpec{UseFlatDME: true}},
		{Root: &XY{1, 2}, Sinks: []XY{{3, 4}}},
	}
	seen := map[string]int{k: -1}
	for i, r := range diff {
		rk := r.Key(KindSynthesize)
		if j, dup := seen[rk]; dup {
			t.Fatalf("requests %d and %d share a key", i, j)
		}
		seen[rk] = i
	}
	// Explicit placements: coordinate identity is exact.
	a := &Request{Root: &XY{1, 2}, Sinks: []XY{{3, 4}, {5, 6}}}
	b := &Request{Root: &XY{1, 2}, Sinks: []XY{{3, 4}, {5, 6.0000000001}}}
	if a.Key(KindSynthesize) == b.Key(KindSynthesize) {
		t.Fatal("perturbed sink coordinate kept the key")
	}
}

// TestSubmitAfterClose checks a closed queue rejects new work instead of
// accepting jobs nothing will ever run (which would hang sync waiters).
func TestSubmitAfterClose(t *testing.T) {
	q := NewQueue(Config{MaxRunning: 1, MaxQueued: 1})
	q.Close()
	if _, err := q.Submit(&Request{Design: "C4"}, KindSynthesize); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err = %v", err)
	}
}

// TestCacheLRU checks capacity eviction order.
func TestCacheLRU(t *testing.T) {
	c := newCache(2)
	r := &Result{Kind: KindSynthesize}
	c.Put("a", r)
	c.Put("b", r)
	if _, ok := c.Get("a"); !ok { // a is now most recent
		t.Fatal("a missing")
	}
	c.Put("c", r) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// Stream submits req and follows its NDJSON progress stream, calling fn for
// every event. It returns the terminal event's result-bearing job snapshot
// reconstructed from the stream. Cancelling ctx aborts the stream, which
// cancels the job server-side. Streams are never retried — a broken stream
// may have cancelled the job — and are exempt from Client.Timeout.
func (c *Client) Stream(ctx context.Context, kind string, req *Request, fn func(Event)) (*Event, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/"+kind+"?mode=stream", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.streamHTTP().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, decodeErr(resp)
	}
	dec := json.NewDecoder(resp.Body)
	var last Event
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				break
			}
			return nil, err
		}
		last = ev
		if fn != nil {
			fn(ev)
		}
	}
	switch last.Event {
	case string(StateDone), string(StateFailed), string(StateCancelled):
		return &last, nil
	case "":
		return nil, fmt.Errorf("serve: empty event stream")
	default:
		return nil, fmt.Errorf("serve: stream ended without a terminal event (last %q)", last.Event)
	}
}

// streamHTTP is the client for NDJSON streams: no overall timeout (the
// stream lives as long as the job; ctx cancels it), sharing the configured
// transport when one was given.
func (c *Client) streamHTTP() *http.Client {
	if c.HTTP != nil {
		return &http.Client{Transport: c.HTTP.Transport}
	}
	return &http.Client{}
}

// Ready checks GET /readyz: nil when the daemon accepts new work, an
// *apiError (503) while draining or saturated.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil, false)
}
