package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"dscts/internal/core"
	"dscts/internal/dse"
)

// TestRequestKeyCorners pins the corner rules of the cache identity: the
// corner set (and its order, which fixes the response layout) is part of
// the key; spellings canonicalize; corner-free requests cannot alias
// cornered ones.
func TestRequestKeyCorners(t *testing.T) {
	plain := &Request{Design: "C4", Seed: 1}
	cornered := &Request{Design: "C4", Seed: 1, Corners: []string{"slow", "typ", "fast"}}
	if plain.Key(KindSynthesize) == cornered.Key(KindSynthesize) {
		t.Fatal("adding corners kept the cache key")
	}
	// Preset names canonicalize case-insensitively.
	shouty := &Request{Design: "C4", Seed: 1, Corners: []string{"SLOW", "Typ", "fast"}}
	if shouty.Key(KindSynthesize) != cornered.Key(KindSynthesize) {
		t.Fatal("corner spellings keyed differently")
	}
	// Corner order fixes the per-corner response layout, so it is part of
	// the identity.
	perm := &Request{Design: "C4", Seed: 1, Corners: []string{"fast", "typ", "slow"}}
	if perm.Key(KindSynthesize) == cornered.Key(KindSynthesize) {
		t.Fatal("corner order did not change the key")
	}
	// Subsets differ.
	sub := &Request{Design: "C4", Seed: 1, Corners: []string{"slow"}}
	if sub.Key(KindSynthesize) == cornered.Key(KindSynthesize) {
		t.Fatal("corner subset shared the key")
	}
}

// TestRequestKeyPinned pins the exact canonical-encoding hashes. These
// MUST change whenever the encoding version bumps, and must NOT change
// otherwise: an accidental encoding edit that silently remaps every cache
// entry fails here, and so does adding a result-affecting field without
// bumping requestKeyVersion (start from the recorded v5 values and
// re-pin on every deliberate version bump).
func TestRequestKeyPinned(t *testing.T) {
	if requestKeyVersion != "dscts-request-v5" {
		t.Fatalf("encoding version changed to %q: re-pin the hashes below", requestKeyVersion)
	}
	pins := map[string]*Request{
		"c20a605ef9566bb235690c2d45365bada246176d403a740a55ae3c8793c89d57": {Design: "C4", Seed: 1},
		"08ad7a67b2b76408b1f62cf14190cfe5237452e81b87ca853c17e39937ad38fb": {Design: "C4", Seed: 1, Corners: []string{"slow", "typ", "fast"}},
		"b04c5d6d0aca269e844674e015df3220786e9c2305d65d6164b85f5b06a9634b": {Design: "C4", Seed: 1, Options: OptionsSpec{PartitionMaxSinks: 50000}},
		"3ad885d6a74f53c4c0c1a33bb87f812db2672321773a1119c3bcc08f70a32f3d": {XLSinks: 1000000, Seed: 1, Options: OptionsSpec{PartitionMaxSinks: 50000}},
	}
	for want, req := range pins {
		if got := req.Key(KindSynthesize); got != want {
			t.Errorf("canonical encoding drifted without a version bump:\nrequest %+v\ngot  %s\nwant %s", req, got, want)
		}
	}
	// The delta section hashes under the job kind "eco" and can never
	// alias the base (same request, no delta, kind "synthesize").
	ecoReq := &Request{Design: "C4", Seed: 1, Delta: &DeltaSpec{
		Move:   []MoveSpec{{Sink: 7, X: 100.5, Y: 200.25}},
		Remove: []int{3},
		Add:    []XY{{X: 10, Y: 20}},
	}}
	const wantECO = "15585439ce0cfd2defc3c4950d839d94c5f2bc3c249d6a3b03e3c0224e2f06e8"
	if got := ecoReq.Key(KindECO); got != wantECO {
		t.Errorf("eco canonical encoding drifted without a version bump:\ngot  %s\nwant %s", got, wantECO)
	}
	base := *ecoReq
	base.Delta = nil
	if base.Key(KindSynthesize) == ecoReq.Key(KindECO) {
		t.Fatal("eco request aliased its base")
	}

	// One request per form, covering every encoder the key uses (strings,
	// ints, float bits, bools, every counted section). Recorded with the
	// v5 encoding before the key moved to one reused write buffer; a
	// change of encoding technique must keep every byte.
	forms := []struct {
		name, kind, want string
		req              *Request
	}{
		{"design", KindSynthesize, "7c3246eb39e57926cc204e3a45846f3adfd8be620c9ee0b6c6c9e78593b4c41d",
			&Request{Design: "C3"}},
		// Single-side synthesis ignores the fanout threshold, so this
		// form hashes it as 0: the pin is the v5 key this request had
		// at fanout_threshold 0, which synthesizes the same tree.
		{"design+options+corners", KindSynthesize, "d5e4ed849d9e78289f88bc40fad8b2a6184fe4fa20352d4d2ecc660e765beb4f",
			&Request{Design: "C2", Seed: 3,
				Options: OptionsSpec{Mode: "single", FanoutThreshold: 150, Alpha: 0.5, Beta: 0.3, Gamma: 0.2,
					SkipRefine: true, SelectMinLatency: true, DiversePruning: true, MaxPerSide: 6, UseFlatDME: true,
					PartitionMaxSinks: 300, PartitionStrategy: "grid"},
				Corners: []string{"fast", "slow"}}},
		{"explicit 1000 sinks", KindSynthesize, "6da92ade6dbb75bfddc52c2e3f456cf3b74997a499ed793aca4287370c9c80d7",
			explicitKeyRequest(1000)},
		{"eco", KindECO, "27ab3f799e5bb9a76a75cad25cf19f20bfaeafb044dc0827ecc64b77bb6f3cdc",
			&Request{Design: "C1", Delta: &DeltaSpec{
				Add: []XY{{X: 1.5, Y: 2.5}}, Move: []MoveSpec{{Sink: 4, X: 30, Y: 40}}, Remove: []int{9, 2},
				Corners: []string{"typ"}}}},
		{"dse", KindDSE, "4909f9fde1e2fbe6ab547d1be194574f783cc221bb7b613460ddcfb0dd9d3b6f",
			&Request{Design: "C5", Thresholds: []int{0, 100, 400}}},
	}
	for _, f := range forms {
		if got := f.req.Key(f.kind); got != f.want {
			t.Errorf("%s: canonical encoding drifted without a version bump:\ngot  %s\nwant %s", f.name, got, f.want)
		}
	}
}

// explicitKeyRequest is an explicit placement of n sinks on a 10 µm grid
// (100 per row) with fractional offsets, so every coordinate's float bits
// reach the key.
func explicitKeyRequest(n int) *Request {
	r := &Request{Root: &XY{X: 500, Y: 500}, Sinks: make([]XY, n)}
	for i := range r.Sinks {
		r.Sinks[i] = XY{X: float64(i%100)*10 + 0.25, Y: float64(i/100)*10 + 0.5}
	}
	return r
}

// BenchmarkRequestKey hashes a 100k-sink explicit placement: two float
// encodings per sink dominate, so this measures the key's per-value cost.
func BenchmarkRequestKey(b *testing.B) {
	req := explicitKeyRequest(100_000)
	b.ReportAllocs()
	for b.Loop() {
		req.Key(KindSynthesize)
	}
}

// TestCornerJobEndToEnd submits a multi-corner synthesis over HTTP and
// checks the per-corner payload against a direct library run: same corner
// order, bit-identical per-corner metrics, same cross-corner summary, and
// per-corner sink-delay maps trimmed from the response unless asked for.
func TestCornerJobEndToEnd(t *testing.T) {
	_, client := newTestServer(t, Config{MaxRunning: 2, MaxQueued: 8})
	req := &Request{Design: "C4", Seed: 1, Corners: []string{"slow", "typ", "fast"}}
	info, err := client.Synthesize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateDone {
		t.Fatalf("job ended %s (%s)", info.State, info.Error)
	}
	res := info.Result
	if res.Corners == nil || len(res.Corners.Results) != 3 {
		t.Fatalf("corner payload missing: %+v", res.Corners)
	}
	for i, name := range []string{"slow", "typ", "fast"} {
		got := res.Corners.Results[i]
		if got.Corner.Name != name {
			t.Fatalf("corner %d is %q want %q", i, got.Corner.Name, name)
		}
		if got.Metrics.SinkDelays != nil {
			t.Fatal("per-corner sink delays leaked into the trimmed view")
		}
	}

	// Reference: direct synthesis with the same derived options.
	rv := directMetrics(t, req, KindSynthesize)
	want, err := core.Synthesize(rv.root, rv.sinks, rv.tc, rv.opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, wres := range want.Corners.Results {
		gres := res.Corners.Results[i]
		if gres.Metrics.Latency != wres.Metrics.Latency || gres.Metrics.Skew != wres.Metrics.Skew {
			t.Fatalf("corner %s differs from direct run: %+v vs %+v",
				wres.Corner.Name, gres.Metrics, wres.Metrics)
		}
	}
	if res.Corners.Summary != want.Corners.Summary {
		t.Fatalf("summary differs: %+v vs %+v", res.Corners.Summary, want.Corners.Summary)
	}
	// Physics sanity on the served payload: slow corner dominates.
	if res.Corners.Summary.WorstLatencyCorner != "slow" {
		t.Fatalf("worst latency corner %q", res.Corners.Summary.WorstLatencyCorner)
	}

	// With IncludeSinkDelays the per-corner maps come through.
	full := &Request{Design: "C4", Seed: 1, Corners: []string{"slow", "typ", "fast"}, IncludeSinkDelays: true}
	finfo, err := client.Synthesize(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	fres := finfo.Result
	if len(fres.Corners.Results[0].Metrics.SinkDelays) == 0 {
		t.Fatal("IncludeSinkDelays did not surface per-corner delays")
	}
	if !finfo.CacheHit {
		t.Fatal("IncludeSinkDelays must not change the cache identity")
	}
}

// TestConcurrentCornerJobs runs 8 concurrent multi-corner jobs (mixed
// corner sets and designs) and checks every per-corner metric against a
// direct run — the corner fan-out must stay race-clean and schedule-
// independent under concurrent service load (run with -race via make
// race).
func TestConcurrentCornerJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent end-to-end run")
	}
	_, client := newTestServer(t, Config{MaxRunning: 8, MaxQueued: 32})
	cornerSets := [][]string{
		{"slow", "typ", "fast"},
		{"fast", "slow"},
		{"typ"},
		{"slow", "fast"},
	}
	reqs := make([]*Request, 8)
	for i := range reqs {
		design := "C4"
		if i%2 == 1 {
			design = "C5"
		}
		reqs[i] = &Request{Design: design, Seed: int64(1 + i/4), Corners: cornerSets[i%len(cornerSets)]}
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
		rv := directMetrics(t, reqs[i], KindSynthesize)
		want, err := core.Synthesize(rv.root, rv.sinks, rv.tc, rv.opt)
		if err != nil {
			t.Fatal(err)
		}
		got := results[i].Corners
		if got == nil || len(got.Results) != len(reqs[i].Corners) {
			t.Fatalf("job %d: corner payload %+v", i, got)
		}
		for c := range got.Results {
			gm, wm := got.Results[c].Metrics, want.Corners.Results[c].Metrics
			if gm.Latency != wm.Latency || gm.Skew != wm.Skew || gm.WL != wm.WL {
				t.Fatalf("job %d corner %s: %+v vs %+v", i, got.Results[c].Corner.Name, gm, wm)
			}
		}
		if got.Summary != want.Corners.Summary {
			t.Fatalf("job %d summary: %+v vs %+v", i, got.Summary, want.Corners.Summary)
		}
	}
}

// TestDSECornerEndpoint checks a DSE request with corners returns
// cross-corner points (one per threshold × corner, in request corner
// order) that match a direct corner sweep, and that the corner set
// separates DSE cache entries too.
func TestDSECornerEndpoint(t *testing.T) {
	_, client := newTestServer(t, Config{MaxRunning: 2})
	req := &Request{Design: "C4", Thresholds: []int{100, 800}, Corners: []string{"slow", "fast"}}
	info, err := client.DSE(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateDone {
		t.Fatalf("job ended %s (%s)", info.State, info.Error)
	}
	res := info.Result
	if len(res.Points) != 0 || len(res.CornerPoints) != 2 {
		t.Fatalf("want 2 corner points and no plain points, got %d/%d", len(res.CornerPoints), len(res.Points))
	}
	rv := directMetrics(t, req, KindDSE)
	want, err := dse.SweepFanoutCorners(context.Background(), rv.root, rv.sinks, rv.tc, req.Thresholds, rv.opt.Corners, rv.opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.CornerPoints[i].Param != want[i].Param {
			t.Fatalf("point %d param %g want %g", i, res.CornerPoints[i].Param, want[i].Param)
		}
		for c := range want[i].Corners {
			if res.CornerPoints[i].Corners[c] != want[i].Corners[c] {
				t.Fatalf("point %d corner %d differs:\nservice %+v\ndirect  %+v",
					i, c, res.CornerPoints[i].Corners[c], want[i].Corners[c])
			}
		}
	}
	plain := &Request{Design: "C4", Thresholds: []int{100, 800}}
	if plain.Key(KindDSE) == req.Key(KindDSE) {
		t.Fatal("corner set did not separate DSE cache entries")
	}
}

// TestBadCornerRequests checks corner validation happens at admission
// (HTTP 400), before any synthesis work.
func TestBadCornerRequests(t *testing.T) {
	_, client := newTestServer(t, Config{})
	cases := []*Request{
		{Design: "C4", Corners: []string{"weird"}},
		{Design: "C4", Corners: []string{"slow", "slow"}},
		{Design: "C4", Corners: []string{""}},
	}
	for i, req := range cases {
		_, err := client.Synthesize(context.Background(), req)
		ae, ok := err.(*apiError)
		if !ok || ae.Status != 400 {
			t.Fatalf("case %d: want HTTP 400, got %v", i, err)
		}
	}
}

// TestCornerProgressEvents checks the corners phase streams per-corner
// completion events.
func TestCornerProgressEvents(t *testing.T) {
	_, client := newTestServer(t, Config{MaxRunning: 1})
	req := &Request{Design: "C4", Corners: []string{"slow", "typ", "fast"}}
	sawPhase := false
	sawPoints := 0
	last, err := client.Stream(context.Background(), KindSynthesize, req, func(ev Event) {
		if ev.Phase == string(core.PhaseCorners) {
			sawPhase = true
			if ev.Total == 3 && ev.Point > 0 {
				sawPoints++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.Event != string(StateDone) {
		t.Fatalf("terminal event %q (%s)", last.Event, last.Error)
	}
	if !sawPhase || sawPoints != 3 {
		t.Fatalf("corner progress events: phase %v, %d point events", sawPhase, sawPoints)
	}
}

// TestFinishedRecordDropsSinkDelays: a finished job's retained record holds
// only its response view, so a job that did not ask for sink delays keeps
// no per-sink delay map, top-level or per corner, alive after the cache
// lets the result go. The cache keeps the full result: a later hit that
// asks for delays still gets them.
func TestFinishedRecordDropsSinkDelays(t *testing.T) {
	q := NewQueue(Config{MaxRunning: 1, Workers: 1})
	defer q.Close()
	corners := []string{"slow", "typ"}
	job, err := q.Submit(&Request{Design: "C4", Seed: 1, Corners: corners}, KindSynthesize)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	job.mu.Lock()
	res := job.result
	job.mu.Unlock()
	if res == nil || res.Metrics == nil || res.Corners == nil {
		t.Fatalf("job ended %s without a cornered result", job.Info().State)
	}
	if res.Metrics.SinkDelays != nil {
		t.Error("record holds the top-level sink delays")
	}
	for _, cr := range res.Corners.Results {
		if cr.Metrics.SinkDelays != nil {
			t.Errorf("record holds corner %s's sink delays", cr.Corner.Name)
		}
	}

	hit, err := q.Submit(&Request{Design: "C4", Seed: 1, Corners: corners, IncludeSinkDelays: true}, KindSynthesize)
	if err != nil {
		t.Fatal(err)
	}
	<-hit.Done()
	info := hit.Info()
	if !info.CacheHit {
		t.Fatal("same request with include_sink_delays missed the cache")
	}
	if len(info.Result.Metrics.SinkDelays) != 1056 {
		t.Errorf("cache hit carries %d sink delays, want 1056", len(info.Result.Metrics.SinkDelays))
	}
	for _, cr := range info.Result.Corners.Results {
		if len(cr.Metrics.SinkDelays) != 1056 {
			t.Errorf("cache hit carries %d sink delays for corner %s, want 1056", len(cr.Metrics.SinkDelays), cr.Corner.Name)
		}
	}
}
