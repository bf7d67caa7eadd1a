package serve

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"dscts/internal/core"
	"dscts/internal/fault"
	"dscts/internal/store"
)

// persistedServer is one daemon "process" over a store directory, torn down
// in dependency order so a test can restart over the same dir.
type persistedServer struct {
	st     *store.Store
	s      *Server
	ts     *httptest.Server
	client *Client
}

func startPersisted(t *testing.T, dir string, mut func(*Config)) *persistedServer {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxRunning: 2, MaxQueued: 8, Workers: 1, Store: st}
	if mut != nil {
		mut(&cfg)
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	p := &persistedServer{st: st, s: s, ts: ts, client: NewClient(ts.URL)}
	t.Cleanup(p.stop) // idempotent: store.Close and Server.Close tolerate repeats
	return p
}

func (p *persistedServer) stop() {
	p.ts.Close()
	p.s.Close()
	p.st.Close()
}

// TestPersistWarmRestart is the tier's core contract: a restarted daemon
// serves previously-computed requests as cache hits — including resolving a
// never-seen ECO delta from the persisted base snapshot.
func TestPersistWarmRestart(t *testing.T) {
	dir := t.TempDir()
	req := &Request{Design: "C1"}
	ecoReq := func(x float64) *Request {
		r := *req
		r.Delta = &DeltaSpec{Move: []MoveSpec{{Sink: 0, X: x, Y: x}}}
		return &r
	}
	ctx := context.Background()

	p1 := startPersisted(t, dir, nil)
	first, err := p1.client.Synthesize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first request of a fresh store was a cache hit")
	}
	if _, err := p1.client.ECO(ctx, ecoReq(40)); err != nil {
		t.Fatal(err)
	}
	p1.stop() // flushes the write-behind tail
	noWriteLoss(t, "cold process", p1.st.Stats())

	p2 := startPersisted(t, dir, nil)
	warm, err := p2.client.Synthesize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("restarted daemon recomputed a persisted request")
	}
	if warm.Result.Metrics.Latency != first.Result.Metrics.Latency ||
		warm.Result.Metrics.Skew != first.Result.Metrics.Skew {
		t.Errorf("warm result differs from the original: %+v vs %+v", warm.Result.Metrics, first.Result.Metrics)
	}

	// A delta the first process never saw: only the persisted base snapshot
	// can explain a base hit.
	eco, err := p2.client.ECO(ctx, ecoReq(41))
	if err != nil {
		t.Fatal(err)
	}
	if eco.CacheHit {
		t.Fatal("unseen delta was a full-result hit (test bug)")
	}
	if !eco.Result.BaseCacheHit {
		t.Error("post-restart eco re-synthesized its base instead of loading the snapshot")
	}

	st := p2.s.Queue().Stats()
	if st.Store == nil {
		t.Fatal("no store section in stats")
	}
	// The cold process persisted the C1 result (the base re-put lands on the
	// same key) and the eco result: 2 result blobs, 1 base snapshot.
	if st.Store.WarmResults != 2 || st.Store.WarmBases != 1 {
		t.Errorf("warm start loaded %d results, %d bases; want 2 and 1", st.Store.WarmResults, st.Store.WarmBases)
	}
	if skips := st.Store.WarmSkippedCorrupt + st.Store.WarmSkippedVersion + st.Store.WarmSkippedIO; skips != 0 {
		t.Errorf("%d warm skips over a cleanly closed store: %+v", skips, *st.Store)
	}
	p2.stop()
	noWriteLoss(t, "restarted process", p2.st.Stats())
}

// noWriteLoss fails the test when the write-behind tier lost a write: a
// drop or a write error costs a cold miss after the next restart.
func noWriteLoss(t *testing.T, who string, s store.Stats) {
	t.Helper()
	if s.WriteErrors != 0 || s.Dropped != 0 {
		t.Errorf("%s: write-behind lost data: %d write errors, %d dropped", who, s.WriteErrors, s.Dropped)
	}
}

// TestPersistMalformedBaseIsAMiss: a partitioned base snapshot with one
// region tree dropped still carries a valid store checksum. Warm start must
// reject it as corrupt (counted, deleted), and the next /eco on that base
// re-synthesizes it instead of failing against the bad retained state.
func TestPersistMalformedBaseIsAMiss(t *testing.T) {
	dir := t.TempDir()
	ecoReq := func(x float64) *Request {
		return &Request{Design: "C4", Options: OptionsSpec{PartitionMaxSinks: 300},
			Delta: &DeltaSpec{Move: []MoveSpec{{Sink: 0, X: x, Y: x}}}}
	}
	ctx := context.Background()

	p1 := startPersisted(t, dir, nil)
	if _, err := p1.client.ECO(ctx, ecoReq(40)); err != nil {
		t.Fatal(err)
	}
	p1.stop()

	// Rewrite the base through the store, so the damage is structural
	// (the checksum covers the damaged payload) rather than bit rot.
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var key string
	var base *core.Outcome
	st.Load(store.KindBase, func(k string, payload []byte) bool {
		key = k
		base, err = decodeBaseOutcome(payload)
		return err == nil
	})
	if base == nil {
		t.Fatalf("no decodable base snapshot persisted (err %v)", err)
	}
	ret := base.Retained
	if len(ret.Regions) != 4 {
		t.Fatalf("base has %d regions, want 4", len(ret.Regions))
	}
	ret.Trees = ret.Trees[:len(ret.Trees)-1]
	payload, err := encodeBaseOutcome(base)
	if err != nil {
		t.Fatal(err)
	}
	st.Put(store.KindBase, key, payload)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := startPersisted(t, dir, nil)
	ss := p2.s.Queue().Stats().Store
	if ss.WarmBases != 0 || ss.WarmSkippedCorrupt != 1 {
		t.Errorf("warm start loaded %d bases with %d corrupt skips; want the malformed base skipped",
			ss.WarmBases, ss.WarmSkippedCorrupt)
	}
	eco, err := p2.client.ECO(ctx, ecoReq(41))
	if err != nil {
		t.Fatalf("eco after a malformed base snapshot: %v", err)
	}
	if eco.Result.BaseCacheHit {
		t.Error("eco reported a base hit although the only snapshot was malformed")
	}
}

// TestPersistCorruptBlobCostsOneMiss: a blob corrupted on disk is skipped at
// warm start (counted, deleted) and the request recomputes correctly — a
// damaged tier can cost a miss, never an error or wrong bytes.
func TestPersistCorruptBlobCostsOneMiss(t *testing.T) {
	dir := t.TempDir()
	req := &Request{Design: "C1"}
	ctx := context.Background()

	p1 := startPersisted(t, dir, nil)
	first, err := p1.client.Synthesize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	p1.stop()

	blobs, err := filepath.Glob(filepath.Join(dir, "results", "*.blob"))
	if err != nil || len(blobs) != 1 {
		t.Fatalf("result blobs: %v (err %v), want exactly 1", blobs, err)
	}
	data, err := os.ReadFile(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(blobs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	p2 := startPersisted(t, dir, nil)
	got, err := p2.client.Synthesize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheHit {
		t.Error("corrupted blob served as a cache hit")
	}
	if got.Result.Metrics.Latency != first.Result.Metrics.Latency {
		t.Error("recomputed result differs from the original")
	}
	st := p2.s.Queue().Stats()
	if st.Store.WarmSkippedCorrupt != 1 || st.Store.WarmResults != 0 {
		t.Errorf("store skip accounting %+v, want exactly 1 corrupt skip", *st.Store)
	}
}

// TestPersistUndecodablePayloadRejected: a blob that passes the store's
// checksum but is not a Result (e.g. written by something else) is reported
// corrupt by the serve-side decode callback, counted and deleted.
func TestPersistUndecodablePayloadRejected(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st.Put(store.KindResult, "not-a-result", []byte("plain text, valid checksum"))
	st.Flush()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	p := startPersisted(t, dir, nil)
	stats := p.s.Queue().Stats()
	if stats.Store.WarmSkippedCorrupt != 1 || stats.Store.WarmResults != 0 {
		t.Errorf("store accounting %+v, want the undecodable payload counted corrupt", *stats.Store)
	}
	if stats.Cache.Entries != 0 {
		t.Errorf("%d cache entries warmed from garbage", stats.Cache.Entries)
	}
}

// TestBaseOutcomeGobRoundTrip pins the base-snapshot encoding: the decoded
// outcome must drive an incremental ECO to the exact result the live
// retained state produces, with the per-run scaffolding (progress closures,
// fault registry) stripped rather than breaking the encoder.
func TestBaseOutcomeGobRoundTrip(t *testing.T) {
	rv := directMetrics(t, &Request{Design: "C1"}, KindSynthesize)
	opt := rv.opt
	opt.RetainECO = true
	// A live registry in the retained options must not poison the snapshot:
	// encode strips it (it is process-local test equipment).
	reg, err := fault.Parse("error@core.route:nth=1000000", 1)
	if err != nil {
		t.Fatal(err)
	}
	opt.Faults = reg
	base, err := core.Synthesize(rv.root, rv.sinks, rv.tc, opt)
	if err != nil {
		t.Fatal(err)
	}

	payload, err := encodeBaseOutcome(base)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := decodeBaseOutcome(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if decoded.Retained.Opt.Faults != nil || decoded.Retained.Opt.Progress != nil {
		t.Error("per-run scaffolding survived the round trip")
	}
	if decoded.Metrics.Latency != base.Metrics.Latency || decoded.Metrics.Skew != base.Metrics.Skew {
		t.Fatalf("metrics changed in the round trip: %+v vs %+v", decoded.Metrics, base.Metrics)
	}

	// The decisive check: the same delta applied to the live state and to
	// the round-tripped snapshot must produce identical metrics.
	delta := DeltaSpec{Move: []MoveSpec{{Sink: 0, X: 55, Y: 55}}}
	d, err := delta.toDelta()
	if err != nil {
		t.Fatal(err)
	}
	fromLive, err := core.SynthesizeECO(base, d, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fromSnapshot, err := core.SynthesizeECO(decoded, d, core.Options{})
	if err != nil {
		t.Fatalf("eco over the decoded snapshot: %v", err)
	}
	if fromLive.Metrics.Latency != fromSnapshot.Metrics.Latency ||
		fromLive.Metrics.Skew != fromSnapshot.Metrics.Skew ||
		fromLive.Metrics.Buffers != fromSnapshot.Metrics.Buffers ||
		fromLive.Metrics.WL != fromSnapshot.Metrics.WL {
		t.Errorf("eco diverged: live %+v vs snapshot %+v", fromLive.Metrics, fromSnapshot.Metrics)
	}

	// An empty or truncated snapshot reports as an error, never a nil deref.
	if _, err := decodeBaseOutcome(nil); err == nil {
		t.Error("empty snapshot decoded")
	}
	if _, err := decodeBaseOutcome(payload[:len(payload)/2]); err == nil {
		t.Error("truncated snapshot decoded")
	}
}
