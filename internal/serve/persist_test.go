package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"dscts/internal/core"
	"dscts/internal/fault"
	"dscts/internal/partition"
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
// never-seen ECO delta from the persisted base snapshot — and a hit on a
// persisted slow/typ/fast result with sink delays answers with the cold
// response's result, byte for byte.
func TestPersistWarmRestart(t *testing.T) {
	dir := t.TempDir()
	req := &Request{Design: "C1"}
	ecoReq := func(x float64) *Request {
		r := *req
		r.Delta = &DeltaSpec{Move: []MoveSpec{{Sink: 0, X: x, Y: x}}}
		return &r
	}
	cornersReq := &Request{Design: "C1", Corners: []string{"slow", "typ", "fast"}, IncludeSinkDelays: true}
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
	coldHit, cold := postSyncRaw(t, p1.ts.URL, "/synthesize", cornersReq)
	if coldHit {
		t.Fatal("first corners request of a fresh store was a cache hit")
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
	warmHit, warmCorners := postSyncRaw(t, p2.ts.URL, "/synthesize", cornersReq)
	if !warmHit {
		t.Error("restarted daemon recomputed the persisted corners request")
	}
	if !bytes.Equal(warmCorners, cold) {
		t.Errorf("warm corners result (%d bytes) differs from the cold response's (%d bytes)", len(warmCorners), len(cold))
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
	// same key), the eco result and the corners result: 3 result blobs, 1
	// base snapshot.
	if st.Store.WarmResults != 3 || st.Store.WarmBases != 1 {
		t.Errorf("warm start loaded %d results, %d bases; want 3 and 1", st.Store.WarmResults, st.Store.WarmBases)
	}
	if skips := st.Store.WarmSkippedCorrupt + st.Store.WarmSkippedVersion + st.Store.WarmSkippedIO; skips != 0 {
		t.Errorf("%d warm skips over a cleanly closed store: %+v", skips, *st.Store)
	}
	p2.stop()
	noWriteLoss(t, "restarted process", p2.st.Stats())
}

// postSyncRaw posts req to a sync endpoint and returns whether the job was
// a cache hit and the raw bytes of its result, as the server wrote them.
func postSyncRaw(t *testing.T, url, path string, req *Request) (bool, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path+"?mode=sync", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
	var info struct {
		CacheHit bool            `json:"cache_hit"`
		Result   json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info.CacheHit, info.Result
}

// TestPersistFormatOneStoreStartsCold: a store written before results
// persisted in two parts (format 1: every result blob is json.Marshal of
// the Result) opens with each blob counted as a version skip and deleted.
// The next request is a miss and computes the same result as before.
func TestPersistFormatOneStoreStartsCold(t *testing.T) {
	olderStoreStartsCold(t, 1, func(payload []byte) []byte {
		e, err := decodeEntry(payload)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(e.result(true))
		if err != nil {
			t.Fatal(err)
		}
		return b
	})
}

// TestPersistFormatTwoStoreStartsCold: a store written while result heads
// still carried per-phase *_ms fields (format 2) is a version skip, not
// corruption. Read at the current format, such a head is not the canonical
// view of any Result, so without the version bump warm start would count
// every result blob as corrupt.
func TestPersistFormatTwoStoreStartsCold(t *testing.T) {
	olderStoreStartsCold(t, 2, func(payload []byte) []byte {
		// Format 2 wrote the phase fields just before total_ms.
		n := binary.LittleEndian.Uint64(payload)
		head := bytes.Replace(payload[8:8+n], []byte(`"total_ms":`),
			[]byte(`"route_ms":1.45,"insert_ms":2.5,"refine_ms":0.75,"total_ms":`), 1)
		if len(head) == int(n) {
			t.Fatal("result head has no total_ms")
		}
		old := binary.LittleEndian.AppendUint64(nil, uint64(len(head)))
		old = append(append(old, head...), payload[8+n:]...)
		if _, err := decodeEntry(old); err == nil {
			t.Fatal("a head with route_ms decoded at the current format")
		}
		return old
	})
}

// olderStoreStartsCold persists a slow/typ/fast result and an ECO (its
// result, its base's result and the base snapshot), rewrites the directory
// at format version ver with each result payload passed through
// oldResult, and restarts over it: every blob must count as a version
// skip, nothing as corrupt, and the next request must miss and compute the
// same metrics, corners and sink delays.
func olderStoreStartsCold(t *testing.T, ver uint32, oldResult func([]byte) []byte) {
	dir := t.TempDir()
	ctx := context.Background()
	req := &Request{Design: "C1", Corners: []string{"slow", "typ", "fast"}, IncludeSinkDelays: true}

	p1 := startPersisted(t, dir, nil)
	first, err := p1.client.Synthesize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.client.ECO(ctx, &Request{Design: "C1", Delta: &DeltaSpec{Move: []MoveSpec{{Sink: 0, X: 40, Y: 40}}}}); err != nil {
		t.Fatal(err)
	}
	p1.stop()
	noWriteLoss(t, "cold process", p1.st.Stats())

	// Rewrite the directory as that format wrote it: its version in every
	// blob header, and each result payload in its layout.
	blobs := 0
	for _, sub := range []string{"results", "bases"} {
		paths, err := filepath.Glob(filepath.Join(dir, sub, "*.blob"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			var rewrite func([]byte) []byte
			if sub == "results" {
				rewrite = oldResult
			}
			restampBlob(t, path, ver, rewrite)
			blobs++
		}
	}
	if blobs != 4 {
		t.Fatalf("%d blobs persisted, want 4 (corners, eco, eco base result, base snapshot)", blobs)
	}
	p2 := startPersisted(t, dir, nil)
	ss := p2.s.Queue().Stats().Store
	if ss.WarmSkippedVersion != int64(blobs) || ss.WarmSkippedCorrupt != 0 || ss.WarmSkippedIO != 0 {
		t.Errorf("skip accounting %+v, want %d version skips", *ss, blobs)
	}
	if ss.WarmResults != 0 || ss.WarmBases != 0 || ss.ResultEntries != 0 || ss.BaseEntries != 0 {
		t.Errorf("format-%d entries survived: %+v", ver, *ss)
	}
	again, err := p2.client.Synthesize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit {
		t.Errorf("a format-%d store served a hit", ver)
	}
	if a, b := engineJSON(t, again.Result), engineJSON(t, first.Result); !bytes.Equal(a, b) {
		t.Errorf("recomputed result differs from the original:\n%s\nvs\n%s", a, b)
	}
}

// restampBlob re-stamps a store blob at format version ver, its payload
// passed through rewrite unless that is nil. The checksum is recomputed, so
// the version is the blob's only fault.
func restampBlob(t *testing.T, path string, ver uint32, rewrite func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Blob layout: magic [8], version u32, key length u32, key, payload
	// length u64, sum u64, payload.
	keyLen := int(binary.LittleEndian.Uint32(data[12:16]))
	p := data[16+keyLen+16:]
	if rewrite != nil {
		p = rewrite(p)
	}
	out := append([]byte(nil), data[:16+keyLen]...)
	binary.LittleEndian.PutUint32(out[8:12], ver)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(p)))
	out = binary.LittleEndian.AppendUint64(out, store.Sum(p))
	out = append(out, p...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// engineJSON is the part of a Result the engine computes (metrics with
// sink delays, corners, DP and refinement counts), without the run's
// timings, which differ between two runs of one request.
func engineJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Metrics any
		Corners any
		DP      any
		Refine  any
	}{r.Metrics, r.Corners, r.DP, r.Refine})
	if err != nil {
		t.Fatal(err)
	}
	return b
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
	st.Put(store.KindBase, key, func() ([]byte, error) { return payload, nil })
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
	st.Put(store.KindResult, "not-a-result", func() ([]byte, error) { return []byte("plain text, valid checksum"), nil })
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

// TestPersistRestartFitsCache: at default sizes the store keeps as many
// results as the cache a restart fills, so a restart after 130 distinct
// results warm-loads the newest 128 and the cache evicts none of them.
func TestPersistRestartFitsCache(t *testing.T) {
	dir := t.TempDir()
	p1 := startPersisted(t, dir, nil)
	first, err := p1.client.Synthesize(context.Background(), &Request{Design: "C1"})
	if err != nil {
		t.Fatal(err)
	}
	// The request persisted one result; 129 more keys make 130.
	for i := 1; i < 130; i++ {
		p1.s.Queue().persistResult(fmt.Sprintf("result-%03d", i), mustEntry(t, first.Result))
	}
	p1.stop()
	noWriteLoss(t, "first process", p1.st.Stats())

	p2 := startPersisted(t, dir, nil)
	st := p2.s.Queue().Stats()
	if st.Store.WarmResults != 128 || st.Store.ResultEntries != 128 || st.Cache.Entries != 128 {
		t.Errorf("warm start loaded %d of %d stored results into %d cache entries, want 128 each",
			st.Store.WarmResults, st.Store.ResultEntries, st.Cache.Entries)
	}
	if st.Cache.Evictions != 0 {
		t.Errorf("warm start evicted %d results from the cache", st.Cache.Evictions)
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

// TestPersistedResultRoundTrip: every result shape the daemon persists (a
// slow/typ/fast result, an ECO result, that ECO's base and a DSE sweep)
// decodes from its blob to the entry the cache serves: the same JSON
// bytes, sink delays included, and the same integrity sum.
func TestPersistedResultRoundTrip(t *testing.T) {
	p := startPersisted(t, t.TempDir(), nil)
	ctx := context.Background()
	if _, err := p.client.Synthesize(ctx, &Request{Design: "C1", Corners: []string{"slow", "typ", "fast"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.client.ECO(ctx, &Request{Design: "C4", Delta: &DeltaSpec{Move: []MoveSpec{{Sink: 0, X: 40, Y: 40}}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.client.DSE(ctx, &Request{Design: "C1", Thresholds: []int{16, 64}}); err != nil {
		t.Fatal(err)
	}
	p.st.Flush()
	blobs := 0
	p.st.Load(store.KindResult, func(key string, payload []byte) bool {
		blobs++
		e, ok := p.s.Queue().cache.lru.Peek(key)
		if !ok {
			t.Errorf("persisted key %.16s… is not cached", key)
			return true
		}
		got, err := decodeEntry(payload)
		if err != nil {
			t.Errorf("key %.16s…: %v", key, err)
			return true
		}
		want, err := json.Marshal(e.result(true))
		if err != nil {
			t.Fatal(err)
		}
		if b, err := json.Marshal(got.result(true)); err != nil || !bytes.Equal(b, want) {
			t.Errorf("key %.16s…: decoded entry encodes to %d bytes (err %v), the cached one to %d", key, len(b), err, len(want))
		}
		if sum := mustSum(t, got); sum != e.sum {
			t.Errorf("key %.16s…: decoded entry sums to %#x, the cached one to %#x", key, sum, e.sum)
		}
		return true
	})
	if blobs != 4 {
		t.Errorf("%d result blobs persisted, want 4 (corners, eco, eco base, dse)", blobs)
	}
	noWriteLoss(t, "daemon", p.st.Stats())
}

// smallResults are real engine results over a six-sink placement, one per
// payload shape: slow/typ/fast sign-off (four lanes), a DSE sweep (none)
// and an ECO (one). They keep the fuzz corpus small.
func smallResults(tb testing.TB) []*Result {
	tb.Helper()
	q := NewQueue(Config{MaxRunning: 1, Workers: 1})
	defer q.Close()
	root := &XY{X: 0, Y: 0}
	sinks := []XY{{X: 10, Y: 20}, {X: 30, Y: 5}, {X: 50, Y: 40}, {X: 5, Y: 45}, {X: 25, Y: 25}, {X: 45, Y: 10}}
	return []*Result{
		engineResult(tb, q, &Request{Root: root, Sinks: sinks, Corners: []string{"slow", "typ", "fast"}}, KindSynthesize),
		engineResult(tb, q, &Request{Root: root, Sinks: sinks, Thresholds: []int{2, 4}}, KindDSE),
		engineResult(tb, q, &Request{Root: root, Sinks: sinks, Delta: &DeltaSpec{Move: []MoveSpec{{Sink: 0, X: 12, Y: 18}}}}, KindECO),
	}
}

// encodeFromMaps is the format-3 encoder as it was written over a Result's
// sink-delay maps, before cache entries held lanes. It is the reference
// the entry encoder must match byte for byte.
func encodeFromMaps(res *Result) ([]byte, error) {
	ms, err := laneMetrics(res)
	if err != nil {
		return nil, err
	}
	head, err := json.Marshal(res.view(false))
	if err != nil {
		return nil, err
	}
	buf := binary.LittleEndian.AppendUint64(nil, uint64(len(head)))
	buf = append(buf, head...)
	for _, m := range ms {
		if m.SinkDelays == nil {
			buf = binary.LittleEndian.AppendUint64(buf, nilLane)
			continue
		}
		n := len(m.SinkDelays)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
		for k := range n {
			d, ok := m.SinkDelays[k]
			if !ok {
				return nil, fmt.Errorf("sink delay %d missing", k)
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d))
		}
	}
	return buf, nil
}

// TestEntryPayloadMatchesMapEncoder: for every result shape of
// smallResults and benchResults, an entry encodes to the bytes the map
// encoder writes, so the store stays at format 3; and a store written by
// the map encoder warm-loads every blob into entries that serve the
// original results.
func TestEntryPayloadMatchesMapEncoder(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes C1 with three corners and a C3 ECO")
	}
	q := NewQueue(Config{MaxRunning: 1, Workers: 1})
	defer q.Close()
	shapes := smallResults(t)
	for _, c := range benchResults(t, q) {
		shapes = append(shapes, c.res)
	}
	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range shapes {
		want, err := encodeFromMaps(res)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeEntry(mustEntry(t, res))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("shape %d: the entry encodes to %d bytes, the map encoder to %d", i, len(got), len(want))
		}
		st.Put(store.KindResult, fmt.Sprint("shape-", i), func() ([]byte, error) { return want, nil })
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	p := startPersisted(t, dir, nil)
	if ss := p.s.Queue().Stats().Store; ss.WarmResults != int64(len(shapes)) || ss.WarmSkippedCorrupt != 0 {
		t.Fatalf("warm start %+v, want %d results and no corrupt skip", *ss, len(shapes))
	}
	for i, res := range shapes {
		e, ok := p.s.Queue().cache.Get(fmt.Sprint("shape-", i))
		if !ok {
			t.Fatalf("shape %d not served after warm start", i)
		}
		a, _ := json.Marshal(e.result(true))
		b, _ := json.Marshal(res)
		if !bytes.Equal(a, b) {
			t.Errorf("shape %d: the warm entry serves %d bytes, the original %d", i, len(a), len(b))
		}
	}
}

// TestResultPayloadEveryField: a Result with every field filled by
// reflection decodes from its entry's payload to the same JSON bytes and
// the same sum, so a new Result field cannot drop out of persisted results
// unnoticed.
func TestResultPayloadEveryField(t *testing.T) {
	res := filledResult(t)
	e := mustEntry(t, res)
	payload, err := encodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeEntry(payload)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := json.Marshal(got.result(true)); err != nil || !bytes.Equal(b, want) {
		t.Errorf("decoded entry encodes to %d bytes (err %v), want %d", len(b), err, len(want))
	}
	if a, b := mustSum(t, got), mustSum(t, e); a != b {
		t.Errorf("decoded entry sums to %#x, want %#x", a, b)
	}
}

// nilAndEmptyMaps is a slow/typ/fast result whose top-level delay map is
// nil and whose first corner's is empty.
func nilAndEmptyMaps(tb testing.TB) *Result {
	res := *smallResults(tb)[0]
	m := *res.Metrics
	m.SinkDelays = nil
	res.Metrics = &m
	rep := *res.Corners
	rep.Results = slices.Clone(rep.Results)
	cm := *rep.Results[0].Metrics
	cm.SinkDelays = map[int]float64{}
	rep.Results[0].Metrics = &cm
	res.Corners = &rep
	return &res
}

// TestResultPayloadNilAndEmptyMaps: a nil sink-delay map and an empty one
// encode as different JSON (null and {}), so each lane keeps which it was.
func TestResultPayloadNilAndEmptyMaps(t *testing.T) {
	res := nilAndEmptyMaps(t)
	payload, err := encodeEntry(mustEntry(t, res))
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeEntry(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.lanes[0] != nil || got.lanes[1] == nil || len(got.lanes[1]) != 0 {
		t.Errorf("lanes 0 and 1 decode as %v and %v, want nil and empty", got.lanes[0], got.lanes[1])
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := json.Marshal(got.result(true)); err != nil || !bytes.Equal(b, want) {
		t.Errorf("decoded entry encodes to %d bytes (err %v), want %d", len(b), err, len(want))
	}
}

// TestResultPayloadRejects: the decoder refuses every damaged payload
// before it allocates from a count it cannot back with bytes.
func TestResultPayloadRejects(t *testing.T) {
	payload, err := encodeEntry(mustEntry(t, smallResults(t)[0]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeEntry(payload); err != nil {
		t.Fatalf("intact payload: %v", err)
	}
	headEnd := 8 + int(binary.LittleEndian.Uint64(payload))
	withCount := func(count uint64) []byte {
		b := bytes.Clone(payload)
		binary.LittleEndian.PutUint64(b[headEnd:], count)
		return b
	}
	fits := uint64(len(payload)-headEnd-8) / 8 // the most delays the bytes after the first count hold
	for name, bad := range map[string][]byte{
		"empty":                 nil,
		"truncated length":      payload[:4],
		"truncated head":        payload[:headEnd-1],
		"no lanes":              payload[:headEnd],
		"truncated lane":        payload[:len(payload)-1],
		"one trailing byte":     append(bytes.Clone(payload), 0),
		"head length past end":  binary.LittleEndian.AppendUint64(nil, uint64(len(payload))),
		"lane one past the end": withCount(fits + 1),
		"lane count 2^62":       withCount(1 << 62),
	} {
		if e, err := decodeEntry(bad); err == nil {
			t.Errorf("%s: decoded %+v", name, e)
		}
	}
	// A head carrying its own delay map is not what the encoder writes.
	e, err := decodeEntry(payload)
	if err != nil {
		t.Fatal(err)
	}
	head, err := json.Marshal(e.result(true))
	if err != nil {
		t.Fatal(err)
	}
	withMaps := binary.LittleEndian.AppendUint64(nil, uint64(len(head)))
	withMaps = append(withMaps, head...)
	withMaps = append(withMaps, payload[headEnd:]...)
	if _, err := decodeEntry(withMaps); err == nil {
		t.Error("decoded a head that carries sink-delay maps")
	}
}

// TestResultEncodeNonDenseKeys: a sink-delay map not keyed 0..n-1 has no
// lane form. cache.Put refuses it and counts an encode drop, so no entry
// exists to serve or persist, never one that holds other delays.
func TestResultEncodeNonDenseKeys(t *testing.T) {
	good := smallResults(t)[0]
	c := newCache(8)
	edits := map[string]func(map[int]float64){
		"gap":      func(m map[int]float64) { d := m[0]; delete(m, 0); m[len(m)+1] = d },
		"negative": func(m map[int]float64) { d := m[0]; delete(m, 0); m[-1] = d },
	}
	for name, edit := range edits {
		bad := *good
		m := *good.Metrics
		m.SinkDelays = maps.Clone(good.Metrics.SinkDelays)
		edit(m.SinkDelays)
		bad.Metrics = &m
		if _, ok := c.Put(name, &bad); ok {
			t.Errorf("%s: cached a map keyed %v", name, slices.Sorted(maps.Keys(m.SinkDelays)))
		}
	}
	if st := c.Stats(); st.EncodeDrops != int64(len(edits)) || st.Entries != 0 {
		t.Errorf("cache stats %+v, want %d encode drops and no entry", st, len(edits))
	}
}

// FuzzResultPayload feeds the entry decoder arbitrary bytes, seeded from
// real encoded results. It must never panic, never build a lane longer
// than the input could hold, and re-encode every payload it accepts to the
// same bytes: the decoder accepts exactly what the encoder writes.
func FuzzResultPayload(f *testing.F) {
	for _, res := range smallResults(f) {
		payload, err := encodeEntry(mustEntry(f, res))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		e, err := decodeEntry(payload)
		if err != nil {
			return
		}
		for i, lane := range e.lanes {
			if 8*len(lane) > len(payload) {
				t.Fatalf("lane %d holds %d delays from a %d-byte payload", i, len(lane), len(payload))
			}
		}
		again, err := encodeEntry(e)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(payload), len(again))
		}
	})
}

// FuzzBaseSnapshot feeds the base-snapshot decoder arbitrary bytes, seeded
// from the snapshots of a retained monolithic and a retained partitioned
// outcome on a 40-sink slice of C1. It must never panic, and any outcome
// it accepts must encode again.
func FuzzBaseSnapshot(f *testing.F) {
	rv, err := (&Request{Design: "C1"}).resolve(KindSynthesize)
	if err != nil {
		f.Fatal(err)
	}
	for _, maxSinks := range []int{0, 15} {
		opt := core.Options{Workers: 1, RetainECO: true, Partition: partition.Options{MaxSinks: maxSinks}}
		out, err := core.Synthesize(rv.root, rv.sinks[:40], rv.tc, opt)
		if err != nil {
			f.Fatal(err)
		}
		if (len(out.Regions) > 0) != (maxSinks > 0) {
			f.Fatalf("max sinks %d ran %d regions", maxSinks, len(out.Regions))
		}
		payload, err := encodeBaseOutcome(out)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := decodeBaseOutcome(payload); err != nil {
			f.Fatalf("seed snapshot rejected: %v", err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		out, err := decodeBaseOutcome(payload)
		if err != nil {
			return
		}
		if _, err := encodeBaseOutcome(out); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
	})
}

// BenchmarkResultPersist times the store writer's encode and warm start's
// decode of an entry's payload, on the entries BenchmarkResultChecksum
// sums.
func BenchmarkResultPersist(b *testing.B) {
	q := NewQueue(Config{MaxRunning: 1, Workers: 1})
	defer q.Close()
	for _, c := range benchResults(b, q) {
		e := mustEntry(b, c.res)
		payload, err := encodeEntry(e)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := encodeEntry(e); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := decodeEntry(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPersistEncodeRacesHits serves hits on a key while the store's writer
// encodes the same cached entry. The hits return the entry's head and
// rebuild its sink delays from its lanes, so under -race this shows the
// writer's encode, the hit's checksum and the response encode only ever
// read it.
func TestPersistEncodeRacesHits(t *testing.T) {
	p := startPersisted(t, t.TempDir(), nil)
	ctx := context.Background()
	req := &Request{Design: "C4", Corners: []string{"slow", "typ", "fast"}, IncludeSinkDelays: true}
	if _, err := p.client.Synthesize(ctx, req); err != nil {
		t.Fatal(err)
	}
	key := req.Key(KindSynthesize)
	e, ok := p.s.Queue().cache.lru.Peek(key)
	if !ok {
		t.Fatal("result not cached")
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				info, err := p.client.Synthesize(ctx, req)
				if err != nil || !info.CacheHit {
					t.Errorf("hit %d: err %v, cache hit %v", i, err, err == nil && info.CacheHit)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		p.s.Queue().persistResult(key, e)
	}
	wg.Wait()
	p.st.Flush()
	if st := p.st.Stats(); st.Writes != 21 {
		t.Errorf("%d writes, want 21 (the miss and 20 re-persists)", st.Writes)
	}
	noWriteLoss(t, "daemon", p.st.Stats())
}
