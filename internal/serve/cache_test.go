package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dscts/internal/eval"
)

// TestLRUEdges pins the generic LRU's less-travelled operations: Peek and
// the eviction bookkeeping around it.
func TestLRUEdges(t *testing.T) {
	l := newLRU[int](2, 128)
	l.Put("a", 1)
	l.Put("b", 2)

	// Peek reads without touching recency or counters.
	if v, ok := l.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v", v, ok)
	}
	if st := l.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Peek moved the counters: %+v", st)
	}
	// "a" is still the LRU victim despite the Peek: the next Put evicts it.
	l.Put("c", 3)
	if _, ok := l.Peek("a"); ok {
		t.Error("Peek refreshed recency: a survived the eviction")
	}
	if _, ok := l.Peek("b"); !ok {
		t.Error("b evicted out of order")
	}

	st := l.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats %+v, want 2 entries and 1 eviction (capacity)", st)
	}

	// A Get of the evicted key is a clean miss.
	if _, ok := l.Get("a"); ok {
		t.Error("evicted key still readable")
	}
	if st := l.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}

	// Re-putting an existing key refreshes value and recency, not size.
	l.Put("c", 30)
	if v, _ := l.Get("c"); v != 30 {
		t.Errorf("refreshed value = %d, want 30", v)
	}
	if st := l.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats %+v after refreshing a key, want 2 entries and 1 eviction", st)
	}
}

// TestLRUGetCheckedConsistency: a failing verify is one atomic
// corruption+eviction+miss, and the entry is gone afterwards.
func TestLRUGetCheckedConsistency(t *testing.T) {
	l := newLRU[int](4, 128)
	l.Put("k", 7)
	if _, ok := l.GetChecked("k", func(int) bool { return false }); ok {
		t.Fatal("failing verify still returned the entry")
	}
	st := l.Stats()
	if st.Corruptions != 1 || st.Evictions != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Errorf("counters %+v, want corruption=eviction=miss=1 from one lookup", st)
	}
	if _, ok := l.Peek("k"); ok {
		t.Error("corrupt entry still cached")
	}
	// An absent key is a plain miss, verify never called.
	if _, ok := l.GetChecked("ghost", func(int) bool { t.Error("verify called for absent key"); return true }); ok {
		t.Fatal("absent key returned")
	}
	// A passing verify is a plain hit.
	l.Put("k2", 8)
	if v, ok := l.GetChecked("k2", func(v int) bool { return v == 8 }); !ok || v != 8 {
		t.Errorf("passing verify: %d, %v", v, ok)
	}
}

// TestEncodeDropNotCached: a result whose canonical encoding fails (NaN is
// unrepresentable in JSON) is refused by the cache — Put returns false, the
// drop is counted, and no unverifiable entry exists to serve.
func TestEncodeDropNotCached(t *testing.T) {
	c := newCache(8)
	bad := &Result{Kind: KindSynthesize, Design: "C1", Metrics: &eval.Metrics{Latency: math.NaN()}}
	if _, ok := c.Put("k", bad); ok {
		t.Fatal("cache accepted an unencodable result")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("unencodable result served back")
	}
	st := c.Stats()
	if st.EncodeDrops != 1 {
		t.Errorf("encode_drops = %d, want 1", st.EncodeDrops)
	}
	if st.Entries != 0 || st.Corruptions != 0 {
		t.Errorf("stats %+v, want no entry and no corruption from a refused Put", st)
	}
	// A well-formed result on the same key still works.
	good := &Result{Kind: KindSynthesize, Design: "C1", Metrics: &eval.Metrics{Latency: 1}}
	if _, ok := c.Put("k", good); !ok {
		t.Fatal("cache refused a well-formed result")
	}
	if _, ok := c.Get("k"); !ok {
		t.Fatal("well-formed result not served")
	}
}

// TestIdempotencyRingFallthrough: an idempotency key that outlives its job's
// retention-ring record starts a FRESH job instead of replaying a dangling
// ID — retries stay safe, they just lose dedup once the record is gone.
func TestIdempotencyRingFallthrough(t *testing.T) {
	s, client := newTestServer(t, Config{
		MaxRunning: 1, MaxQueued: 4, Workers: 1,
		RetainJobs: 1, // the next finished job evicts the previous record
	})
	ctx := context.Background()

	first, err := client.Synthesize(ctx, &Request{Design: "C1", IdempotencyKey: "k"})
	if err != nil {
		t.Fatal(err)
	}
	// An unrelated job pushes the keyed job out of the one-slot ring.
	if _, err := client.Synthesize(ctx, &Request{Design: "C2"}); err != nil {
		t.Fatal(err)
	}

	retry, err := client.Synthesize(ctx, &Request{Design: "C1", IdempotencyKey: "k"})
	if err != nil {
		t.Fatalf("retry after ring eviction: %v", err)
	}
	if retry.ID == first.ID {
		t.Error("retry returned the forgotten job's ID")
	}
	if retry.State != StateDone || !retry.CacheHit {
		t.Errorf("retry ended %s (hit %v); the fresh job should hit the result cache", retry.State, retry.CacheHit)
	}
	if retry.Result.Metrics.Latency != first.Result.Metrics.Latency {
		t.Error("retry result differs from the original")
	}

	st := s.Queue().Stats()
	if st.Jobs.Deduped != 0 {
		t.Errorf("deduped = %d, want 0 (the record was gone; nothing was deduplicated)", st.Jobs.Deduped)
	}
	if st.Jobs.Submitted != 3 {
		t.Errorf("submitted = %d, want 3", st.Jobs.Submitted)
	}
}

// TestSyncResponseSeesJobRetired: a job wakes its waiters only after it is
// counted and retired, so right after a sync response the queue already
// counts the job as done and, with a one-slot retention ring, has already
// forgotten the previous job's record.
func TestSyncResponseSeesJobRetired(t *testing.T) {
	s, client := newTestServer(t, Config{
		MaxRunning: 1, MaxQueued: 4, Workers: 1, RetainJobs: 1,
	})
	ctx := context.Background()
	prev := ""
	// Fresh seeds run on a runner; the repeats are served from the cache.
	for i, seed := range []int64{1, 2, 3, 1, 4, 2} {
		info, err := client.Synthesize(ctx, &Request{Design: "C4", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if info.State != StateDone {
			t.Fatalf("job %d (%s) ended %s", i, info.ID, info.State)
		}
		if done := s.Queue().Stats().Jobs.Done; done != int64(i+1) {
			t.Errorf("after response %d (%s, hit %v): done = %d, want %d", i, info.ID, info.CacheHit, done, i+1)
		}
		if prev != "" {
			if _, err := s.Queue().Job(prev); !errors.Is(err, ErrNotFound) {
				t.Errorf("after response %d (%s): previous job %s still retained (lookup error %v)", i, info.ID, prev, err)
			}
		}
		prev = info.ID
	}
}

// fill populates the settable v: every pointer set, every slice given two
// elements, every map two entries, and each scalar leaf a distinct nonzero
// value drawn from next. A kind it has no rule for fails the test, so a new
// Result field of a new kind extends this walk before it can go unchecked.
func fill(t *testing.T, v reflect.Value, path string, next *int) {
	t.Helper()
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", n))
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(t, p.Elem(), path, next)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), path+"."+v.Type().Field(i).Name, next)
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			fill(t, s.Index(i), fmt.Sprintf("%s[%d]", path, i), next)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(t, k, path+"{key}", next)
			fill(t, e, path+"{value}", next)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	default:
		t.Fatalf("fill: no rule for %s (%s)", path, v.Kind())
	}
}

// edit is one reversible change to a filled value. setFloat is non-nil for
// a float leaf and stores any value there; undo restores the original.
type edit struct {
	path     string
	apply    func()
	undo     func()
	setFloat func(float64)
}

// changed returns a value of x's type that differs from x.
func changed(x reflect.Value) reflect.Value {
	c := reflect.New(x.Type()).Elem()
	switch x.Kind() {
	case reflect.Bool:
		c.SetBool(!x.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c.SetInt(x.Int() + 1_000_000)
	case reflect.Float32, reflect.Float64:
		c.SetFloat(x.Float() + 1)
	case reflect.String:
		c.SetString(x.String() + "~")
	}
	return c
}

// editsOf lists the edits of a value filled by fill: every scalar leaf
// (struct fields, slice elements, map keys and map values) changed, every
// pointer set to nil, and every slice shortened by one.
func editsOf(v reflect.Value, path string) []edit {
	var out []edit
	switch v.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Float32, reflect.Float64, reflect.String:
		old := reflect.ValueOf(v.Interface())
		e := edit{path: path, apply: func() { v.Set(changed(old)) }, undo: func() { v.Set(old) }}
		if v.Kind() == reflect.Float32 || v.Kind() == reflect.Float64 {
			e.setFloat = v.SetFloat
		}
		out = append(out, e)
	case reflect.Pointer:
		old := reflect.ValueOf(v.Interface())
		out = append(out, edit{path: path + "=nil", apply: func() { v.Set(reflect.Zero(v.Type())) }, undo: func() { v.Set(old) }})
		out = append(out, editsOf(v.Elem(), path)...)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = append(out, editsOf(v.Field(i), path+"."+v.Type().Field(i).Name)...)
		}
	case reflect.Slice:
		old := v.Slice(0, v.Len())
		out = append(out, edit{path: path + "[:len-1]", apply: func() { v.Set(old.Slice(0, old.Len()-1)) }, undo: func() { v.Set(old) }})
		for i := 0; i < v.Len(); i++ {
			out = append(out, editsOf(v.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			val := v.MapIndex(k)
			kp := fmt.Sprintf("%s{%v}", path, k)
			out = append(out, edit{path: kp + ".key",
				apply: func() { v.SetMapIndex(k, reflect.Value{}); v.SetMapIndex(changed(k), val) },
				undo:  func() { v.SetMapIndex(changed(k), reflect.Value{}); v.SetMapIndex(k, val) }})
			e := edit{path: kp,
				apply: func() { v.SetMapIndex(k, changed(val)) },
				undo:  func() { v.SetMapIndex(k, val) }}
			if val.Kind() == reflect.Float64 {
				e.setFloat = func(f float64) { v.SetMapIndex(k, reflect.ValueOf(f)) }
			}
			out = append(out, e)
		}
	}
	return out
}

// filledResult is a Result with every pointer set, every slice and map
// non-empty and every leaf distinct, found by reflection so that a new
// field joins the checksum tests without editing them. Its sink-delay maps
// are then keyed 0..n-1, as the engine keys them, so it has an entry form.
func filledResult(t *testing.T) *Result {
	res := new(Result)
	n := 0
	fill(t, reflect.ValueOf(res).Elem(), "Result", &n)
	ms, err := laneMetrics(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		dense := make(map[int]float64, len(m.SinkDelays))
		for _, k := range slices.Sorted(maps.Keys(m.SinkDelays)) {
			dense[len(dense)] = m.SinkDelays[k]
		}
		m.SinkDelays = dense
	}
	return res
}

func mustEntry(tb testing.TB, res *Result) entry {
	tb.Helper()
	e, err := newEntry(res)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

func mustSum(tb testing.TB, e entry) uint64 {
	tb.Helper()
	sum, err := sumEntry(e)
	if err != nil {
		tb.Fatal(err)
	}
	return sum
}

// laneEdits lists reversible edits of an entry's lanes: each lane set to
// nil, emptied and shortened by one, and each bit of each lane word
// flipped on its own.
func laneEdits(e entry) []edit {
	var out []edit
	for li := range e.lanes {
		lane := e.lanes[li]
		undo := func() { e.lanes[li] = lane }
		path := fmt.Sprintf("lane %d", li)
		out = append(out,
			edit{path: path + "=nil", apply: func() { e.lanes[li] = nil }, undo: undo},
			edit{path: path + "=[]", apply: func() { e.lanes[li] = lane[:0] }, undo: undo})
		if len(lane) > 0 {
			out = append(out, edit{path: path + "[:len-1]", apply: func() { e.lanes[li] = lane[:len(lane)-1] }, undo: undo})
		}
		for w := range lane {
			for bit := range 64 {
				old := lane[w]
				out = append(out, edit{path: fmt.Sprintf("%s[%d] bit %d", path, w, bit),
					apply: func() { lane[w] = math.Float64frombits(math.Float64bits(old) ^ 1<<bit) },
					undo:  func() { lane[w] = old }})
			}
		}
	}
	return out
}

// TestResultSumCoversEveryField: the entry checksum covers every byte a hit
// serves. Changing any leaf of a fully populated head, nil-ing any pointer
// or shortening any slice changes it, and so does flipping any one bit of
// any lane word, or nil-ing, emptying or shortening a lane. The lane edits
// also run on a real slow/typ/fast result.
func TestResultSumCoversEveryField(t *testing.T) {
	for i, res := range []*Result{filledResult(t), smallResults(t)[0]} {
		e := mustEntry(t, res)
		if len(e.lanes) < 3 {
			t.Fatalf("%d lanes, want the top-level one and one per corner", len(e.lanes))
		}
		want := mustSum(t, e)
		for i := 0; i < 100; i++ {
			if got := mustSum(t, e); got != want {
				t.Fatalf("sum %d of an unchanged entry = %#x, want %#x", i, got, want)
			}
		}
		edits := laneEdits(e)
		if i == 0 {
			edits = append(edits, editsOf(reflect.ValueOf(e.head).Elem(), "head")...)
		}
		for _, ed := range edits {
			ed.apply()
			got, err := sumEntry(e)
			ed.undo()
			if err == nil && got == want {
				t.Errorf("%s: checksum unchanged by the edit", ed.path)
			}
		}
		if got := mustSum(t, e); got != want {
			t.Fatalf("sum after undoing every edit = %#x, want %#x", got, want)
		}
		t.Logf("%d edits checked", len(edits))
	}
}

// TestCacheFlippedLaneBitIsAMiss: one flipped bit in a stored entry's lane
// word is caught by the next Get, which evicts the entry, counts one
// corruption and reports a miss.
func TestCacheFlippedLaneBitIsAMiss(t *testing.T) {
	c := newCache(8)
	if _, ok := c.Put("k", smallResults(t)[0]); !ok {
		t.Fatal("cache refused an engine result")
	}
	e, _ := c.lru.Peek("k")
	lane := e.lanes[2]
	lane[3] = math.Float64frombits(math.Float64bits(lane[3]) ^ 1<<17)
	if _, ok := c.Get("k"); ok {
		t.Fatal("an entry with a flipped lane bit was served")
	}
	if st := c.Stats(); st.Corruptions != 1 || st.Misses != 1 || st.Hits != 0 || st.Entries != 0 {
		t.Errorf("stats %+v, want one corruption, one miss and no entry", st)
	}
}

// TestResultSumMapRules: a head carries no map. The walk hashes a nil map
// like a nil pointer and refuses a non-nil one, empty or not, as it
// refuses a func; an entry whose head still holds its delay maps is
// refused by the cache and counted as an encode drop.
func TestResultSumMapRules(t *testing.T) {
	sum := func(v any) (uint64, error) {
		h := hasher(sumSeed)
		err := h.walk(reflect.ValueOf(v))
		return uint64(h), err
	}
	var nilMap struct{ M map[string]int }
	var nilPtr struct{ P *int }
	a, err := sum(nilMap)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := sum(nilPtr); a != b {
		t.Errorf("a nil map sums to %#x, a nil pointer to %#x", a, b)
	}
	for name, v := range map[string]any{
		"map":       map[string][]int{"k": {1}},
		"empty map": struct{ M map[int]float64 }{map[int]float64{}},
		"func":      struct{ F func() }{},
		"chan":      struct{ C chan int }{},
	} {
		if _, err := sum(v); err == nil {
			t.Errorf("%s summed", name)
		}
	}
	res := smallResults(t)[0]
	e := mustEntry(t, res)
	e.head = res
	c := newCache(8)
	if c.add("k", e) {
		t.Error("cache accepted a head that carries its delay maps")
	}
	if st := c.Stats(); st.EncodeDrops != 1 || st.Entries != 0 {
		t.Errorf("stats %+v, want one encode drop and no entry", st)
	}
}

// TestResultSumRejectsNonFinite: a NaN or +Inf at any float leaf, sink
// delays included, makes json.Marshal fail and makes cache.Put refuse the
// result, counted in encode_drops, since it could be neither served nor
// persisted.
func TestResultSumRejectsNonFinite(t *testing.T) {
	res := filledResult(t)
	c := newCache(8)
	floats, delays := 0, 0
	for _, e := range editsOf(reflect.ValueOf(res).Elem(), "Result") {
		if e.setFloat == nil {
			continue
		}
		floats++
		if strings.Contains(e.path, "SinkDelays") {
			delays++
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			e.setFloat(bad)
			_, jerr := json.Marshal(res)
			_, put := c.Put("k", res)
			e.undo()
			if jerr == nil {
				t.Errorf("%s = %v: json.Marshal succeeded", e.path, bad)
			}
			if put {
				t.Errorf("%s = %v: cache accepted the result", e.path, bad)
			}
		}
	}
	if floats == 0 || delays == 0 {
		t.Fatalf("%d float leaves, %d of them sink delays; want some of each", floats, delays)
	}
	if st := c.Stats(); st.EncodeDrops != int64(2*floats) || st.Entries != 0 {
		t.Errorf("stats %+v, want %d encode drops and no entry", st, 2*floats)
	}
	if _, ok := c.Put("k", res); !ok {
		t.Error("cache refused the restored, finite result")
	}
}

// TestHitServesMissBytes: for one request, a hit's Result JSON equals the
// miss's byte for byte, with and without include_sink_delays, and an entry
// answers a result with a nil and an empty delay map as that result's
// views encode.
func TestHitServesMissBytes(t *testing.T) {
	q := NewQueue(Config{MaxRunning: 1, Workers: 1})
	defer q.Close()
	for seed, include := range []bool{false, true} {
		// include_sink_delays is not part of the key: a fresh seed per
		// setting makes its first request a miss.
		for _, c := range []struct {
			req  *Request
			kind string
		}{
			{&Request{Design: "C1", Seed: int64(seed + 1), Corners: []string{"slow", "typ", "fast"}, IncludeSinkDelays: include}, KindSynthesize},
			{&Request{Design: "C4", Seed: int64(seed + 1), Delta: &DeltaSpec{Move: []MoveSpec{{Sink: 0, X: 40, Y: 40}}}, IncludeSinkDelays: include}, KindECO},
		} {
			var got [2][]byte
			for i := range got {
				job, err := q.Submit(c.req, c.kind)
				if err != nil {
					t.Fatal(err)
				}
				<-job.Done()
				info := job.Info()
				if info.State != StateDone || info.CacheHit != (i == 1) {
					t.Fatalf("%s %s include %v run %d: state %s, hit %v", c.kind, c.req.Design, include, i, info.State, info.CacheHit)
				}
				if got[i], err = json.Marshal(info.Result); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got[0], got[1]) {
				t.Errorf("%s %s include %v: the hit's result (%d bytes) differs from the miss's (%d bytes)",
					c.kind, c.req.Design, include, len(got[1]), len(got[0]))
			}
		}
	}

	res := nilAndEmptyMaps(t)
	c := newCache(8)
	if _, ok := c.Put("k", res); !ok {
		t.Fatal("cache refused a result with a nil and an empty delay map")
	}
	for _, include := range []bool{false, true} {
		e, ok := c.Get("k")
		if !ok {
			t.Fatal("entry not served")
		}
		want, err := json.Marshal(res.view(include))
		if err != nil {
			t.Fatal(err)
		}
		if b, err := json.Marshal(e.result(include)); err != nil || !bytes.Equal(b, want) {
			t.Errorf("include %v: the entry answers %s (err %v), want %s", include, b, err, want)
		}
	}
}

// engineResult runs req on q and returns the Result q cached for it.
func engineResult(tb testing.TB, q *Queue, req *Request, kind string) *Result {
	tb.Helper()
	job, err := q.Submit(req, kind)
	if err != nil {
		tb.Fatal(err)
	}
	<-job.Done()
	e, ok := q.cache.lru.Peek(job.key)
	if !ok {
		tb.Fatalf("%s %s: nothing cached (job %+v)", kind, req.Design, job.Info())
	}
	return e.result(true)
}

type benchResult struct {
	name string
	res  *Result
}

// benchResults are the two large result shapes the result benchmarks time:
// C1 with slow/typ/fast sign-off and a C3 ECO result.
func benchResults(b testing.TB, q *Queue) []benchResult {
	return []benchResult{
		{"C1-corners", engineResult(b, q, &Request{Design: "C1", Corners: []string{"slow", "typ", "fast"}}, KindSynthesize)},
		{"C3-eco", engineResult(b, q, &Request{Design: "C3", Delta: &DeltaSpec{Move: []MoveSpec{{Sink: 0, X: 40, Y: 40}}}}, KindECO)},
	}
}

// BenchmarkResultChecksum times the result cache's integrity checksum,
// which every hit computes under the cache lock and every Put computes
// once: over the entry of a C1 result with slow/typ/fast sign-off and of a
// C3 ECO result.
func BenchmarkResultChecksum(b *testing.B) {
	q := NewQueue(Config{MaxRunning: 1, Workers: 1})
	defer q.Close()
	for _, c := range benchResults(b, q) {
		e := mustEntry(b, c.res)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := sumEntry(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCacheHit times a cache hit end to end inside the queue:
// Queue.Submit of a cached request through to Done, on the two requests
// benchResults caches (C1 with slow/typ/fast sign-off and a C3 ECO delta).
func BenchmarkCacheHit(b *testing.B) {
	q := NewQueue(Config{MaxRunning: 1, Workers: 1})
	defer q.Close()
	for _, c := range []struct {
		name string
		req  *Request
		kind string
	}{
		{"C1-corners", &Request{Design: "C1", Corners: []string{"slow", "typ", "fast"}}, KindSynthesize},
		{"C3-eco", &Request{Design: "C3", Delta: &DeltaSpec{Move: []MoveSpec{{Sink: 0, X: 40, Y: 40}}}}, KindECO},
	} {
		engineResult(b, q, c.req, c.kind)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				job, err := q.Submit(c.req, c.kind)
				if err != nil {
					b.Fatal(err)
				}
				<-job.Done()
				if !job.cacheHit {
					b.Fatal("cached request missed")
				}
			}
		})
	}
}
