package serve

import (
	"context"
	"errors"
	"math"
	"testing"

	"dscts/internal/eval"
)

// TestLRUEdges pins the generic LRU's less-travelled operations: Remove,
// Peek and the eviction bookkeeping around them.
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

	// Remove drops a present key (counted as an eviction) and reports an
	// absent one without counting anything.
	if !l.Remove("b") {
		t.Error("Remove(b) = false with b present")
	}
	if l.Remove("b") || l.Remove("ghost") {
		t.Error("Remove of an absent key reported true")
	}
	st := l.Stats()
	if st.Entries != 1 || st.Evictions != 2 {
		t.Errorf("stats %+v, want 1 entry and 2 evictions (capacity + Remove)", st)
	}

	// A Get after Remove is a clean miss.
	if _, ok := l.Get("b"); ok {
		t.Error("removed key still readable")
	}
	if st := l.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}

	// Re-putting an existing key refreshes value and recency, not size.
	l.Put("c", 30)
	if v, _ := l.Get("c"); v != 30 {
		t.Errorf("refreshed value = %d, want 30", v)
	}
	if st := l.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d after refreshing the only key, want 1", st.Entries)
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
	if c.Put("k", bad) {
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
	if !c.Put("k", good) {
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
