package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, mut func(*Config)) *Store {
	t.Helper()
	cfg := Config{Dir: dir}
	if mut != nil {
		mut(&cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// encoded is an encoder that returns p as the payload.
func encoded(p []byte) func() ([]byte, error) {
	return func() ([]byte, error) { return p, nil }
}

// loadAll drains Load into a map, accepting every entry.
func loadAll(s *Store, kind string) map[string]string {
	out := map[string]string{}
	s.Load(kind, func(key string, payload []byte) bool {
		out[key] = string(payload)
		return true
	})
	return out
}

// TestRoundTrip: blobs of both kinds survive Put → Flush → reopen → Load
// byte-for-byte, under separate namespaces.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, nil)
	s.Put(KindResult, "ka", encoded([]byte(`{"a":1}`)))
	s.Put(KindResult, "kb", encoded([]byte(`{"b":2}`)))
	s.Put(KindBase, "ka", encoded([]byte("base-payload"))) // same key, different kind
	s.Flush()

	st := s.Stats()
	if st.Writes != 3 || st.WriteErrors != 0 || st.Dropped != 0 || st.Pending != 0 {
		t.Fatalf("after flush: %+v", st)
	}
	if st.ResultEntries != 2 || st.BaseEntries != 1 {
		t.Fatalf("entries: %d results, %d bases, want 2 and 1", st.ResultEntries, st.BaseEntries)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, nil)
	got := loadAll(r, KindResult)
	if len(got) != 2 || got["ka"] != `{"a":1}` || got["kb"] != `{"b":2}` {
		t.Errorf("results after reopen: %v", got)
	}
	if bases := loadAll(r, KindBase); len(bases) != 1 || bases["ka"] != "base-payload" {
		t.Errorf("bases after reopen: %v", bases)
	}
	st = r.Stats()
	if st.WarmResults != 2 || st.WarmBases != 1 {
		t.Errorf("warm counters: %d results, %d bases, want 2 and 1", st.WarmResults, st.WarmBases)
	}
	if skips := st.WarmSkippedCorrupt + st.WarmSkippedVersion + st.WarmSkippedIO; skips != 0 {
		t.Errorf("%d warm skips over a cleanly closed store: %+v", skips, st)
	}
}

// TestLoadOldestFirst: Load hands entries over in write order, so a caller
// filling an LRU leaves the newest blobs most recently used.
func TestLoadOldestFirst(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, nil)
	for i := 0; i < 5; i++ {
		s.Put(KindResult, fmt.Sprintf("k%d", i), encoded([]byte{byte(i)}))
		s.Flush() // one at a time, so write timestamps are strictly ordered
	}
	s.Close()

	r := openT(t, dir, nil)
	var order []string
	r.Load(KindResult, func(key string, _ []byte) bool {
		order = append(order, key)
		return true
	})
	for i, key := range order {
		if want := fmt.Sprintf("k%d", i); key != want {
			t.Fatalf("load order %v, want oldest first", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("loaded %d entries, want 5", len(order))
	}
}

// mustOneBlob returns the single blob file under the store dir for a kind.
func mustOneBlob(t *testing.T, dir, subdir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, subdir, "*.blob"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("blob files in %s: %v (err %v), want exactly 1", subdir, matches, err)
	}
	return matches[0]
}

// TestCorruptBlobSkippedAndDeleted: a blob whose payload was flipped on disk
// is skipped (counted), deleted, and never handed to the caller.
func TestCorruptBlobSkippedAndDeleted(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, nil)
	s.Put(KindResult, "victim", encoded([]byte("payload-to-corrupt")))
	s.Flush()
	s.Close()

	path := mustOneBlob(t, dir, "results")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // flip a payload byte; header stays valid
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, nil)
	if got := loadAll(r, KindResult); len(got) != 0 {
		t.Errorf("corrupt blob was loaded: %v", got)
	}
	st := r.Stats()
	if st.WarmSkippedCorrupt != 1 || st.WarmResults != 0 {
		t.Errorf("skip accounting: %+v, want 1 corrupt skip and 0 loads", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt blob not deleted (stat err %v)", err)
	}
	if st.ResultEntries != 0 {
		t.Errorf("corrupt entry still indexed: %d result entries", st.ResultEntries)
	}
}

// TestVersionMismatchSkipped: a blob from a future (or past) format version
// is skipped under its own counter — version drift is not corruption.
func TestVersionMismatchSkipped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, nil)
	s.Put(KindResult, "old-format", encoded([]byte("payload")))
	s.Flush()
	s.Close()

	path := mustOneBlob(t, dir, "results")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[8] = 0xFE // version field follows the 8-byte magic
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, nil)
	if got := loadAll(r, KindResult); len(got) != 0 {
		t.Errorf("version-mismatched blob was loaded: %v", got)
	}
	st := r.Stats()
	if st.WarmSkippedVersion != 1 || st.WarmSkippedCorrupt != 0 {
		t.Errorf("skip accounting: %+v, want exactly 1 version skip", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("version-mismatched blob not deleted (stat err %v)", err)
	}
}

// TestCallbackRejectCountsCorrupt: a payload the CALLER cannot decode counts
// as a corruption and is deleted, exactly like a failed checksum — the store
// verified bytes, but bytes the cache cannot use are just as poisonous.
func TestCallbackRejectCountsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, nil)
	s.Put(KindResult, "good", encoded([]byte("ok")))
	s.Put(KindResult, "undecodable", encoded([]byte("not json")))
	s.Flush()
	s.Close()

	r := openT(t, dir, nil)
	loaded := 0
	r.Load(KindResult, func(key string, _ []byte) bool {
		if key == "undecodable" {
			return false
		}
		loaded++
		return true
	})
	st := r.Stats()
	if loaded != 1 || st.WarmResults != 1 || st.WarmSkippedCorrupt != 1 {
		t.Errorf("loaded %d, stats %+v; want 1 load and 1 corrupt skip", loaded, st)
	}
	if st.ResultEntries != 1 {
		t.Errorf("rejected entry still indexed: %d result entries", st.ResultEntries)
	}
}

// TestCapacityEvictsOldest: the per-kind cap deletes the oldest blobs first,
// mirroring the in-memory LRU's pressure model.
func TestCapacityEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, func(c *Config) { c.MaxResults = 3 })
	for i := 0; i < 5; i++ {
		s.Put(KindResult, fmt.Sprintf("k%d", i), encoded([]byte{byte(i)}))
		s.Flush()
	}
	if st := s.Stats(); st.ResultEntries != 3 {
		t.Fatalf("%d result entries, want the cap of 3", st.ResultEntries)
	}
	s.Close()

	r := openT(t, dir, func(c *Config) { c.MaxResults = 3 })
	got := loadAll(r, KindResult)
	for _, want := range []string{"k2", "k3", "k4"} {
		if _, ok := got[want]; !ok {
			t.Errorf("newest entry %s evicted; survivors %v", want, got)
		}
	}
	if len(got) != 3 {
		t.Errorf("loaded %d entries, want 3", len(got))
	}
}

// TestOverwriteSameKey: re-putting a key replaces the payload without
// growing the entry count.
func TestOverwriteSameKey(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, nil)
	s.Put(KindResult, "k", encoded([]byte("v1")))
	s.Put(KindResult, "k", encoded([]byte("v2")))
	s.Flush()
	if st := s.Stats(); st.ResultEntries != 1 || st.Writes != 2 {
		t.Fatalf("stats %+v, want 1 entry from 2 writes", st)
	}
	s.Close()
	r := openT(t, dir, nil)
	if got := loadAll(r, KindResult); len(got) != 1 || got["k"] != "v2" {
		t.Errorf("after overwrite: %v, want only v2", got)
	}
}

// TestPutAfterCloseDrops: a Put racing past Close is dropped and counted —
// never blocked, never a panic on the closed channel.
func TestPutAfterCloseDrops(t *testing.T) {
	s := openT(t, t.TempDir(), nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Put(KindResult, "late", encoded([]byte("x")))
	s.Flush() // no-op, must not hang
	if st := s.Stats(); st.Dropped != 1 || st.Writes != 0 {
		t.Errorf("stats %+v, want exactly 1 dropped write", st)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v, want nil", err)
	}
}

// TestUnknownKindIgnored: puts and loads against an unknown kind are no-ops,
// as is a put with an empty key.
func TestUnknownKindIgnored(t *testing.T) {
	s := openT(t, t.TempDir(), nil)
	s.Put("wrong", "k", encoded([]byte("x")))
	s.Put(KindResult, "", encoded([]byte("x")))
	s.Flush()
	s.Load("wrong", func(string, []byte) bool { t.Error("callback for unknown kind"); return true })
	if st := s.Stats(); st.Writes != 0 || st.Dropped != 0 {
		t.Errorf("stats %+v, want nothing written or dropped", st)
	}
}

// TestIndexRebuiltFromBlobs: deleting index.bin loses nothing — reconcile
// adopts every blob from its own header on the next Open.
func TestIndexRebuiltFromBlobs(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, nil)
	s.Put(KindResult, "a", encoded([]byte("pa")))
	s.Put(KindBase, "b", encoded([]byte("pb")))
	s.Flush()
	s.Close()
	if err := os.Remove(filepath.Join(dir, "index.bin")); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, nil)
	if got := loadAll(r, KindResult); len(got) != 1 || got["a"] != "pa" {
		t.Errorf("results after index loss: %v", got)
	}
	if got := loadAll(r, KindBase); len(got) != 1 || got["b"] != "pb" {
		t.Errorf("bases after index loss: %v", got)
	}
}

// TestVanishedBlobDropped: an index record whose blob file is gone is
// reconciled away at Open — the directory is ground truth.
func TestVanishedBlobDropped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, nil)
	s.Put(KindResult, "gone", encoded([]byte("x")))
	s.Flush()
	s.Close()
	if err := os.Remove(mustOneBlob(t, dir, "results")); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, nil)
	if st := r.Stats(); st.ResultEntries != 0 {
		t.Errorf("%d result entries survive a deleted blob", st.ResultEntries)
	}
	if got := loadAll(r, KindResult); len(got) != 0 {
		t.Errorf("loaded %v from a deleted blob", got)
	}
}

// TestSumMatchesFNV pins the integrity checksum: FNV-64a over the payload
// bytes, the sum every blob header and index record written so far holds.
func TestSumMatchesFNV(t *testing.T) {
	if got, want := Sum([]byte("")), uint64(0xcbf29ce484222325); got != want {
		t.Errorf("Sum(\"\") = %#x, want FNV-64a offset basis %#x", got, want)
	}
	if Sum([]byte("a")) == Sum([]byte("b")) {
		t.Error("distinct payloads share a checksum")
	}
}

// TestPutEncodesOnWriter: Put returns at once and the writer runs the
// encoder, so a slow encode never holds up the caller. A write that finds
// the queue full is dropped without its encoder ever running, an encode
// error counts as a write error and persists nothing, and Flush waits for
// every write enqueued before it.
func TestPutEncodesOnWriter(t *testing.T) {
	s := openT(t, t.TempDir(), func(c *Config) { c.QueueDepth = 1 })
	started, release := make(chan struct{}), make(chan struct{})
	put := make(chan struct{})
	go func() {
		s.Put(KindResult, "slow", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("v"), nil
		})
		close(put)
	}()
	select {
	case <-put:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("Put waited for its encoder")
	}
	<-started // the writer holds "slow", so the queue is empty
	s.Put(KindResult, "bad", func() ([]byte, error) { return nil, errors.New("no encoding") })
	s.Put(KindResult, "dropped", func() ([]byte, error) {
		t.Error("the encoder of a dropped write ran")
		return nil, nil
	})
	close(release)
	s.Flush()
	if st := s.Stats(); st.Writes != 1 || st.WriteErrors != 1 || st.Dropped != 1 || st.Pending != 0 {
		t.Errorf("stats %+v, want 1 write, 1 write error, 1 dropped, none pending", st)
	}
	if got := loadAll(s, KindResult); len(got) != 1 || got["slow"] != "v" {
		t.Errorf("persisted %v, want only slow=v", got)
	}
}
