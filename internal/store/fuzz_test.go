package store

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// Fuzz keys: each fuzzed blob is written under the digest of one of these,
// so it is a candidate entry whatever its bytes claim.
const (
	fuzzResultKey = "fuzz-result"
	fuzzBaseKey   = "fuzz-base"
)

// writeFuzzDir lays out a store directory from raw bytes: one blob of
// each kind.
func writeFuzzDir(t testing.TB, dir string, result, base []byte) {
	t.Helper()
	files := map[string][]byte{
		filepath.Join("results", blobName(fuzzResultKey)): result,
		filepath.Join("bases", blobName(fuzzBaseKey)):     base,
	}
	for name, data := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// countBlobs is the number of blob files of both kinds under dir.
func countBlobs(t testing.TB, dir string) int {
	t.Helper()
	n := 0
	for _, sub := range []string{"results", "bases"} {
		matches, err := filepath.Glob(filepath.Join(dir, sub, "*.blob"))
		if err != nil {
			t.Fatal(err)
		}
		n += len(matches)
	}
	return n
}

// blobName is the file name Put gives a key's blob.
func blobName(key string) string {
	d := keyDigest(key)
	return hex.EncodeToString(d[:]) + ".blob"
}

// FuzzStoreOpen drives the disk tier's read path with arbitrary bytes in
// every file it reads: Open, Load of both kinds and Close must neither
// panic nor fail, and every blob file on disk before Open must end up
// loaded or counted by Load as exactly one kind of skip.
func FuzzStoreOpen(f *testing.F) {
	// Seed: a directory written by Put, so the corpus starts from
	// well-formed files the mutator can damage.
	seed := f.TempDir()
	s, err := Open(Config{Dir: seed})
	if err != nil {
		f.Fatal(err)
	}
	s.Put(KindResult, fuzzResultKey, encoded([]byte(`{"latency_ps":1}`)))
	s.Put(KindBase, fuzzBaseKey, encoded([]byte("gob snapshot bytes")))
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(seed, name))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	result := read(filepath.Join("results", blobName(fuzzResultKey)))
	base := read(filepath.Join("bases", blobName(fuzzBaseKey)))
	f.Add(result, base)
	f.Add(result[:len(result)-1], base[:20])
	f.Add(base, result) // each a valid blob under the other key's name

	f.Fuzz(func(t *testing.T, result, base []byte) {
		dir := t.TempDir()
		writeFuzzDir(t, dir, result, base)
		present := int64(countBlobs(t, dir))
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		accept := func(string, []byte) bool { return true }
		s.Load(KindResult, accept)
		s.Load(KindBase, accept)
		got := s.Stats()
		accounted := got.WarmResults + got.WarmBases +
			got.WarmSkippedCorrupt + got.WarmSkippedVersion + got.WarmSkippedIO
		if accounted != present {
			t.Errorf("%d blob files before open, but %d loaded + skipped: %+v", present, accounted, got)
		}
		// No read of a fuzzed file fails for IO reasons, so every skip
		// deletes its blob.
		if left := int64(countBlobs(t, dir)); left != got.WarmResults+got.WarmBases {
			t.Errorf("%d blob files left after %d loads: skipped blobs must be deleted", left, got.WarmResults+got.WarmBases)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
}
