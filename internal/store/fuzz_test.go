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

// writeFuzzDir lays out a store directory from raw bytes: index.bin plus
// one blob of each kind.
func writeFuzzDir(t testing.TB, dir string, index, result, base []byte) {
	t.Helper()
	files := map[string][]byte{
		"index.bin": index,
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

// blobName is the file name Put gives a key's blob.
func blobName(key string) string {
	d := keyDigest(key)
	return hex.EncodeToString(d[:]) + ".blob"
}

// FuzzStoreOpen drives the disk tier's read path with arbitrary bytes in
// every file it reads: Open, Load of both kinds and Close must neither
// panic nor fail, and every entry present at open must end up loaded or
// counted as exactly one kind of skip.
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
	index := read("index.bin")
	result := read(filepath.Join("results", blobName(fuzzResultKey)))
	base := read(filepath.Join("bases", blobName(fuzzBaseKey)))
	f.Add(index, result, base)
	f.Add([]byte{}, result, base)
	f.Add(index[:indexHdrSize], result[:len(result)-1], base[:20])

	f.Fuzz(func(t *testing.T, index, result, base []byte) {
		dir := t.TempDir()
		writeFuzzDir(t, dir, index, result, base)
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		at := s.Stats()
		present := at.ResultEntries + at.BaseEntries
		accept := func(string, []byte) bool { return true }
		s.Load(KindResult, accept)
		s.Load(KindBase, accept)
		got := s.Stats()
		accounted := got.WarmResults + got.WarmBases +
			got.WarmSkippedCorrupt + got.WarmSkippedVersion + got.WarmSkippedIO
		if accounted != present {
			t.Errorf("%d entries at open, but %d loaded + skipped: %+v", present, accounted, got)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
}
