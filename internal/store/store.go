// Package store is dsctsd's disk-backed persistence tier: a
// content-addressed blob store with write-behind and FNV-64a integrity
// sums, built so the in-memory result cache and the retained ECO bases
// survive a restart.
//
// The store is deliberately payload-agnostic — it persists opaque byte
// blobs under (kind, key) — so it knows nothing about the serve package's
// result payloads (a JSON head plus binary sink-delay lanes) or
// gob-encoded base outcomes. serve hands Put an encoder, the writer runs
// it and persists the bytes, and warm-start hands the bytes back for serve
// to decode. The format version in every header changes whenever a
// payload's layout does, so a directory written at another version is
// skipped and counted, never misread.
//
// On-disk layout under the configured directory:
//
//	results/<hex(sha256(key))>.blob   result payloads
//	bases/<hex(sha256(key))>.blob     retained ECO base snapshots
//
// The blob files are the store's only record. Every blob carries a magic
// tag, a format version, the full original key and an FNV-64a sum over the
// payload, and its modification time is its write time. Open lists the two
// directories and reads no blob; Load reads each one, oldest first, and
// checks it on its own: a blob whose header or recomputed sum is wrong, or
// whose key does not hash to its file name, is skipped, counted and
// deleted rather than loaded.
//
// Writes are write-behind: Put enqueues an encoder and returns
// immediately, and a single writer goroutine runs it and persists the
// bytes via temp-file-plus-rename. The encode therefore costs the job path
// nothing. A full write queue drops the entry (and counts the drop)
// instead of stalling the job path — the disk tier is an accelerator,
// never a dependency.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kinds partition the store's namespace; each gets its own subdirectory
// and capacity bound.
const (
	KindResult = "result"
	KindBase   = "base"
)

const (
	blobMagic = "DSCTSBLB"
	formatVer = 3
)

// The capacities are the sizes of the serve caches a warm start fills, so
// the disk keeps no blob a restart could not serve. Open applies
// DefaultMaxResults and DefaultQueueDepth to zero Config fields; the base
// tier is always DefaultMaxBases.
const (
	DefaultMaxResults = 128 // serve's default result cache (Config.CacheEntries)
	DefaultMaxBases   = 8   // serve's ECO base cache (ecoBaseEntries)
	DefaultQueueDepth = 256
)

// Config sizes the store.
type Config struct {
	// Dir is the root directory; created if absent.
	Dir string
	// MaxResults caps the result blob count; the oldest files are deleted
	// first (the on-disk tier mirrors the in-memory LRUs).
	MaxResults int
	// QueueDepth bounds the write-behind buffer; a full buffer drops
	// writes (counted) instead of blocking the job path.
	QueueDepth int
	// Logger receives write failures. nil discards.
	Logger *slog.Logger
}

// Stats is the store section of GET /stats; counters accumulate since
// Open.
type Stats struct {
	// Writes counts blobs persisted; WriteErrors counts persist attempts
	// whose encode or write failed (the entry is lost from disk, never
	// from memory).
	Writes      int64 `json:"writes"`
	WriteErrors int64 `json:"write_errors,omitempty"`
	// Dropped counts writes discarded because the write-behind queue was
	// full or the store was closed.
	Dropped int64 `json:"dropped,omitempty"`
	// Pending is the write-behind backlog right now.
	Pending int64 `json:"pending"`
	// ResultEntries / BaseEntries are the blob counts currently on disk.
	// Between Open and Load they count the blobs Open listed, before Load
	// has verified any of them.
	ResultEntries int64 `json:"result_entries"`
	BaseEntries   int64 `json:"base_entries"`
	// WarmResults / WarmBases count entries loaded by warm-start.
	WarmResults int64 `json:"warm_results"`
	WarmBases   int64 `json:"warm_bases"`
	// Warm-start skip reasons: integrity mismatch (a bad header or sum, a
	// key that does not hash to the file name, or a payload the caller
	// failed to decode), format-version mismatch, and plain IO errors.
	// Skipped blobs are deleted so they cannot recur.
	WarmSkippedCorrupt int64 `json:"warm_skipped_corrupt,omitempty"`
	WarmSkippedVersion int64 `json:"warm_skipped_version,omitempty"`
	WarmSkippedIO      int64 `json:"warm_skipped_io,omitempty"`
}

type kindState struct {
	dir string
	max int
	// entries maps key digest → write time (Unix nanoseconds) for every
	// blob believed on disk.
	entries map[[32]byte]int64
}

type writeOp struct {
	kind   string
	key    string
	encode func() ([]byte, error)
	flush  chan struct{} // non-nil: barrier op, close when reached
}

// Store is a content-addressed write-behind blob store. All methods are
// safe for concurrent use.
type Store struct {
	log   *slog.Logger
	kinds map[string]*kindState

	mu       sync.Mutex // guards kinds' entries maps
	putMu    sync.RWMutex
	closed   bool
	ch       chan writeOp
	wg       sync.WaitGroup
	writes   atomic.Int64
	writeErr atomic.Int64
	dropped  atomic.Int64
	pending  atomic.Int64

	warmResults atomic.Int64
	warmBases   atomic.Int64
	warmCorrupt atomic.Int64
	warmVersion atomic.Int64
	warmIO      atomic.Int64
}

// Open creates or reopens a store rooted at cfg.Dir, lists the blobs of
// both kinds with their write times, deletes each kind's oldest blobs
// beyond its cap and starts the write-behind writer. It reads no blob;
// Load verifies each one.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir is required")
	}
	if cfg.MaxResults <= 0 {
		cfg.MaxResults = DefaultMaxResults
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	s := &Store{
		log: cfg.Logger,
		kinds: map[string]*kindState{
			KindResult: {dir: filepath.Join(cfg.Dir, "results"), max: cfg.MaxResults, entries: map[[32]byte]int64{}},
			KindBase:   {dir: filepath.Join(cfg.Dir, "bases"), max: DefaultMaxBases, entries: map[[32]byte]int64{}},
		},
		ch: make(chan writeOp, cfg.QueueDepth),
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	for _, ks := range s.kinds {
		if err := os.MkdirAll(ks.dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		ks.list()
		ks.evict()
	}
	// Earlier versions of the store kept a second record of the blobs in
	// index.bin; nothing reads it, so a leftover one is deleted.
	os.Remove(filepath.Join(cfg.Dir, "index.bin"))
	s.wg.Add(1)
	go s.writer()
	return s, nil
}

// list records every <hex digest>.blob file in the kind's directory with
// its modification time, and deletes the temp files a failed write or a
// crash between write and rename left behind.
func (ks *kindState) list() {
	des, err := os.ReadDir(ks.dir)
	if err != nil {
		return
	}
	for _, de := range des {
		name := de.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(ks.dir, name))
			continue
		}
		hexDigest, ok := strings.CutSuffix(name, ".blob")
		if !ok {
			continue
		}
		raw, err := hex.DecodeString(hexDigest)
		if err != nil || len(raw) != 32 {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // vanished since ReadDir
		}
		ks.entries[[32]byte(raw)] = info.ModTime().UnixNano()
	}
}

func keyDigest(key string) [32]byte { return sha256.Sum256([]byte(key)) }

func (ks *kindState) path(digest [32]byte) string {
	return filepath.Join(ks.dir, hex.EncodeToString(digest[:])+".blob")
}

// evict deletes the oldest blobs, by (write time, digest), until at most
// max remain: recency on disk is write recency. Callers hold s.mu, or own
// the store before Open returns it.
func (ks *kindState) evict() {
	for len(ks.entries) > ks.max {
		var oldest blobAge
		first := true
		for d, nano := range ks.entries {
			if age := (blobAge{nano, d}); first || age.before(oldest) {
				oldest, first = age, false
			}
		}
		delete(ks.entries, oldest.digest)
		os.Remove(ks.path(oldest.digest))
	}
}

// blobAge places a blob in write order: by write time, ties broken by
// digest, so the order is total however coarse the file system's
// timestamps are.
type blobAge struct {
	nano   int64
	digest [32]byte
}

func (a blobAge) before(b blobAge) bool {
	if a.nano != b.nano {
		return a.nano < b.nano
	}
	return bytes.Compare(a.digest[:], b.digest[:]) < 0
}

// Sum is the integrity checksum the store verifies payloads with: FNV-64a
// over the payload bytes.
func Sum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// Put enqueues a blob for write-behind persistence. The writer goroutine
// calls encode once to produce the payload, so encode must only read state
// that no one mutates after the call. Put never blocks: a full queue or a
// closed store drops the write and counts it, without calling encode.
func (s *Store) Put(kind, key string, encode func() ([]byte, error)) {
	if _, ok := s.kinds[kind]; !ok || key == "" {
		return
	}
	s.putMu.RLock()
	defer s.putMu.RUnlock()
	if s.closed {
		s.dropped.Add(1)
		return
	}
	select {
	case s.ch <- writeOp{kind: kind, key: key, encode: encode}:
		s.pending.Add(1)
	default:
		s.dropped.Add(1)
	}
}

// Flush blocks until every write enqueued before the call has been
// persisted (or failed). No-op on a closed store.
func (s *Store) Flush() {
	s.putMu.RLock()
	if s.closed {
		s.putMu.RUnlock()
		return
	}
	ack := make(chan struct{})
	s.ch <- writeOp{flush: ack}
	s.putMu.RUnlock()
	<-ack
}

// Close drains the write-behind queue. Safe to call more than once; Puts
// racing Close are dropped. It returns nil: a write that fails is counted
// in WriteErrors when it happens.
func (s *Store) Close() error {
	s.putMu.Lock()
	if s.closed {
		s.putMu.Unlock()
		return nil
	}
	s.closed = true
	s.putMu.Unlock()
	close(s.ch)
	s.wg.Wait()
	return nil
}

func (s *Store) writer() {
	defer s.wg.Done()
	for op := range s.ch {
		if op.flush != nil {
			close(op.flush)
			continue
		}
		s.pending.Add(-1)
		payload, err := op.encode()
		if err == nil {
			err = s.persist(op.kind, op.key, payload)
		}
		if err != nil {
			s.writeErr.Add(1)
			s.log.Warn("store: write failed", "kind", op.kind, "error", err)
			continue
		}
		s.writes.Add(1)
	}
}

// persist writes one blob atomically (temp file + rename) and enforces the
// per-kind capacity bound. A failed step removes the temp file.
func (s *Store) persist(kind, key string, payload []byte) error {
	ks := s.kinds[kind]
	digest := keyDigest(key)
	path := ks.path(digest)
	tmp := path + ".tmp"
	now := time.Now()
	err := os.WriteFile(tmp, encodeBlob(key, Sum(payload), payload), 0o644)
	if err == nil {
		// The modification time is the blob's write time, the only record
		// of write order across a restart, so stamp it at full precision
		// rather than take the kernel's coarser clock.
		err = os.Chtimes(tmp, now, now)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	ks.entries[digest] = now.UnixNano()
	ks.evict()
	return nil
}

func encodeBlob(key string, sum uint64, payload []byte) []byte {
	buf := make([]byte, 0, len(blobMagic)+4+4+len(key)+8+8+len(payload))
	buf = append(buf, blobMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVer)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint64(buf, sum)
	buf = append(buf, payload...)
	return buf
}

var (
	errBadMagic   = errors.New("store: bad blob magic")
	errBadVersion = errors.New("store: blob format version mismatch")
	errCorrupt    = errors.New("store: blob integrity check failed")
)

// decodeBlob parses and verifies a blob file's bytes.
func decodeBlob(data []byte) (key string, payload []byte, err error) {
	if len(data) < len(blobMagic)+8 || string(data[:8]) != blobMagic {
		return "", nil, errBadMagic
	}
	if binary.LittleEndian.Uint32(data[8:12]) != formatVer {
		return "", nil, errBadVersion
	}
	keyLen := int(binary.LittleEndian.Uint32(data[12:16]))
	if len(data) < 16+keyLen+16 {
		return "", nil, errCorrupt
	}
	key = string(data[16 : 16+keyLen])
	off := 16 + keyLen
	payLen := int(binary.LittleEndian.Uint64(data[off : off+8]))
	sum := binary.LittleEndian.Uint64(data[off+8 : off+16])
	if len(data) != off+16+payLen {
		return "", nil, errCorrupt
	}
	payload = data[off+16:]
	if Sum(payload) != sum {
		return "", nil, errCorrupt
	}
	return key, payload, nil
}

// Load iterates the persisted blobs of a kind, oldest first (so a caller
// inserting into an LRU ends with the newest entries most recent), handing
// each verified (key, payload) to fn. fn reports whether it could decode
// the payload; a false return counts as a corruption and deletes the blob,
// exactly like a failed integrity check. A blob whose header, length or
// recomputed sum is wrong, whose key does not hash to its file name, or
// whose format version mismatches is skipped, counted and deleted — a
// corrupt disk tier must never poison the in-memory caches.
func (s *Store) Load(kind string, fn func(key string, payload []byte) bool) {
	ks, ok := s.kinds[kind]
	if !ok {
		return
	}
	s.mu.Lock()
	ages := make([]blobAge, 0, len(ks.entries))
	for d, nano := range ks.entries {
		ages = append(ages, blobAge{nano, d})
	}
	s.mu.Unlock()
	sort.Slice(ages, func(i, j int) bool { return ages[i].before(ages[j]) })

	for _, age := range ages {
		digest := age.digest
		data, err := os.ReadFile(ks.path(digest))
		if err != nil {
			s.warmIO.Add(1)
			s.forget(kind, digest)
			continue
		}
		key, payload, err := decodeBlob(data)
		if err == nil && keyDigest(key) != digest {
			err = errCorrupt // a blob copied or renamed under another key's name
		}
		switch {
		case errors.Is(err, errBadVersion):
			s.warmVersion.Add(1)
			s.remove(kind, digest)
			continue
		case err != nil:
			s.warmCorrupt.Add(1)
			s.remove(kind, digest)
			continue
		}
		if !fn(key, payload) {
			s.warmCorrupt.Add(1)
			s.remove(kind, digest)
			continue
		}
		if kind == KindBase {
			s.warmBases.Add(1)
		} else {
			s.warmResults.Add(1)
		}
	}
}

func (s *Store) forget(kind string, digest [32]byte) {
	s.mu.Lock()
	delete(s.kinds[kind].entries, digest)
	s.mu.Unlock()
}

func (s *Store) remove(kind string, digest [32]byte) {
	os.Remove(s.kinds[kind].path(digest))
	s.forget(kind, digest)
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	results := int64(len(s.kinds[KindResult].entries))
	bases := int64(len(s.kinds[KindBase].entries))
	s.mu.Unlock()
	return Stats{
		Writes:             s.writes.Load(),
		WriteErrors:        s.writeErr.Load(),
		Dropped:            s.dropped.Load(),
		Pending:            s.pending.Load(),
		ResultEntries:      results,
		BaseEntries:        bases,
		WarmResults:        s.warmResults.Load(),
		WarmBases:          s.warmBases.Load(),
		WarmSkippedCorrupt: s.warmCorrupt.Load(),
		WarmSkippedVersion: s.warmVersion.Load(),
		WarmSkippedIO:      s.warmIO.Load(),
	}
}
