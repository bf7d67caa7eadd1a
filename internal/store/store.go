// Package store is dsctsd's disk-backed persistence tier: a
// content-addressed blob store with write-behind, FNV-64a integrity sums
// and a compact fixed-record index, built so the in-memory result cache and
// the retained ECO bases survive a restart.
//
// The store is deliberately payload-agnostic — it persists opaque byte
// blobs under (kind, key) — so it knows nothing about the serve package's
// result payloads (a JSON head plus binary sink-delay lanes) or
// gob-encoded base outcomes. serve hands Put an encoder, the writer runs
// it and persists the bytes, and warm-start hands the bytes back for serve
// to decode. The format version in every header and in the index changes
// whenever a payload's layout does, so a directory written at another
// version is skipped and counted, never misread.
//
// On-disk layout under the configured directory:
//
//	results/<hex(sha256(key))>.blob   result payloads
//	bases/<hex(sha256(key))>.blob     retained ECO base snapshots
//	index.bin                         fixed 64-byte records, appended per write
//
// Every blob carries a magic tag, a format version, the full original key
// and an FNV-64a sum over the payload; every index record carries the key
// digest, the sum and the payload size. Warm-start trusts neither alone: a
// blob whose header, index record and recomputed sum disagree is skipped,
// counted and deleted rather than loaded, and so is one whose header Open
// cannot read. A missing or corrupt index is not fatal — the store falls
// back to scanning the blob directories and rebuilds the index from the
// surviving files.
//
// Writes are write-behind: Put enqueues an encoder and returns
// immediately, and a single writer goroutine runs it, persists the bytes
// via temp-file-plus-rename and appends the index record. The encode
// therefore costs the job path nothing. A full write queue drops the entry
// (and counts the drop) instead of stalling the job path — the disk tier
// is an accelerator, never a dependency.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
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
	blobMagic    = "DSCTSBLB"
	indexMagic   = "DSCTSIDX"
	formatVer    = 3
	indexRecSize = 64
	indexHdrSize = 16
)

// Defaults applied by Open for zero Config fields.
const (
	DefaultMaxResults = 4096
	DefaultMaxBases   = 32
	DefaultQueueDepth = 256
)

// Config sizes the store.
type Config struct {
	// Dir is the root directory; created if absent.
	Dir string
	// MaxResults / MaxBases cap the blob count per kind; the oldest files
	// are deleted first (the on-disk tier mirrors the in-memory LRUs).
	MaxResults int
	MaxBases   int
	// QueueDepth bounds the write-behind buffer; a full buffer drops
	// writes (counted) instead of blocking the job path.
	QueueDepth int
	// Logger receives write failures and warm-start skips. nil discards.
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
	ResultEntries int64 `json:"result_entries"`
	BaseEntries   int64 `json:"base_entries"`
	// WarmResults / WarmBases count entries loaded by warm-start.
	WarmResults int64 `json:"warm_results"`
	WarmBases   int64 `json:"warm_bases"`
	// Warm-start skip reasons: integrity mismatch (header, index or sum
	// disagree, or the caller failed to decode), format-version mismatch,
	// and plain IO errors. Skipped blobs are deleted so they cannot recur.
	WarmSkippedCorrupt int64 `json:"warm_skipped_corrupt,omitempty"`
	WarmSkippedVersion int64 `json:"warm_skipped_version,omitempty"`
	WarmSkippedIO      int64 `json:"warm_skipped_io,omitempty"`
}

// indexRecord is the in-memory form of one fixed 64-byte index record:
//
//	kind uint8, pad [7]byte, digest [32]byte, sum uint64, size uint64,
//	unixNano int64
//
// The layout is alignment-friendly and offset-computable (header + i*64),
// so readers may mmap the file and index into it directly; this
// implementation reads it with plain IO, which on these sizes is just as
// fast.
type indexRecord struct {
	sum  uint64
	size uint64
	nano int64
}

type kindState struct {
	dir string
	max int
	// entries maps key digest → record for every blob believed on disk.
	entries map[[32]byte]indexRecord
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
	cfg   Config
	log   *slog.Logger
	kinds map[string]*kindState

	mu       sync.Mutex // guards kinds' entries maps and the index file
	indexF   *os.File   // append handle; nil after Close
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

// Open creates or reopens a store rooted at cfg.Dir, reconciles the index
// with the blob directories (rebuilding it when missing or corrupt) and
// starts the write-behind writer.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir is required")
	}
	if cfg.MaxResults <= 0 {
		cfg.MaxResults = DefaultMaxResults
	}
	if cfg.MaxBases <= 0 {
		cfg.MaxBases = DefaultMaxBases
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	s := &Store{
		cfg: cfg,
		log: cfg.Logger,
		kinds: map[string]*kindState{
			KindResult: {dir: filepath.Join(cfg.Dir, "results"), max: cfg.MaxResults, entries: map[[32]byte]indexRecord{}},
			KindBase:   {dir: filepath.Join(cfg.Dir, "bases"), max: cfg.MaxBases, entries: map[[32]byte]indexRecord{}},
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
	}
	s.loadIndex()
	s.reconcile()
	if err := s.rewriteIndex(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.indexPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.indexF = f
	s.wg.Add(1)
	go s.writer()
	return s, nil
}

func (s *Store) indexPath() string { return filepath.Join(s.cfg.Dir, "index.bin") }

func keyDigest(key string) [32]byte { return sha256.Sum256([]byte(key)) }

func (s *Store) blobPath(kind string, digest [32]byte) string {
	return filepath.Join(s.kinds[kind].dir, hex.EncodeToString(digest[:])+".blob")
}

func kindByte(kind string) uint8 {
	if kind == KindBase {
		return 1
	}
	return 0
}

func kindOf(b uint8) string {
	if b == 1 {
		return KindBase
	}
	return KindResult
}

// loadIndex reads index.bin into the in-memory maps; a missing or corrupt
// file simply leaves them empty for reconcile to rebuild from the blob
// directories. Later records win, so the appended log needs no in-place
// updates.
func (s *Store) loadIndex() {
	data, err := os.ReadFile(s.indexPath())
	if err != nil || len(data) < indexHdrSize || string(data[:8]) != indexMagic ||
		binary.LittleEndian.Uint32(data[8:12]) != formatVer {
		return
	}
	body := data[indexHdrSize:]
	for off := 0; off+indexRecSize <= len(body); off += indexRecSize {
		rec := body[off : off+indexRecSize]
		ks := s.kinds[kindOf(rec[0])]
		var digest [32]byte
		copy(digest[:], rec[8:40])
		ks.entries[digest] = indexRecord{
			sum:  binary.LittleEndian.Uint64(rec[40:48]),
			size: binary.LittleEndian.Uint64(rec[48:56]),
			nano: int64(binary.LittleEndian.Uint64(rec[56:64])),
		}
	}
}

// reconcile makes the blob directories the ground truth: index records
// whose file vanished are dropped, and blobs the index never heard of
// (crash before the index append, or a rebuilt directory) are adopted with
// the sum and size from their own header. A blob whose header cannot be
// read is deleted and counted in one warm-start skip bucket, like any
// blob Load rejects. A store written at another format version has its
// index ignored, so every one of its blobs comes through here and counts
// as a version skip.
func (s *Store) reconcile() {
	for kind, ks := range s.kinds {
		onDisk := map[[32]byte]bool{}
		des, err := os.ReadDir(ks.dir)
		if err != nil {
			continue
		}
		for _, de := range des {
			name := de.Name()
			if filepath.Ext(name) != ".blob" {
				continue
			}
			raw, err := hex.DecodeString(name[:len(name)-len(".blob")])
			if err != nil || len(raw) != 32 {
				continue
			}
			var digest [32]byte
			copy(digest[:], raw)
			onDisk[digest] = true
			if _, ok := ks.entries[digest]; ok {
				continue
			}
			if _, sum, size, nano, err := readBlobHeader(filepath.Join(ks.dir, name)); err == nil {
				ks.entries[digest] = indexRecord{sum: sum, size: size, nano: nano}
			} else {
				s.countSkip(err)
				s.log.Debug("store: dropping unreadable blob", "kind", kind, "file", name, "error", err)
				os.Remove(filepath.Join(ks.dir, name))
			}
		}
		for digest := range ks.entries {
			if !onDisk[digest] {
				delete(ks.entries, digest)
			}
		}
	}
}

// rewriteIndex writes a compacted index (header + one record per live
// blob) via temp-file-plus-rename.
func (s *Store) rewriteIndex() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rewriteIndexLocked()
}

func (s *Store) rewriteIndexLocked() error {
	var buf []byte
	hdr := make([]byte, indexHdrSize)
	copy(hdr, indexMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], formatVer)
	buf = append(buf, hdr...)
	for kind, ks := range s.kinds {
		for digest, rec := range ks.entries {
			buf = append(buf, encodeIndexRecord(kind, digest, rec)...)
		}
	}
	tmp := s.indexPath() + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, s.indexPath()); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

func encodeIndexRecord(kind string, digest [32]byte, rec indexRecord) []byte {
	out := make([]byte, indexRecSize)
	out[0] = kindByte(kind)
	copy(out[8:40], digest[:])
	binary.LittleEndian.PutUint64(out[40:48], rec.sum)
	binary.LittleEndian.PutUint64(out[48:56], rec.size)
	binary.LittleEndian.PutUint64(out[56:64], uint64(rec.nano))
	return out
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

// Close drains the write-behind queue, compacts the index and releases the
// file handles. Safe to call once; Puts racing Close are dropped.
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
	err := s.rewriteIndex()
	s.mu.Lock()
	if s.indexF != nil {
		s.indexF.Close()
		s.indexF = nil
	}
	s.mu.Unlock()
	return err
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

// persist writes one blob atomically (temp file + rename), appends its
// index record and enforces the per-kind capacity bound.
func (s *Store) persist(kind, key string, payload []byte) error {
	ks := s.kinds[kind]
	digest := keyDigest(key)
	rec := indexRecord{sum: Sum(payload), size: uint64(len(payload)), nano: time.Now().UnixNano()}

	blob := encodeBlob(key, rec.sum, payload)
	path := s.blobPath(kind, digest)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	ks.entries[digest] = rec
	if s.indexF != nil {
		if _, err := s.indexF.Write(encodeIndexRecord(kind, digest, rec)); err != nil {
			s.log.Warn("store: index append failed", "error", err)
		}
	}
	// Capacity: evict the oldest blobs beyond the cap, mirroring the
	// in-memory LRUs' pressure model (recency on disk is write recency).
	for len(ks.entries) > ks.max {
		var oldest [32]byte
		oldestNano := int64(0)
		first := true
		for d, r := range ks.entries {
			if first || r.nano < oldestNano {
				oldest, oldestNano, first = d, r.nano, false
			}
		}
		delete(ks.entries, oldest)
		os.Remove(s.blobPath(kind, oldest))
	}
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
func decodeBlob(data []byte) (key string, sum uint64, payload []byte, err error) {
	if len(data) < len(blobMagic)+8 || string(data[:8]) != blobMagic {
		return "", 0, nil, errBadMagic
	}
	if binary.LittleEndian.Uint32(data[8:12]) != formatVer {
		return "", 0, nil, errBadVersion
	}
	keyLen := int(binary.LittleEndian.Uint32(data[12:16]))
	if len(data) < 16+keyLen+16 {
		return "", 0, nil, errCorrupt
	}
	key = string(data[16 : 16+keyLen])
	off := 16 + keyLen
	payLen := int(binary.LittleEndian.Uint64(data[off : off+8]))
	sum = binary.LittleEndian.Uint64(data[off+8 : off+16])
	if len(data) != off+16+payLen {
		return "", 0, nil, errCorrupt
	}
	payload = data[off+16:]
	if Sum(payload) != sum {
		return "", 0, nil, errCorrupt
	}
	return key, sum, payload, nil
}

// readBlobHeader parses just the header of a blob file (for index
// rebuilds): the key, the stored sum, the payload size and the file mtime.
func readBlobHeader(path string) (key string, sum uint64, size uint64, nano int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, 0, 0, err
	}
	defer f.Close()
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return "", 0, 0, 0, err
	}
	if string(hdr[:8]) != blobMagic {
		return "", 0, 0, 0, errBadMagic
	}
	if binary.LittleEndian.Uint32(hdr[8:12]) != formatVer {
		return "", 0, 0, 0, errBadVersion
	}
	keyLen := int(binary.LittleEndian.Uint32(hdr[12:16]))
	if keyLen < 0 || keyLen > 1<<20 {
		return "", 0, 0, 0, errCorrupt
	}
	rest := make([]byte, keyLen+16)
	if _, err := io.ReadFull(f, rest); err != nil {
		return "", 0, 0, 0, err
	}
	key = string(rest[:keyLen])
	size = binary.LittleEndian.Uint64(rest[keyLen : keyLen+8])
	sum = binary.LittleEndian.Uint64(rest[keyLen+8 : keyLen+16])
	st, err := f.Stat()
	if err != nil {
		return "", 0, 0, 0, err
	}
	return key, sum, size, st.ModTime().UnixNano(), nil
}

// Load iterates the persisted blobs of a kind, oldest first (so a caller
// inserting into an LRU ends with the newest entries most recent), handing
// each verified (key, payload) to fn. fn reports whether it could decode
// the payload; a false return counts as a corruption and deletes the blob,
// exactly like a failed integrity check. Entries whose header, index
// record and recomputed sum disagree, or whose format version mismatches,
// are skipped, counted and deleted — a corrupt disk tier must never poison
// the in-memory caches.
func (s *Store) Load(kind string, fn func(key string, payload []byte) bool) {
	ks, ok := s.kinds[kind]
	if !ok {
		return
	}
	type item struct {
		digest [32]byte
		rec    indexRecord
	}
	s.mu.Lock()
	items := make([]item, 0, len(ks.entries))
	for d, r := range ks.entries {
		items = append(items, item{d, r})
	}
	s.mu.Unlock()
	sort.Slice(items, func(i, j int) bool { return items[i].rec.nano < items[j].rec.nano })

	for _, it := range items {
		path := s.blobPath(kind, it.digest)
		data, err := os.ReadFile(path)
		if err != nil {
			s.warmIO.Add(1)
			s.forget(kind, it.digest)
			continue
		}
		key, sum, payload, err := decodeBlob(data)
		switch {
		case errors.Is(err, errBadVersion):
			s.warmVersion.Add(1)
			s.remove(kind, it.digest)
			continue
		case err != nil:
			s.warmCorrupt.Add(1)
			s.remove(kind, it.digest)
			continue
		}
		// The index record is a second witness: a blob that verifies
		// internally but disagrees with the index was swapped or truncated
		// non-atomically — treat it as corrupt rather than trust either.
		if sum != it.rec.sum || uint64(len(payload)) != it.rec.size || keyDigest(key) != it.digest {
			s.warmCorrupt.Add(1)
			s.remove(kind, it.digest)
			continue
		}
		if !fn(key, payload) {
			s.warmCorrupt.Add(1)
			s.remove(kind, it.digest)
			continue
		}
		if kind == KindBase {
			s.warmBases.Add(1)
		} else {
			s.warmResults.Add(1)
		}
	}
}

// countSkip files a blob that reconcile could not adopt under its skip
// reason: another format version, a damaged header (bad magic, a key
// length out of range, or a file too short for its header), or an IO
// error.
func (s *Store) countSkip(err error) {
	switch {
	case errors.Is(err, errBadVersion):
		s.warmVersion.Add(1)
	case errors.Is(err, errBadMagic), errors.Is(err, errCorrupt),
		errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		s.warmCorrupt.Add(1)
	default:
		s.warmIO.Add(1)
	}
}

func (s *Store) forget(kind string, digest [32]byte) {
	s.mu.Lock()
	delete(s.kinds[kind].entries, digest)
	s.mu.Unlock()
}

func (s *Store) remove(kind string, digest [32]byte) {
	os.Remove(s.blobPath(kind, digest))
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
