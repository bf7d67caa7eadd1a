package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"dscts/internal/core"
	"dscts/internal/eval"
	"dscts/internal/store"
)

// This file is the queue's bridge to the disk persistence tier
// (internal/store). The store is payload-agnostic — it moves checksummed
// byte blobs — so everything format-shaped lives here: result-cache
// entries persist as the JSON of their head plus their delay lanes copied
// as they are (encodeEntry), retained ECO base outcomes persist as gob
// snapshots. Writes are fire-and-forget behind the in-memory caches: the
// queue hands the store an encoder over the immutable cached value, and
// the store's writer goroutine runs it, off the running slot.
// Reads happen exactly once, at NewQueue, to warm-start the caches before
// the first submission.

// warmStart reloads persisted entries into the in-memory caches. Entries
// that fail to decode are reported corrupt to the store (which counts and
// deletes them); a corrupt or truncated file can therefore cost at most one
// cold miss, never an error surfaced to a client.
func (q *Queue) warmStart() {
	st := q.cfg.Store
	if st == nil {
		return
	}
	var results, bases int
	st.Load(store.KindResult, func(key string, payload []byte) bool {
		e, err := decodeEntry(payload)
		if err != nil {
			return false
		}
		if !q.cache.add(key, e) {
			return false
		}
		results++
		return true
	})
	st.Load(store.KindBase, func(key string, payload []byte) bool {
		out, err := decodeBaseOutcome(payload)
		if err != nil {
			return false
		}
		q.bases.Put(key, out)
		bases++
		return true
	})
	s := st.Stats()
	q.log.Info("warm start from persistent store",
		"results", results, "bases", bases,
		"skipped_corrupt", s.WarmSkippedCorrupt,
		"skipped_version", s.WarmSkippedVersion,
		"skipped_io", s.WarmSkippedIO)
}

// persistResult writes a freshly cached entry behind the in-memory cache.
// Best-effort and non-blocking: a full write-behind queue drops the entry
// (counted by the store), costing a cold miss after the next restart. The
// store's writer encodes e, which is safe because a cached entry is never
// mutated; cache.Put has already refused any result JSON cannot encode.
func (q *Queue) persistResult(key string, e entry) {
	if st := q.cfg.Store; st != nil {
		st.Put(store.KindResult, key, func() ([]byte, error) { return encodeEntry(e) })
	}
}

// A persisted result (store format 3) is a cache entry as it is in memory:
// its head's JSON, then its lanes as dense binary words:
//
//	uint64 n | n bytes: json.Marshal(head), head = res.view(false)
//	per lane: uint64 count (nilLane for a nil map) | count float64 bits
//
// There is one lane per SinkDelays map, in laneMetrics order: the top-level
// Metrics, then each corner's. Lane entry i is sink i's delay (cache.Put
// refuses a map not keyed 0..count-1). All integers and float bits are
// little-endian. The lanes are copied, not formatted: a C1 slow/typ/fast
// result takes 142 KB this way and 448 KB as JSON with decimal maps.
const nilLane = ^uint64(0)

// laneMetrics lists the Metrics whose SinkDelays an entry holds as lanes,
// in lane order. A corner result without Metrics has no response shape
// (view dereferences it), so it is an error rather than a panic.
func laneMetrics(r *Result) ([]*eval.Metrics, error) {
	var ms []*eval.Metrics
	if r.Metrics != nil {
		ms = append(ms, r.Metrics)
	}
	if r.Corners != nil {
		for i := range r.Corners.Results {
			m := r.Corners.Results[i].Metrics
			if m == nil {
				return nil, fmt.Errorf("serve: corner result %d has no metrics", i)
			}
			ms = append(ms, m)
		}
	}
	return ms, nil
}

// encodeEntry is the store payload of a cache entry.
func encodeEntry(e entry) ([]byte, error) {
	head, err := json.Marshal(e.head)
	if err != nil {
		return nil, fmt.Errorf("serve: result head: %w", err)
	}
	size := 8 + len(head)
	for _, lane := range e.lanes {
		size += 8 + 8*len(lane)
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint64(buf, uint64(len(head)))
	at := 8 + copy(buf[8:], head)
	for _, lane := range e.lanes {
		count := uint64(len(lane))
		if lane == nil {
			count = nilLane
		}
		binary.LittleEndian.PutUint64(buf[at:], count)
		at += 8
		for _, d := range lane {
			binary.LittleEndian.PutUint64(buf[at:], math.Float64bits(d))
			at += 8
		}
	}
	return buf, nil
}

var errResultPayload = errors.New("serve: malformed result payload")

// decodeEntry is the inverse of encodeEntry. It accepts only what
// encodeEntry writes: the head must be canonical (re-encoding its view
// gives the same bytes, so it carries no delay maps of its own), every
// lane count must fit the bytes left before anything is allocated, and
// nothing may follow the last lane. The entry it returns has no sum yet;
// cache.add computes it.
func decodeEntry(payload []byte) (entry, error) {
	rest := payload
	next := func() (uint64, bool) {
		if len(rest) < 8 {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		return v, true
	}
	n, ok := next()
	if !ok || n > uint64(len(rest)) {
		return entry{}, errResultPayload
	}
	head := rest[:n]
	rest = rest[n:]
	res := new(Result)
	if err := json.Unmarshal(head, res); err != nil {
		return entry{}, fmt.Errorf("%w: %v", errResultPayload, err)
	}
	ms, err := laneMetrics(res)
	if err != nil {
		return entry{}, fmt.Errorf("%w: %v", errResultPayload, err)
	}
	if again, err := json.Marshal(res.view(false)); err != nil || !bytes.Equal(again, head) {
		return entry{}, fmt.Errorf("%w: head is not the canonical delay-free view", errResultPayload)
	}
	lanes := make([][]float64, len(ms))
	for i := range lanes {
		count, ok := next()
		if !ok {
			return entry{}, errResultPayload
		}
		if count == nilLane {
			continue
		}
		if count > uint64(len(rest)/8) {
			return entry{}, fmt.Errorf("%w: lane of %d delays past the end", errResultPayload, count)
		}
		lane := make([]float64, count)
		for k := range lane {
			lane[k] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*k:]))
		}
		rest = rest[8*count:]
		lanes[i] = lane
	}
	if len(rest) != 0 {
		return entry{}, fmt.Errorf("%w: %d trailing bytes", errResultPayload, len(rest))
	}
	return entry{head: res, lanes: lanes}, nil
}

// persistBase snapshots a retained base outcome so POST /eco survives a
// restart without re-synthesizing its base. The store's writer encodes out
// while later ECO jobs read it: both only read, since an ECO run clones the
// retained tree before splicing it.
func (q *Queue) persistBase(key string, out *core.Outcome) {
	st := q.cfg.Store
	if st == nil || out == nil || out.Retained == nil {
		return
	}
	st.Put(store.KindBase, key, func() ([]byte, error) { return encodeBaseOutcome(out) })
}

// storeStats snapshots the persistence tier for GET /stats; nil when
// persistence is disabled.
func (q *Queue) storeStats() *store.Stats {
	if q.cfg.Store == nil {
		return nil
	}
	s := q.cfg.Store.Stats()
	return &s
}

// encodeBaseOutcome gob-encodes a base outcome for persistence. The
// retained options are copied with the per-run scaffolding stripped:
// Progress closures capture live jobs, and a fault registry is test
// equipment — neither belongs in a snapshot that outlives the process.
func encodeBaseOutcome(out *core.Outcome) ([]byte, error) {
	c := *out
	ret := *out.Retained
	ret.Opt.Progress = nil
	ret.Opt.Faults = nil
	c.Retained = &ret
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeBaseOutcome is the inverse of encodeBaseOutcome. A snapshot whose
// retained state /eco could not splice against (missing, or structurally
// inconsistent despite a valid store checksum) reports as corrupt, so the
// next /eco on its key re-synthesizes the base instead of failing.
func decodeBaseOutcome(payload []byte) (*core.Outcome, error) {
	out := new(core.Outcome)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(out); err != nil {
		return nil, err
	}
	if err := out.ValidateRetained(); err != nil {
		return nil, fmt.Errorf("serve: base snapshot: %w", err)
	}
	return out, nil
}
