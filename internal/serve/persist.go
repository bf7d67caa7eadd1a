package serve

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"

	"dscts/internal/core"
	"dscts/internal/store"
)

// This file is the queue's bridge to the disk persistence tier
// (internal/store). The store is payload-agnostic — it moves checksummed
// byte blobs — so everything format-shaped lives here: cached Results
// persist as their canonical JSON, retained ECO base outcomes persist as
// gob snapshots. Writes are fire-and-forget behind the in-memory caches:
// the queue hands the store an encoder over the immutable cached value, and
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
		res := new(Result)
		if err := json.Unmarshal(payload, res); err != nil {
			return false
		}
		if !q.cache.Put(key, res) {
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

// persistResult writes a freshly cached result behind the in-memory cache.
// Best-effort and non-blocking: a full write-behind queue drops the entry
// (counted by the store), costing a cold miss after the next restart. The
// store's writer encodes res, which is safe because a cached Result is
// never mutated; cache.Put has already refused any result JSON cannot
// encode.
func (q *Queue) persistResult(key string, res *Result) {
	if st := q.cfg.Store; st != nil {
		st.Put(store.KindResult, key, func() ([]byte, error) { return json.Marshal(res) })
	}
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
