package serve

import (
	"container/list"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"
)

// CacheStats is the cache section of GET /stats.
type CacheStats struct {
	Entries    int   `json:"entries"`
	MaxEntries int   `json:"max_entries"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	// Corruptions counts entries whose integrity checksum failed on read;
	// each was evicted and recomputed instead of served (result cache only).
	Corruptions int64 `json:"corruptions,omitempty"`
	// EncodeDrops counts results refused at store time because they have
	// no entry form (a NaN or infinite float, or a sink-delay map not
	// keyed 0..n-1); each was dropped instead of cached (result cache
	// only).
	EncodeDrops int64 `json:"encode_drops,omitempty"`
}

// lru is a content-addressed cache with LRU eviction. Stored values are
// deterministic functions of their key, so entries never go stale; the only
// eviction pressure is capacity. Stored values are treated as immutable by
// all readers. It backs both the result cache (Results, cheap, many
// entries) and the ECO base cache (full retained outcomes, heavy, few
// entries).
type lru[V any] struct {
	mu          sync.Mutex
	max         int
	ll          *list.List // front = most recently used
	items       map[string]*list.Element
	hits        int64
	misses      int64
	evictions   int64
	corruptions int64
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](maxEntries, fallback int) *lru[V] {
	if maxEntries <= 0 {
		maxEntries = fallback
	}
	return &lru[V]{max: maxEntries, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached value for key, counting a hit or a miss.
func (c *lru[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// GetChecked is Get with an integrity gate: the entry is handed to verify
// while the cache lock is held, and a failing entry is removed and counted
// as a corruption, an eviction AND a miss in the same critical section. A
// concurrent Stats snapshot therefore always sees the three counters agree
// about every lookup — there is no window where a corrupted read has been
// counted as a hit but not yet reclassified.
func (c *lru[V]) GetChecked(key string, verify func(V) bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var zero V
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return zero, false
	}
	e := el.Value.(*lruEntry[V])
	if verify != nil && !verify(e.val) {
		c.ll.Remove(el)
		delete(c.items, key)
		c.corruptions++
		c.evictions++
		c.misses++
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return e.val, true
}

// Put stores a value, evicting the least recently used entry beyond
// capacity. Storing an existing key refreshes its value and recency.
func (c *lru[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*lruEntry[V]).key)
		c.evictions++
	}
}

// Peek returns the value without touching recency or the hit/miss counters.
func (c *lru[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// Stats snapshots the counters.
func (c *lru[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries: c.ll.Len(), MaxEntries: c.max,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Corruptions: c.corruptions,
	}
}

// entry is one result-cache entry, in the form the store persists (format
// 3, see encodeEntry): the delay-free head res.view(false), plus one dense
// lane per SinkDelays map in laneMetrics order, lane[i] holding sink i's
// delay. A nil lane stands for a nil map and an empty lane for an empty
// one. sum, computed at Put, covers both parts. An entry is immutable once
// stored: hits, the miss's job record and the store's writer share its
// head and lanes read-only.
type entry struct {
	head  *Result
	lanes [][]float64
	sum   uint64
}

// newEntry splits res into its head and lanes. A delay map must be keyed
// exactly 0..n-1, as every engine result is (ECO removals compact the
// survivors' indices); any other map has no lane form and is an error.
func newEntry(res *Result) (entry, error) {
	ms, err := laneMetrics(res)
	if err != nil {
		return entry{}, err
	}
	lanes := make([][]float64, len(ms))
	for i, m := range ms {
		if m.SinkDelays == nil {
			continue
		}
		lane := make([]float64, len(m.SinkDelays))
		// n distinct keys, each in [0, n): every slot is written once.
		for k, d := range m.SinkDelays {
			if k < 0 || k >= len(lane) {
				return entry{}, fmt.Errorf("serve: sink delay key %d outside 0..%d", k, len(lane)-1)
			}
			lane[k] = d
		}
		lanes[i] = lane
	}
	return entry{head: res.view(false), lanes: lanes}, nil
}

// result is the entry as a response: the head itself, or with
// includeSinkDelays a copy whose Metrics carry maps rebuilt from the lanes.
func (e entry) result(includeSinkDelays bool) *Result {
	if !includeSinkDelays || len(e.lanes) == 0 {
		return e.head
	}
	return e.head.withDelays(func(i int) map[int]float64 {
		lane := e.lanes[i]
		if lane == nil {
			return nil
		}
		m := make(map[int]float64, len(lane))
		for k, d := range lane {
			m[k] = d
		}
		return m
	})
}

// cache is the result cache: a checksummed LRU of entries. Every entry's
// checksum is computed when stored and re-verified on every read; a
// mismatch means the entry was corrupted in place (injected by the fault
// harness, or real memory damage), so Get evicts it and reports a miss —
// the caller recomputes instead of serving garbage.
type cache struct {
	lru         *lru[entry]
	encodeDrops atomic.Int64
}

func newCache(maxEntries int) *cache {
	return &cache{lru: newLRU[entry](maxEntries, 128)}
}

// Get returns the cached entry after verifying its checksum over the head
// and every lane word. Verification runs under the LRU lock so the
// hit/miss/corruption counters stay mutually consistent (see
// lru.GetChecked).
func (c *cache) Get(key string) (entry, bool) {
	return c.lru.GetChecked(key, func(e entry) bool {
		sum, err := sumEntry(e)
		return err == nil && sum == e.sum
	})
}

// Put stores res as an entry and returns it. A result with no entry form
// or no JSON encoding — a delay map not keyed 0..n-1, or a NaN or infinite
// float — is refused and counted in encode_drops: it could be neither
// served nor persisted. A well-formed engine result is never refused.
func (c *cache) Put(key string, res *Result) (entry, bool) {
	e, err := newEntry(res)
	if err != nil {
		c.encodeDrops.Add(1)
		return entry{}, false
	}
	return e, c.add(key, e)
}

// add stores an entry with a fresh checksum, refusing (and counting) one
// the checksum walk rejects. Warm start adds decoded entries directly.
func (c *cache) add(key string, e entry) bool {
	sum, err := sumEntry(e)
	if err != nil {
		c.encodeDrops.Add(1)
		return false
	}
	e.sum = sum
	c.lru.Put(key, e)
	return true
}

// Has reports whether a key is present without touching recency or the
// hit/miss counters: cluster routing peeks before forwarding a request to
// its ring owner, and a peek must not distort the cache statistics.
func (c *cache) Has(key string) bool {
	_, ok := c.lru.Peek(key)
	return ok
}

// Corrupt flips the stored checksum of an entry, simulating in-place
// corruption for the fault harness and tests; the next Get must detect it.
// It flips the sum, not the data, because the store's writer may still be
// encoding the entry's head and lanes.
func (c *cache) Corrupt(key string) bool {
	e, ok := c.lru.Peek(key)
	if !ok {
		return false
	}
	e.sum ^= 0xdeadbeef
	c.lru.Put(key, e)
	return true
}

// Stats snapshots the counters. A corrupted read counts as a miss (the
// caller recomputed), not a hit, and its eviction is included in Evictions;
// all three are taken from one LRU snapshot, so no transient combination
// (negative hits included) is ever observable.
func (c *cache) Stats() CacheStats {
	st := c.lru.Stats()
	st.EncodeDrops = c.encodeDrops.Load()
	return st
}

// sumEntry is the result cache's integrity checksum, over every byte a hit
// serves: a structural walk of the head, then every lane word.
//
// The head walk visits the Result by reflection instead of encoding it.
// Struct fields hash in declaration order; a slice or array hashes its
// length, then its elements; a pointer or interface hashes whether it is
// nil, then its target; a string hashes its length and bytes; a float its
// bits; an integer or bool its value. A head carries no map: its delay
// maps are nil, and hash like a nil pointer.
//
// The walk also keeps Put's promise that a cached entry encodes. No type
// reachable from Result has a custom marshaler, so json.Marshal of the head
// fails only on a NaN or infinite float or a kind it has no form for
// (func, chan, complex), and sumEntry returns an error on exactly those,
// on a non-nil map in the head, and on a NaN or infinite lane word. An
// error is surfaced, never summed over: a sum of a partial walk would read
// as in-place corruption on the next Get.
func sumEntry(e entry) (uint64, error) {
	h := hasher(sumSeed)
	if err := h.walk(reflect.ValueOf(e.head)); err != nil {
		return 0, err
	}
	h.word(uint64(len(e.lanes)))
	for _, lane := range e.lanes {
		if err := h.lane(lane); err != nil {
			return 0, err
		}
	}
	return uint64(h), nil
}

// sumSeed is the walk's initial state (the FNV-64 offset basis).
const sumSeed = 0xcbf29ce484222325

// hasher is the walk's running state. Each word is folded in by a
// bijective mix, so changing any single word of the walk changes the sum.
type hasher uint64

func (h *hasher) word(x uint64) { *h = hasher(mix64(uint64(*h) ^ x)) }

// mix64 is the splitmix64 finalizer, a bijection on 64-bit words.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func finite(f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("serve: result float %v has no JSON encoding", f)
	}
	return nil
}

// expBits are a float64's exponent bits, all set only in a NaN or an Inf.
const expBits = 0x7ff0000000000000

// lane folds one delay lane into h: nilLane for a nil lane, else its
// length, then every word by position. Word i feeds accumulator i mod 4
// through xxHash64's round (acc += w·p2; acc = rotl(acc, 31)·p1), which is
// a bijection in w for a fixed acc and in acc for a fixed w, so changing
// any one word changes its accumulator's end state and with it the sum.
// The four accumulators let neighbouring words' multiplies overlap; they
// fold back into h in order.
func (h *hasher) lane(xs []float64) error {
	if xs == nil {
		h.word(nilLane)
		return nil
	}
	h.word(uint64(len(xs)))
	s := uint64(*h)
	a0, a1, a2, a3 := s+prime1+prime2, s+prime2, s, s-prime1
	for ; len(xs) >= 4; xs = xs[4:] {
		b0, b1 := math.Float64bits(xs[0]), math.Float64bits(xs[1])
		b2, b3 := math.Float64bits(xs[2]), math.Float64bits(xs[3])
		if b0&expBits == expBits || b1&expBits == expBits || b2&expBits == expBits || b3&expBits == expBits {
			for _, f := range xs[:4] {
				if err := finite(f); err != nil {
					return err
				}
			}
		}
		a0, a1, a2, a3 = round(a0, b0), round(a1, b1), round(a2, b2), round(a3, b3)
	}
	for _, f := range xs {
		if err := finite(f); err != nil {
			return err
		}
		a0 = round(a0, math.Float64bits(f))
	}
	h.word(a0)
	h.word(a1)
	h.word(a2)
	h.word(a3)
	return nil
}

// prime1 and prime2 are xxHash64's first two primes, both odd.
const (
	prime1 = 0x9e3779b185ebca87
	prime2 = 0xc2b2ae3d27d4eb4f
)

func round(acc, w uint64) uint64 {
	return bits.RotateLeft64(acc+w*prime2, 31) * prime1
}

func (h *hasher) walk(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		b := uint64(0)
		if v.Bool() {
			b = 1
		}
		h.word(b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		h.word(v.Uint())
	case reflect.Float32, reflect.Float64:
		if err := finite(v.Float()); err != nil {
			return err
		}
		h.word(math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		h.word(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h.word(uint64(s[i]))
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			h.word(0)
			return nil
		}
		h.word(1)
		return h.walk(v.Elem())
	case reflect.Map:
		if !v.IsNil() {
			return fmt.Errorf("serve: result head carries a %s; delay maps belong in the lanes", v.Type())
		}
		h.word(0)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := h.walk(v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Slice, reflect.Array:
		h.word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			if err := h.walk(v.Index(i)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("serve: result field of type %s has no JSON encoding", v.Type())
	}
	return nil
}
