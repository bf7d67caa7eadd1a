package serve

import (
	"container/list"
	"fmt"
	"math"
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
	// EncodeDrops counts results the checksum refused at store time
	// because they have no JSON encoding (a NaN or infinite float); each
	// was dropped instead of cached (result cache only).
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

// cachedResult is one result-cache entry: the immutable result plus the
// integrity checksum computed at store time.
type cachedResult struct {
	res *Result
	sum uint64
}

// cache is the result cache: a checksummed LRU. Every entry's checksum is
// computed when stored and re-verified on every read; a mismatch means the
// entry was corrupted in place (injected by the fault harness, or real
// memory damage once entries live off-heap), so Get evicts it and reports a
// miss — the caller recomputes instead of serving garbage.
type cache struct {
	lru         *lru[cachedResult]
	encodeDrops atomic.Int64
}

func newCache(maxEntries int) *cache {
	return &cache{lru: newLRU[cachedResult](maxEntries, 128)}
}

// Get returns the cached result after verifying its checksum. Verification
// runs under the LRU lock so the hit/miss/corruption counters stay
// mutually consistent (see lru.GetChecked).
func (c *cache) Get(key string) (*Result, bool) {
	e, ok := c.lru.GetChecked(key, func(e cachedResult) bool {
		sum, err := sumResult(e.res)
		return err == nil && sum == e.sum
	})
	if !ok {
		return nil, false
	}
	return e.res, true
}

// Put stores a result with a fresh checksum. A result with no JSON
// encoding — which a well-formed engine result never is — is dropped and
// counted instead of stored: it could be neither served nor persisted.
func (c *cache) Put(key string, res *Result) bool {
	sum, err := sumResult(res)
	if err != nil {
		c.encodeDrops.Add(1)
		return false
	}
	c.lru.Put(key, cachedResult{res: res, sum: sum})
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

// sumResult is the result cache's integrity checksum: a structural hash
// that walks the Result by reflection instead of encoding it. Struct fields
// hash in declaration order; a slice or array hashes its length, then its
// elements; a pointer or interface hashes whether it is nil, then its
// target; a string hashes its length and bytes; a float its bits; an
// integer or bool its value. A map hashes its length and the wrapping sum
// of one mixed hash per (key, value) entry, so Go's random iteration order
// still gives one sum; map[int]float64 (every SinkDelays) takes a typed
// fast path.
//
// The walk also keeps Put's promise that a cached result encodes. No type
// reachable from Result has a custom marshaler, so json.Marshal fails on
// one only for a NaN or infinite float, a map key it cannot spell, or a
// kind it has no form for (func, chan, complex), and sumResult returns an
// error on exactly those. An error is surfaced, never summed over: a sum
// of a partial walk would read as in-place corruption on the next Get.
func sumResult(r *Result) (uint64, error) {
	h := hasher(sumSeed)
	if err := h.walk(reflect.ValueOf(r)); err != nil {
		return 0, err
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
	case reflect.Map:
		acc, err := mapSum(v)
		if err != nil {
			return err
		}
		h.word(uint64(v.Len()))
		h.word(acc)
	default:
		return fmt.Errorf("serve: result field of type %s has no JSON encoding", v.Type())
	}
	return nil
}

// mapSum is the order-independent part of a map's hash: the wrapping sum
// of one mixed hash per entry.
func mapSum(v reflect.Value) (uint64, error) {
	var acc uint64
	if m, ok := v.Interface().(map[int]float64); ok {
		for k, f := range m {
			if err := finite(f); err != nil {
				return 0, err
			}
			acc += mix64(mix64(uint64(k)) ^ math.Float64bits(f))
		}
		return acc, nil
	}
	switch v.Type().Key().Kind() {
	case reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
	default:
		return 0, fmt.Errorf("serve: result map key of type %s has no JSON encoding", v.Type().Key())
	}
	for it := v.MapRange(); it.Next(); {
		e := hasher(sumSeed)
		if err := e.walk(it.Key()); err != nil {
			return 0, err
		}
		if err := e.walk(it.Value()); err != nil {
			return 0, err
		}
		acc += mix64(uint64(e))
	}
	return acc, nil
}
