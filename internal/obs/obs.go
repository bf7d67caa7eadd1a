// Package obs is the dependency-free observability substrate of the dscts
// service: a metrics registry (counters, gauges, histograms with
// exponential latency buckets) rendered in Prometheus text exposition
// format, and a Go-runtime collector. It deliberately depends on the
// standard library only, and its hot-path instruments (Counter.Add,
// Histogram.Observe) are single atomic operations: no locks, no
// allocations, safe from any goroutine. A gauge is a function read at
// scrape time (GaugeFunc).
//
// Measurement honesty: a nil *Registry is a valid no-op. Every constructor
// on a nil registry returns a nil instrument, and every method of a nil
// instrument returns immediately, so code can thread one optional registry
// through unconditionally — `reg.Counter(...)` then `c.Inc()` — and a
// disabled build pays only a nil check per event.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (a Prometheus label pair). Instruments
// registered under the same family name with different label values render
// as separate samples of one family.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for Label{k, v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// metricKind is the Prometheus TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// sample is one rendered line: a label set and a value source.
type sample struct {
	labels []Label
	value  func() float64
	hist   *Histogram // non-nil for histogram families
	// counterOwner backs CounterOf's lookup-or-create: the instrument the
	// value closure reads, returned on a repeat registration.
	counterOwner *Counter
}

// family is one named metric family with its registered samples.
type family struct {
	name string
	help string
	kind metricKind

	mu      sync.Mutex
	samples []*sample
	byKey   map[string]*sample // label-set key -> sample
}

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is NOT usable; construct with NewRegistry. A nil
// *Registry is the disabled no-op (see the package comment).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns (creating if needed) the named family, enforcing that one
// name keeps one TYPE and HELP for the registry's lifetime.
func (r *Registry) family(name, help string, kind metricKind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byKey: make(map[string]*sample)}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// labelKey canonicalizes a label set for duplicate detection.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// add registers one sample under the family, panicking on an exact
// duplicate (same name and label set): that is always a wiring bug.
func (f *family) add(labels []Label, s *sample) *sample {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := labelKey(labels)
	if _, dup := f.byKey[key]; dup {
		panic(fmt.Sprintf("obs: duplicate registration of %s{%s}", f.name, key))
	}
	s.labels = labels
	f.byKey[key] = s
	f.samples = append(f.samples, s)
	return s
}

// lookup returns the sample for a label set, or nil.
func (f *family) lookup(labels []Label) *sample {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.byKey[labelKey(labels)]
}

// Counter is a monotonically increasing integer metric. All methods are
// safe on a nil receiver (no-op).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 for Prometheus semantics; not enforced).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter registers (or reuses) a counter sample.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindCounter)
	c := &Counter{}
	f.add(labels, &sample{value: func() float64 { return float64(c.v.Load()) }})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge that keeps /metrics and an existing atomic (e.g. a
// /stats counter) sharing one source of truth instead of double-counting.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.family(name, help, kindCounter).add(labels, &sample{value: fn})
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.family(name, help, kindGauge).add(labels, &sample{value: fn})
}

// Histogram is a cumulative-bucket latency/size distribution. Observe is a
// binary search plus two atomic adds: lock-free and allocation-free. Safe
// on a nil receiver.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending, exclusive of +Inf
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v (Prometheus buckets are `le`, inclusive upper bounds).
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.buckets[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Histogram registers a histogram sample with the given bucket upper
// bounds (ascending; +Inf is implicit). nil buckets use LatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = LatencyBuckets
	}
	h := &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds))}
	f := r.family(name, help, kindHistogram)
	f.add(labels, &sample{hist: h})
	return h
}

// HistogramOf returns the already registered histogram for a label set, or
// registers a new one — the lazily-populated "vec" pattern for label values
// not known at wiring time. The lookup takes the family lock; callers on a
// hot path should hold the returned *Histogram instead of re-resolving.
func (r *Registry) HistogramOf(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindHistogram)
	if s := f.lookup(labels); s != nil {
		return s.hist
	}
	if bounds == nil {
		bounds = LatencyBuckets
	}
	h := &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds))}
	f.add(labels, &sample{hist: h})
	return h
}

// CounterOf returns the already registered counter for a label set, or
// registers a new one (see HistogramOf).
func (r *Registry) CounterOf(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindCounter)
	f.mu.Lock()
	key := labelKey(labels)
	if s, ok := f.byKey[key]; ok {
		f.mu.Unlock()
		return s.counterOwner
	}
	c := &Counter{}
	s := &sample{labels: labels, value: func() float64 { return float64(c.v.Load()) }, counterOwner: c}
	f.byKey[key] = s
	f.samples = append(f.samples, s)
	f.mu.Unlock()
	return c
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start with the given factor: start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default histogram layout for request and phase
// latencies, in seconds: 100 µs doubling up to ~210 s, wide enough for a
// cache hit and a million-sink partitioned synthesis on one scale.
var LatencyBuckets = ExpBuckets(100e-6, 2, 22)

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), families sorted by name, samples in registration
// order. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		samples := append([]*sample(nil), f.samples...)
		f.mu.Unlock()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range samples {
			if f.kind == kindHistogram {
				writeHistogram(&b, f.name, s)
				continue
			}
			b.WriteString(f.name)
			writeLabels(&b, s.labels, "")
			b.WriteByte(' ')
			b.WriteString(formatValue(s.value()))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders the cumulative _bucket/_sum/_count triplet.
func writeHistogram(b *strings.Builder, name string, s *sample) {
	h := s.hist
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		b.WriteString(name)
		b.WriteString("_bucket")
		writeLabels(b, s.labels, formatValue(bound))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(cum, 10))
		b.WriteByte('\n')
	}
	count := h.count.Load()
	b.WriteString(name)
	b.WriteString("_bucket")
	writeLabels(b, s.labels, "+Inf")
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(count, 10))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_sum")
	writeLabels(b, s.labels, "")
	b.WriteByte(' ')
	b.WriteString(formatValue(h.Sum()))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	writeLabels(b, s.labels, "")
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(count, 10))
	b.WriteByte('\n')
}

// writeLabels renders {k="v",...}, appending le when non-empty.
func writeLabels(b *strings.Builder, labels []Label, le string) {
	if len(labels) == 0 && le == "" {
		return
	}
	b.WriteByte('{')
	first := true
	for _, l := range labels {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if !first {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatValue renders a float the way Prometheus clients do: shortest
// round-trip representation, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
