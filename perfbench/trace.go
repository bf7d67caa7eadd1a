package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, recorded from the benchmark's side of the
// call: its layer name, its bounds, the span that caused it and the op it
// belongs to. Spans of one op share Op; the op's own span has layer "op".
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"` // 0: no parent
	Op     int     `json:"op"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs share the traced code paths at no cost.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(x time.Time) float64 { return float64(x.Sub(t.epoch)) / float64(time.Microsecond) }

// begin opens a span starting now and returns its ID.
func (t *tracer) begin(op, parent int, layer string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.record(op, parent, layer, now, now)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose bounds are already known and returns its ID.
func (t *tracer) record(op, parent int, layer string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Start: t.at(start), End: t.at(end)})
	return id
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each layer's summed self time in ms: a span's duration
// minus the part of its interval that its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		covered := unionWithin(children[s.ID], s.Start, s.End)
		out[s.Layer] += (s.dur() - covered) / 1000
	}
	return out
}

// coverage returns the mean, over ops, of the share of each op span's wall
// time that the op's other spans cover.
func coverage(spans []span) float64 {
	roots := make(map[int]span)
	inner := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Layer == "op" {
			roots[s.Op] = s
		} else {
			inner[s.Op] = append(inner[s.Op], [2]float64{s.Start, s.End})
		}
	}
	if len(roots) == 0 {
		return 0
	}
	sum := 0.0
	for op, r := range roots {
		if r.dur() > 0 {
			sum += unionWithin(inner[op], r.Start, r.End) / r.dur()
		}
	}
	return sum / float64(len(roots))
}

// unionWithin is the length of the union of the intervals clipped to
// [lo, hi].
func unionWithin(iv [][2]float64, lo, hi float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]float64(nil), iv...)
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total, curLo, curHi := 0.0, 0.0, 0.0
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeTrace writes a traced run's spans as one JSON array next to its
// report.
func writeTrace(cfg config, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-spans.json", cfg.workload, cfg.seed)
	return os.WriteFile(filepath.Join(cfg.outDir, name), data, 0o644)
}
