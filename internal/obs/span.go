package obs

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// Tracer accumulates one job's per-phase totals from the flow's progress
// events (core.Options.Progress): each End adds one closed span with its
// engine-measured elapsed time to its phase, and each Point counts one
// point event (sweep points, per-region or per-cluster completions,
// per-corner completions) against its phase. A nil *Tracer is a no-op.
// Safe for concurrent use — progress callbacks may arrive from multiple
// goroutines.
type Tracer struct {
	mu    sync.Mutex
	spans []PhaseTotal // phases with a closed span, in first-completion order
	pts   map[string]int
}

// PhaseTotal aggregates a job's spans per phase — the phase-by-phase
// breakdown returned in job results and fed to the per-phase histograms.
type PhaseTotal struct {
	Phase string `json:"phase"`
	// Count is the number of closed spans (a partitioned ECO can re-enter a
	// phase; the monolithic flow closes each once).
	Count int `json:"count"`
	// Points is the number of point events (sweep points, regions, corners,
	// dirty clusters) the phase reported.
	Points int `json:"points,omitempty"`
	// MS is the summed span duration, ms.
	MS float64 `json:"ms"`
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{pts: make(map[string]int)}
}

// End closes one span of a phase that took elapsed, the engine-measured
// duration the flow itself reports in Outcome.
func (t *Tracer) End(phase string, elapsed time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	i := slices.IndexFunc(t.spans, func(p PhaseTotal) bool { return p.Phase == phase })
	if i < 0 {
		i = len(t.spans)
		t.spans = append(t.spans, PhaseTotal{Phase: phase})
	}
	t.spans[i].Count++
	t.spans[i].MS += float64(elapsed) / float64(time.Millisecond)
	t.mu.Unlock()
}

// Point counts one point event against a phase (open or not).
func (t *Tracer) Point(phase string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pts[phase]++
	t.mu.Unlock()
}

// Totals returns the per-phase totals, ordered by first completion;
// point-only phases (e.g. DSE sweeps) follow by name with Count 0.
func (t *Tracer) Totals() []PhaseTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := slices.Clone(t.spans)
	var pointOnly []string
	for ph := range t.pts {
		if !slices.ContainsFunc(out, func(p PhaseTotal) bool { return p.Phase == ph }) {
			pointOnly = append(pointOnly, ph)
		}
	}
	sort.Strings(pointOnly)
	for _, ph := range pointOnly {
		out = append(out, PhaseTotal{Phase: ph})
	}
	for i := range out {
		out[i].Points = t.pts[out[i].Phase]
	}
	return out
}
