package obs

import (
	"sort"
	"sync"
	"time"
)

// Tracer records one job's phase timeline from the flow's begin/end
// progress events (core.Options.Progress): each phase opens with a begin
// event and closes with an end event carrying the engine-measured elapsed
// time; point events (sweep points, per-region or per-cluster completions,
// per-corner completions) are counted against the phase they belong to.
// A nil *Tracer is a no-op. Safe for concurrent use — progress callbacks
// may arrive from multiple goroutines.
type Tracer struct {
	mu    sync.Mutex
	start time.Time
	open  map[string]time.Time
	spans []Span
	pts   map[string]int
}

// Span is one closed phase interval of a job timeline.
type Span struct {
	// Phase is the flow phase name (route, insert, refine, eval, corners,
	// partition, stitch, eco, sweep).
	Phase string `json:"phase"`
	// StartMS is the phase's offset from the tracer's first event, ms.
	StartMS float64 `json:"start_ms"`
	// DurMS is the phase duration, ms: the engine-reported elapsed when the
	// end event carried one (deterministic), wall-clock since begin
	// otherwise.
	DurMS float64 `json:"dur_ms"`
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

// NewTracer returns an empty tracer; the timeline origin is the first
// event.
func NewTracer() *Tracer {
	return &Tracer{open: make(map[string]time.Time), pts: make(map[string]int)}
}

// now returns the current time, pinning the timeline origin on first use.
func (t *Tracer) now() time.Time {
	n := time.Now()
	if t.start.IsZero() {
		t.start = n
	}
	return n
}

// Begin opens a phase span.
func (t *Tracer) Begin(phase string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.open[phase] = t.now()
	t.mu.Unlock()
}

// End closes a phase span. elapsed, when positive, is the engine-measured
// duration (preferred: it is what the flow itself reports in Outcome);
// zero falls back to wall-clock since Begin. An End without a Begin
// records a span at the current offset with the given elapsed.
func (t *Tracer) End(phase string, elapsed time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	n := t.now()
	began, ok := t.open[phase]
	if ok {
		delete(t.open, phase)
	} else {
		began = n
	}
	dur := elapsed
	if dur <= 0 && ok {
		dur = n.Sub(began)
	}
	t.spans = append(t.spans, Span{
		Phase:   phase,
		StartMS: float64(began.Sub(t.start)) / float64(time.Millisecond),
		DurMS:   float64(dur) / float64(time.Millisecond),
	})
	t.mu.Unlock()
}

// Point counts one point event against a phase (open or not).
func (t *Tracer) Point(phase string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.now()
	t.pts[phase]++
	t.mu.Unlock()
}

// Totals aggregates the closed spans per phase, ordered by first
// completion; point-only phases (e.g. DSE sweeps) appear with Count 0.
func (t *Tracer) Totals() []PhaseTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := make(map[string]int)
	var out []PhaseTotal
	for _, s := range t.spans {
		i, ok := idx[s.Phase]
		if !ok {
			i = len(out)
			idx[s.Phase] = i
			out = append(out, PhaseTotal{Phase: s.Phase})
		}
		out[i].Count++
		out[i].MS += s.DurMS
	}
	// Phases that only ever reported points still deserve a row.
	var pointOnly []string
	for ph := range t.pts {
		if _, ok := idx[ph]; !ok {
			pointOnly = append(pointOnly, ph)
		}
	}
	sort.Strings(pointOnly)
	for _, ph := range pointOnly {
		idx[ph] = len(out)
		out = append(out, PhaseTotal{Phase: ph})
	}
	for ph, n := range t.pts {
		out[idx[ph]].Points = n
	}
	return out
}
