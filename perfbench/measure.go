package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"dscts/internal/eval"
)

// fingerprint is a SHA-256 over the workload's name and generated op list
// (designs, seeds, options, deltas and request order). Two runs measured
// the same work exactly when their fingerprints match.
func fingerprint(workload string, ops any) (string, error) {
	h := sha256.New()
	err := json.NewEncoder(h).Encode(struct {
		Workload string `json:"workload"`
		Ops      any    `json:"ops"`
	}{workload, ops})
	if err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// digest is a comparable summary of one synthesis result: the scalar
// metrics and, when the result carries them, a hash over the per-sink
// delays in sink order. Two results are bit-identical exactly when their
// digests are equal.
type digest struct {
	Latency, Skew, WL float64
	Buffers, NTSVs    int
	SinkDelays        uint64
}

func digestOf(m *eval.Metrics, withSinks bool) digest {
	d := digest{Latency: m.Latency, Skew: m.Skew, WL: m.WL, Buffers: m.Buffers, NTSVs: m.NTSVs}
	if withSinks {
		h := fnv.New64a()
		var b [8]byte
		for i := 0; i < len(m.SinkDelays); i++ {
			v, ok := m.SinkDelays[i]
			if !ok {
				v = math.NaN() // a hole can never match a complete reference
			}
			bits := math.Float64bits(v)
			for k := range b {
				b[k] = byte(bits >> (8 * k))
			}
			h.Write(b[:])
		}
		d.SinkDelays = h.Sum64()
	}
	return d
}

// quality accumulates the paper's quality metrics over distinct results and
// reports their geometric means.
type quality struct {
	lat, skew, wl, buf, tsv []float64
}

func (q *quality) add(m *eval.Metrics) {
	q.lat = append(q.lat, m.Latency)
	q.skew = append(q.skew, m.Skew)
	q.wl = append(q.wl, m.WL/1000)
	q.buf = append(q.buf, float64(m.Buffers))
	q.tsv = append(q.tsv, float64(m.NTSVs))
}

// into stores the geometric means under their metric names.
func (q *quality) into(out map[string]float64) error {
	for _, x := range []struct {
		name string
		vals []float64
	}{
		{"clock_latency_ps", q.lat}, {"clock_skew_ps", q.skew}, {"wirelength_mm", q.wl},
		{"buffers", q.buf}, {"ntsvs", q.tsv},
	} {
		g, err := geomean(x.vals)
		if err != nil {
			return fmt.Errorf("%s: %w", x.name, err)
		}
		out[x.name] = g
	}
	return nil
}

// goldenMetrics is one design's pinned result in testdata/golden.
type goldenMetrics struct {
	Design    string  `json:"design"`
	Sinks     int     `json:"sinks"`
	LatencyPS float64 `json:"latency_ps"`
	SkewPS    float64 `json:"skew_ps"`
	WLum      float64 `json:"wirelength_um"`
	Buffers   int     `json:"buffers"`
	NTSVs     int     `json:"ntsvs"`
}

// goldenRelTol is the golden suite's relative tolerance for floats.
const goldenRelTol = 1e-6

func loadGolden(dir, id string) (*goldenMetrics, error) {
	data, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if err != nil {
		return nil, err
	}
	var g goldenMetrics
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", id, err)
	}
	return &g, nil
}

// checkGolden compares a seed-1 result of a Table II design with its pin.
func checkGolden(g *goldenMetrics, sinks int, m *eval.Metrics) error {
	near := func(a, b float64) bool {
		return a == b || math.Abs(a-b) <= goldenRelTol*math.Max(math.Abs(a), math.Abs(b))
	}
	switch {
	case sinks != g.Sinks:
		return fmt.Errorf("%s: %d sinks, golden %d", g.Design, sinks, g.Sinks)
	case m.Buffers != g.Buffers || m.NTSVs != g.NTSVs:
		return fmt.Errorf("%s: buffers/ntsvs %d/%d, golden %d/%d", g.Design, m.Buffers, m.NTSVs, g.Buffers, g.NTSVs)
	case !near(m.Latency, g.LatencyPS) || !near(m.Skew, g.SkewPS) || !near(m.WL, g.WLum):
		return fmt.Errorf("%s: latency/skew/wl %.9g/%.9g/%.9g, golden %.9g/%.9g/%.9g",
			g.Design, m.Latency, m.Skew, m.WL, g.LatencyPS, g.SkewPS, g.WLum)
	}
	return nil
}

// rtSnap is a reading of the Go runtime's cumulative counters and of the
// process's peak resident set so far.
type rtSnap struct {
	allocBytes uint64
	gcCycles   uint64
	pauseNs    uint64
	peakRSSMB  float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// heapAllocBytes reads the cumulative heap bytes allocated.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func readRuntime() rtSnap {
	s := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSnap{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), pauseNs: ms.PauseTotalNs, peakRSSMB: peakRSSMB()}
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// phase measures the Go runtime over a run's timed phase: heap bytes
// allocated, GC cycles and pause time, the peak resident set at the phase's
// end, and the peak live heap, sampled every few milliseconds. A run stops
// it before its correctness checks, which use memory of their own.
type phase struct {
	before, after rtSnap
	done          chan struct{}
	wg            sync.WaitGroup
	heapPeak      uint64
}

func startPhase() *phase {
	p := &phase{done: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			p.heapPeak = max(p.heapPeak, s[0].Value.Uint64())
			select {
			case <-p.done:
				return
			case <-t.C:
			}
		}
	}()
	p.before = readRuntime()
	return p
}

// stop ends the phase and waits for the heap sampler to exit.
func (p *phase) stop() {
	p.after = readRuntime()
	close(p.done)
	p.wg.Wait()
}

// into stores the phase's metrics for ops completed operations.
func (p *phase) into(out map[string]float64, ops int) {
	n := float64(max(ops, 1))
	out["alloc_mb_per_op"] = float64(p.after.allocBytes-p.before.allocBytes) / 1e6 / n
	out["gc.cycles_per_op"] = float64(p.after.gcCycles-p.before.gcCycles) / n
	out["gc.pause_ms_per_op"] = float64(p.after.pauseNs-p.before.pauseNs) / 1e6 / n
	out["peak_rss_mb"] = p.after.peakRSSMB
	out["heap.peak_mb"] = float64(p.heapPeak) / 1e6
}
