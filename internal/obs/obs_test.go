package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "h")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	h := r.Histogram("h_seconds", "h", nil)
	h.Observe(0.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil histogram recorded")
	}
	r.CounterFunc("f_total", "h", func() float64 { return 1 })
	r.GaugeFunc("f", "h", func() float64 { return 1 })
	RegisterRuntime(r)
	RegisterBuildInfo(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry rendered %q, err %v", sb.String(), err)
	}
}

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dscts_widgets_total", "Widgets made.", L("kind", "a"))
	c2 := r.Counter("dscts_widgets_total", "Widgets made.", L("kind", "b"))
	c.Add(3)
	c2.Inc()
	depth := 7.0
	r.GaugeFunc("dscts_depth", "Queue depth.", func() float64 { return depth })
	r.GaugeFunc("dscts_temp", "From a func.", func() float64 { return 1.5 })
	depth -= 2 // read at render time, not at registration

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP dscts_widgets_total Widgets made.",
		"# TYPE dscts_widgets_total counter",
		`dscts_widgets_total{kind="a"} 3`,
		`dscts_widgets_total{kind="b"} 1`,
		"# TYPE dscts_depth gauge",
		"dscts_depth 5",
		"dscts_temp 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in rendering:\n%s", want, out)
		}
	}
	// One family header even with two children.
	if n := strings.Count(out, "# TYPE dscts_widgets_total"); n != 1 {
		t.Errorf("family header appears %d times", n)
	}
}

func TestHistogramBucketsAndRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.01, 0.1}, L("phase", "route"))
	for _, v := range []float64{0.0005, 0.001, 0.005, 0.05, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-5.0565) > 1e-12 {
		t.Fatalf("sum = %v", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// le bounds are inclusive and cumulative: 0.001 holds 0.0005 AND 0.001.
	for _, want := range []string{
		`lat_seconds_bucket{phase="route",le="0.001"} 2`,
		`lat_seconds_bucket{phase="route",le="0.01"} 3`,
		`lat_seconds_bucket{phase="route",le="0.1"} 4`,
		`lat_seconds_bucket{phase="route",le="+Inf"} 5`,
		`lat_seconds_count{phase="route"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in rendering:\n%s", want, out)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(100e-6, 2, 4)
	want := []float64{100e-6, 200e-6, 400e-6, 800e-6}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
	if len(LatencyBuckets) != 22 {
		t.Fatalf("LatencyBuckets has %d bounds", len(LatencyBuckets))
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	h := r.Histogram("h_seconds", "h", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	// Concurrent scrapes must not race with writers.
	for i := 0; i < 20; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("counter %d, histogram %d; want 8000 each", c.Value(), h.Count())
	}
	if got := h.Sum(); math.Abs(got-8.0) > 1e-9 {
		t.Fatalf("histogram sum = %v, want 8", got)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "h", L("a", "1"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "h", L("a", "1"))
}

func TestCounterOfAndHistogramOfReuse(t *testing.T) {
	r := NewRegistry()
	a := r.CounterOf("http_total", "h", L("code", "200"))
	b := r.CounterOf("http_total", "h", L("code", "200"))
	if a != b {
		t.Fatal("CounterOf created a second instrument for the same labels")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("reused counter does not share state")
	}
	h1 := r.HistogramOf("ph_seconds", "h", nil, L("phase", "route"))
	h2 := r.HistogramOf("ph_seconds", "h", nil, L("phase", "route"))
	if h1 != h2 {
		t.Fatal("HistogramOf created a second instrument for the same labels")
	}
}

func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "h").Add(42)
	r.GaugeFunc("b", "h", func() float64 { return 1.25 }, L("k", "v"))
	h := r.Histogram("c_seconds", "h", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(2)
	RegisterRuntime(r)
	RegisterBuildInfo(r)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if samples["a_total"] != 42 {
		t.Errorf("a_total = %v", samples["a_total"])
	}
	if samples[`b{k="v"}`] != 1.25 {
		t.Errorf("b = %v", samples[`b{k="v"}`])
	}
	if samples[`c_seconds_bucket{le="0.1"}`] != 1 || samples[`c_seconds_bucket{le="+Inf"}`] != 2 {
		t.Errorf("histogram buckets wrong: %v", samples)
	}
	if samples["c_seconds_count"] != 2 {
		t.Errorf("c_seconds_count = %v", samples["c_seconds_count"])
	}
	for _, fam := range []string{"go_goroutines", "dscts_build_info"} {
		found := false
		for name := range samples {
			found = found || name == fam || strings.HasPrefix(name, fam+"{")
		}
		if !found {
			t.Errorf("family %q missing from the parsed samples", fam)
		}
	}
}

func TestBuildInfoPopulated(t *testing.T) {
	b := Build()
	if b.Version == "" || b.Revision == "" || b.GoVersion == "" {
		t.Fatalf("build info has empty fields: %+v", b)
	}
}
