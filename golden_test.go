package dscts

// Golden-metrics regression suite: the single-corner (typical) Metrics of
// every built-in benchmark are pinned in testdata/golden/*.json so a
// refactor that silently drifts results — a reordered reduction, a changed
// default, an "equivalent" algorithm swap — fails here instead of shipping.
// Two partitioned runs are pinned the same way, plus their region count:
// C4 in 300-sink regions and a 100k-sink XL placement in 10k-sink regions.
// Three incremental (ECO) runs are pinned with their scope counts: one fixed
// localized delta of about 1% on C4 (monolithic) and on C5 in 600-sink
// regions, and one of about 10% on C3 (monolithic). Ten option variants
// are pinned on C4 and C5: fanout threshold 8 and 32, single-side mode,
// and a DP cap of 2 and 4 solutions per side.
//
// Every pin also carries an outcome digest (outcomeDigest): a SHA-256 over
// the whole tree and every sink delay. The metrics use a relative tolerance
// to absorb cross-architecture floating-point differences (fused
// multiply-adds, see checkGolden); the digest holds the tree bit for bit,
// so a change that moves one buffer or one snake ulp fails here even when
// the six metrics stay within 1e-6. Each case runs at one worker and at
// eight and both runs must agree. Intentional result changes re-pin with:
//
//	go test -run 'TestGolden' -update .

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden snapshots from the current engine")

// goldenMetrics is one design's pinned numbers. Floats carry a relative
// tolerance; counts and the digest are exact.
type goldenMetrics struct {
	Design    string  `json:"design"`
	Sinks     int     `json:"sinks"`
	LatencyPS float64 `json:"latency_ps"`
	SkewPS    float64 `json:"skew_ps"`
	WLum      float64 `json:"wirelength_um"`
	Buffers   int     `json:"buffers"`
	NTSVs     int     `json:"ntsvs"`
	PowerMW   float64 `json:"power_total_mw"`
	// Regions is the region count of a partitioned run (0: monolithic).
	Regions int `json:"regions,omitempty"`
	// DirtyScopes, TotalScopes and ReusedSinks are an ECO run's ECOStats
	// (all 0 for a full synthesis).
	DirtyScopes int `json:"dirty_scopes,omitempty"`
	TotalScopes int `json:"total_scopes,omitempty"`
	ReusedSinks int `json:"reused_sinks,omitempty"`
	// Digest is outcomeDigest of the run.
	Digest string `json:"digest"`
}

// goldenRelTol is the relative tolerance for pinned floats: far below any
// real regression (which moves results by percents), far above any
// cross-platform FP noise (ulps).
const goldenRelTol = 1e-6

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".json")
}

// outcomeDigest is a SHA-256 over every tree node in node order — kind,
// position bits, parent, edge wiring (side, BufMid, TSVUp, TSVDown), snake
// bits, node buffer, sink index and cluster index — followed by every sink
// delay's bits in sink order. Equal digests mean bit-identical trees and
// timing.
func outcomeDigest(t *Tree, m *Metrics) string {
	h := sha256.New()
	var b []byte
	num := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	flt := func(v float64) { num(math.Float64bits(v)) }
	bit := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		b = b[:0]
		num(uint64(n.Kind))
		flt(n.Pos.X)
		flt(n.Pos.Y)
		num(uint64(int64(n.Parent)))
		num(uint64(n.Wiring.WireSide))
		bit(n.Wiring.BufMid)
		bit(n.Wiring.TSVUp)
		bit(n.Wiring.TSVDown)
		flt(n.SnakeExtra)
		bit(n.BufferAtNode)
		num(uint64(int64(n.SinkIdx)))
		num(uint64(int64(n.ClusterIdx)))
		h.Write(b)
	}
	for _, s := range slices.Sorted(maps.Keys(m.SinkDelays)) {
		b = b[:0]
		num(uint64(int64(s)))
		flt(m.SinkDelays[s])
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// synthesizeGolden runs one pinned case at one worker and at eight,
// requires both snapshots to agree exactly (digest included), and returns
// the snapshot, named id.
func synthesizeGolden(t *testing.T, id string, run func(workers int) (*Outcome, error)) goldenMetrics {
	t.Helper()
	var snaps []goldenMetrics
	for _, w := range []int{1, 8} {
		out, err := run(w)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := EstimatePower(out.Tree, ASAP7(), DefaultPowerParams())
		if err != nil {
			t.Fatal(err)
		}
		m := out.Metrics
		g := goldenMetrics{
			Design: id, Sinks: len(m.SinkDelays),
			LatencyPS: m.Latency, SkewPS: m.Skew, WLum: m.WL,
			Buffers: m.Buffers, NTSVs: m.NTSVs,
			PowerMW: pw.TotalMW, Regions: len(out.Regions),
			Digest: outcomeDigest(out.Tree, m),
		}
		if s := out.ECO; s != nil {
			g.DirtyScopes, g.TotalScopes, g.ReusedSinks = s.DirtyScopes, s.TotalScopes, s.ReusedSinks
		}
		snaps = append(snaps, g)
	}
	if snaps[0] != snaps[1] {
		t.Errorf("%s: workers 1 and 8 disagree:\n  %+v\n  %+v", id, snaps[0], snaps[1])
	}
	return snaps[0]
}

// synthesizeWith returns a run of p under opt at a given worker count.
func synthesizeWith(p *Placement, opt Options) func(int) (*Outcome, error) {
	return func(w int) (*Outcome, error) {
		opt.Workers = w
		return Synthesize(p.Root, p.Sinks, ASAP7(), opt)
	}
}

func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= goldenRelTol*scale
}

func TestGoldenMetrics(t *testing.T) {
	for _, id := range Benchmarks() {
		id := id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && id != "C4" && id != "C5" {
				t.Skip("large design skipped with -short")
			}
			p, err := GenerateBenchmark(id, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, synthesizeGolden(t, id, synthesizeWith(p, Options{})))
		})
	}
}

// TestGoldenMetricsPartitioned pins the partitioned flow: the kd split, each
// region's clustering→DME→insertion→refinement stack, and the stitch.
func TestGoldenMetricsPartitioned(t *testing.T) {
	cases := []struct {
		id       string
		gen      func() (*Placement, error)
		maxSinks int
		large    bool
	}{
		{"C4-p300", func() (*Placement, error) { return GenerateBenchmark("C4", 1) }, 300, false},
		{"XL100k-p10000", func() (*Placement, error) { return GenerateXLBenchmark(100000, 1) }, 10000, true},
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			if testing.Short() && c.large {
				t.Skip("large placement skipped with -short")
			}
			p, err := c.gen()
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{Partition: PartitionOptions{MaxSinks: c.maxSinks, Macros: p.Macros}}
			got := synthesizeGolden(t, c.id, synthesizeWith(p, opt))
			if got.Regions < 2 {
				t.Fatalf("expected a partitioned run, got %d regions", got.Regions)
			}
			checkGolden(t, got)
		})
	}
}

// TestGoldenOptionVariants pins C4 and C5 under non-default options: the
// fanout threshold that gates nTSV insertion, single-side mode, and the
// DP's per-side solution cap.
func TestGoldenOptionVariants(t *testing.T) {
	variants := []struct {
		name string
		opt  Options
	}{
		{"fanout8", Options{FanoutThreshold: 8}},
		{"fanout32", Options{FanoutThreshold: 32}},
		{"single", Options{Mode: SingleSide}},
		{"maxperside2", Options{MaxPerSide: 2}},
		{"maxperside4", Options{MaxPerSide: 4}},
	}
	for _, design := range []string{"C4", "C5"} {
		p, err := GenerateBenchmark(design, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			id := design + "-" + v.name
			t.Run(id, func(t *testing.T) {
				checkGolden(t, synthesizeGolden(t, id, synthesizeWith(p, v.opt)))
			})
		}
	}
}

// ecoPinDelta is the pinned ECO edit, about pct% of the design: the
// len·pct/100 sinks nearest sink len/3 (ties to the lower index) are
// touched, every fourth removed and the rest moved by −2..2 µm, and one
// sink is added 3 µm from the anchor in x and y.
func ecoPinDelta(sinks []Point, pct int) ECODelta {
	anchor := sinks[len(sinks)/3]
	order := make([]int, len(sinks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return sinks[order[a]].Dist(anchor) < sinks[order[b]].Dist(anchor)
	})
	var d ECODelta
	for k, i := range order[:len(sinks)*pct/100] {
		if k%4 == 3 {
			d.Remove = append(d.Remove, i)
			continue
		}
		off := float64(k%5) - 2
		d.Move = append(d.Move, ECOMove{Sink: i, To: Pt(sinks[i].X+off, sinks[i].Y-off/2)})
	}
	d.Add = append(d.Add, Pt(anchor.X+3, anchor.Y+3))
	return d
}

// TestGoldenECO pins incremental re-synthesis through the public
// SynthesizeECO: ecoPinDelta on C4 and C3 splices re-run leaf clusters into
// the monolithic tree (C3's 10% delta re-legalizes dozens of graft points),
// and on C5 in 600-sink regions re-runs dirty regions and re-stitches. The
// pins include the dirty and total scope counts and the reused sinks.
func TestGoldenECO(t *testing.T) {
	cases := []struct {
		id       string
		design   string
		maxSinks int
		pct      int
	}{
		{"C4-eco", "C4", 0, 1},
		{"C5-p600-eco", "C5", 600, 1},
		{"C3-eco10", "C3", 0, 10},
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			p, err := GenerateBenchmark(c.design, 1)
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{RetainECO: true}
			if c.maxSinks > 0 {
				opt.Partition = PartitionOptions{MaxSinks: c.maxSinks, Macros: p.Macros}
			}
			d := ecoPinDelta(p.Sinks, c.pct)
			got := synthesizeGolden(t, c.id, func(w int) (*Outcome, error) {
				prev, err := synthesizeWith(p, opt)(w)
				if err != nil {
					return nil, err
				}
				return SynthesizeECO(prev, d, Options{Workers: w})
			})
			if got.DirtyScopes == 0 || got.DirtyScopes == got.TotalScopes {
				t.Fatalf("degenerate dirty set %d/%d", got.DirtyScopes, got.TotalScopes)
			}
			if (got.Regions > 0) != (c.maxSinks > 0) {
				t.Fatalf("%d regions from a run with region cap %d", got.Regions, c.maxSinks)
			}
			checkGolden(t, got)
		})
	}
}

// TestOutcomeDigestSeesOneULP shows the digest fails on what it guards:
// moving one snake length by one ulp changes it.
func TestOutcomeDigestSeesOneULP(t *testing.T) {
	p, err := GenerateBenchmark("C4", 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Synthesize(p.Root, p.Sinks, ASAP7(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := out.Tree.Clone()
	id := 1
	for i := range tr.Nodes {
		if tr.Nodes[i].SnakeExtra > 0 {
			id = i
			break
		}
	}
	tr.Nodes[id].SnakeExtra = math.Nextafter(tr.Nodes[id].SnakeExtra, math.Inf(1))
	if outcomeDigest(tr, out.Metrics) == outcomeDigest(out.Tree, out.Metrics) {
		t.Fatalf("digest unchanged after moving node %d's snake by one ulp", id)
	}
}

// checkGolden compares got with its snapshot, or rewrites the snapshot
// under -update.
//
// Digests are compared on amd64 only. Go may fuse x*y + z into one fused
// multiply-add, which rounds once instead of twice: amd64 builds fuse
// nothing, while arm64, ppc64le, riscv64 and loong64 builds fuse over a
// hundred sites in the engine, so their trees may differ in the last bits.
// Until every such site rounds explicitly, the metrics' 1e-6 tolerance is
// the cross-architecture check.
func checkGolden(t *testing.T, got goldenMetrics) {
	t.Helper()
	path := goldenPath(got.Design)
	if *updateGolden {
		if runtime.GOARCH != "amd64" {
			t.Fatalf("digests are pinned on amd64; re-pin there, not on %s", runtime.GOARCH)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot (run with -update to create): %v", err)
	}
	var want goldenMetrics
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden snapshot %s: %v", path, err)
	}
	var diffs []string
	intEq := func(name string, g, w int) {
		if g != w {
			diffs = append(diffs, fmt.Sprintf("%s: got %d, pinned %d", name, g, w))
		}
	}
	fltEq := func(name string, g, w float64) {
		if !relClose(g, w) {
			diffs = append(diffs, fmt.Sprintf("%s: got %.9g, pinned %.9g (rel %.2g)",
				name, g, w, math.Abs(g-w)/math.Max(math.Abs(g), math.Abs(w))))
		}
	}
	intEq("sinks", got.Sinks, want.Sinks)
	intEq("regions", got.Regions, want.Regions)
	intEq("buffers", got.Buffers, want.Buffers)
	intEq("ntsvs", got.NTSVs, want.NTSVs)
	intEq("dirty_scopes", got.DirtyScopes, want.DirtyScopes)
	intEq("total_scopes", got.TotalScopes, want.TotalScopes)
	intEq("reused_sinks", got.ReusedSinks, want.ReusedSinks)
	fltEq("latency_ps", got.LatencyPS, want.LatencyPS)
	fltEq("skew_ps", got.SkewPS, want.SkewPS)
	fltEq("wirelength_um", got.WLum, want.WLum)
	fltEq("power_total_mw", got.PowerMW, want.PowerMW)
	if runtime.GOARCH == "amd64" && got.Digest != want.Digest {
		diffs = append(diffs, fmt.Sprintf("digest: got %s, pinned %s", got.Digest, want.Digest))
	}
	if len(diffs) > 0 {
		t.Errorf("%s drifted from golden snapshot %s:\n  %s\n(re-pin deliberate changes with: go test -run TestGolden -update .)",
			got.Design, path, diffs[0])
		for _, d := range diffs[1:] {
			t.Errorf("  %s", d)
		}
	}
}
