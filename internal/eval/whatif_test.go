package eval

import (
	"math"
	"testing"

	"dscts/internal/ctree"
	"dscts/internal/geom"
	"dscts/internal/tech"
)

// refineryTree builds a small two-cluster tree with leaf nets, the shape
// the WhatIf evaluator exists for.
func refineryTree() *ctree.Tree {
	tr := ctree.New(geom.Pt(0, 0))
	st := tr.Add(0, ctree.KindSteiner, geom.Pt(30, 0))
	a := tr.AddCentroid(st, geom.Pt(60, 20), 0)
	b := tr.AddCentroid(st, geom.Pt(200, -40), 1)
	s := 0
	for i := 0; i < 5; i++ {
		tr.AddSink(a, geom.Pt(62+float64(i), 21), s)
		s++
	}
	for i := 0; i < 9; i++ {
		tr.AddSink(b, geom.Pt(201+float64(i%3), -41-float64(i/3)), s)
		s++
	}
	return tr
}

// TestDownstreamCapMatchesNetwork pins DownstreamCap's lowering against the
// network builder: without a root buffer, the cap the root stage drives in
// the staged network (SourceLoad) must equal DownstreamCap at the root —
// across plain wires, back-side wires with nTSVs, mid-edge buffers and
// node buffers. A drift here means the ECO re-legalization is checking
// loads under different physics than the evaluator.
func TestDownstreamCapMatchesNetwork(t *testing.T) {
	tc := tech.ASAP7()
	tr := refineryTree()
	// Decorate with every wiring shape the lowering distinguishes.
	tr.Nodes[1].Wiring = ctree.EdgeWiring{WireSide: ctree.Back, TSVUp: true, TSVDown: true}
	tr.Nodes[2].Wiring = ctree.EdgeWiring{BufMid: true}
	tr.Nodes[3].BufferAtNode = true
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	net, _, err := BuildNetwork(tr, tc)
	if err != nil {
		t.Fatal(err)
	}
	got := DownstreamCap(tr, tr.Root(), tc)
	want := net.SourceLoad()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("DownstreamCap(root) = %v, network SourceLoad = %v", got, want)
	}
}

// TestWhatIfMatchesEvaluate cross-checks the flat what-if network against
// the reference Evaluate, both in the base state and after committing an
// end-point buffer (compared against BufferAtNode + full re-evaluation).
func TestWhatIfMatchesEvaluate(t *testing.T) {
	tc := tech.ASAP7()
	tr := refineryTree()
	ev := New(tc, Elmore)
	ref, err := ev.Evaluate(tr)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWhatIf(tr, tc)

	const tol = 1e-9
	lat, skew := w.Eval(nil)
	if math.Abs(lat-ref.Latency) > tol || math.Abs(skew-ref.Skew) > tol {
		t.Fatalf("base state: whatif (%v, %v) vs evaluate (%v, %v)", lat, skew, ref.Latency, ref.Skew)
	}

	// Trial = commit + full re-evaluation, within tolerance.
	for _, cid := range tr.Centroids() {
		slot := w.SlotOf(cid)
		if slot < 0 {
			t.Fatalf("centroid %d has no slot", cid)
		}
		tlat, tskew := w.Trial(slot)
		tr.Nodes[cid].BufferAtNode = true
		m, err := ev.Evaluate(tr)
		tr.Nodes[cid].BufferAtNode = false
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tlat-m.Latency) > tol || math.Abs(tskew-m.Skew) > tol {
			t.Fatalf("trial at %d: whatif (%v, %v) vs evaluate (%v, %v)", cid, tlat, tskew, m.Latency, m.Skew)
		}
	}

	// Committed state must agree too, including per-sink delays.
	cid := tr.Centroids()[1]
	w.Commit(w.SlotOf(cid))
	dst := make([]float64, len(ref.SinkDelays))
	clat, cskew := w.Eval(dst)
	tr.Nodes[cid].BufferAtNode = true
	m, err := ev.Evaluate(tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(clat-m.Latency) > tol || math.Abs(cskew-m.Skew) > tol {
		t.Fatalf("committed: whatif (%v, %v) vs evaluate (%v, %v)", clat, cskew, m.Latency, m.Skew)
	}
	for idx, d := range m.SinkDelays {
		if math.Abs(dst[idx]-d) > tol {
			t.Fatalf("sink %d: whatif delay %v vs evaluate %v", idx, dst[idx], d)
		}
	}
	nodes := w.CommittedTreeNodes()
	if len(nodes) != 1 || nodes[0] != cid {
		t.Fatalf("committed nodes %v, want [%d]", nodes, cid)
	}
}
