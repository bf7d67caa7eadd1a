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

// TestDownstreamCapByHand checks DownstreamCap at an internal, graft-like
// centroid against caps summed by hand for every wiring shape the lowering
// distinguishes below it: a plain front wire and a back wire with nTSVs at
// both ends (their leaf nets count in full), a mid-edge buffer (half the
// edge, then the buffer's input cap) and a node buffer (the whole edge,
// then the buffer's input cap). A drift here means the ECO re-legalization
// is checking loads under different physics than the evaluator.
func TestDownstreamCapByHand(t *testing.T) {
	tc := tech.ASAP7()
	front, back, tsv, buf := tc.Front(), tc.Back(), tc.TSV, tc.Buf
	tr := ctree.New(geom.Pt(0, 0))
	g := tr.AddCentroid(0, geom.Pt(40, 0), 0) // the graft point
	// Each branch runs 10·(k+1) µm from g to a Steiner vertex whose two
	// sinks sit 3 and 5 µm away, so every branch's hand sum differs.
	wirings := []ctree.EdgeWiring{
		{},
		{WireSide: ctree.Back, TSVUp: true, TSVDown: true},
		{BufMid: true},
		{},
	}
	var want float64
	for k, w := range wirings {
		length := 10 * float64(k+1)
		st := tr.Add(g, ctree.KindSteiner, geom.Pt(40, length))
		tr.Nodes[st].Wiring = w
		tr.AddSink(st, geom.Pt(43, length), 2*k)
		tr.AddSink(st, geom.Pt(40, length+5), 2*k+1)
		leaves := front.UnitCap*3 + tc.SinkCap + front.UnitCap*5 + tc.SinkCap
		switch k {
		case 0: // plain front wire
			want += front.UnitCap*length + leaves
		case 1: // back wire, nTSV up and down
			want += tsv.Cap + back.UnitCap*length + tsv.Cap + leaves
		case 2: // mid-edge buffer shields the far half and the leaves
			want += front.UnitCap*length/2 + buf.InputCap
		case 3: // node buffer shields the leaves
			tr.Nodes[st].BufferAtNode = true
			want += front.UnitCap*length + buf.InputCap
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := DownstreamCap(tr, g, tc); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("DownstreamCap(graft point) = %v, hand sum %v", got, want)
	}
	// One branch alone: a Steiner vertex's own leaf net.
	if got, want := DownstreamCap(tr, 2, tc), front.UnitCap*8+2*tc.SinkCap; math.Abs(got-want) > 1e-12*want {
		t.Fatalf("DownstreamCap(front branch) = %v, hand sum %v", got, want)
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
