package eval_test

import (
	"fmt"
	"testing"

	"dscts/internal/bench"
	"dscts/internal/core"
	"dscts/internal/ctree"
	"dscts/internal/eval"
	"dscts/internal/geom"
	"dscts/internal/tech"
)

// checkState holds the model to the full reference pass with ==: the
// committed state's latency, skew and every sink delay, then the Trial of
// every uncommitted slot in slots.
func checkState(t *testing.T, w *eval.WhatIf, slots []int32, nSinks int, label string) {
	t.Helper()
	got, want := make([]float64, nSinks), make([]float64, nSinks)
	lat, skew := w.Eval(got)
	rlat, rskew := w.FullPass(-1, want)
	if lat != rlat || skew != rskew {
		t.Fatalf("%s: committed (%v, %v), full pass (%v, %v)", label, lat, skew, rlat, rskew)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: sink %d delay %v, full pass %v", label, i, got[i], want[i])
		}
	}
	for _, s := range slots {
		if w.Committed(s) {
			continue
		}
		lat, skew := w.Trial(s)
		rlat, rskew := w.FullPass(s, nil)
		if lat != rlat || skew != rskew {
			t.Fatalf("%s: trial at slot %d (%v, %v), full pass (%v, %v)", label, s, lat, skew, rlat, rskew)
		}
	}
}

// postInsertion returns the tree skew refinement starts from: the full flow
// with refinement skipped.
func postInsertion(t *testing.T, id string, seed int64, tc *tech.Tech) (*ctree.Tree, int) {
	t.Helper()
	d, err := bench.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Generate(d, seed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.Synthesize(p.Root, p.Sinks, tc, core.Options{SkipRefine: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return out.Tree, len(p.Sinks)
}

// TestNLDMSlewLaneOnSuite: on the post-insertion trees of C1..C5, the slew
// lane of the NLDM delay pass equals the stand-alone slew reference bit for
// bit, and Evaluate's MaxSlew is the reference's worst sink slew.
func TestNLDMSlewLaneOnSuite(t *testing.T) {
	tc := tech.ASAP7()
	e := eval.New(tc, eval.NLDM)
	for _, d := range bench.Suite() {
		tr, _ := postInsertion(t, d.ID, 1, tc)
		m, err := e.Evaluate(tr)
		if err != nil {
			t.Fatal(err)
		}
		node, want := e.SlewReference(tr)
		if node >= 0 {
			t.Errorf("%s: slew lane differs from the reference at node %d", d.ID, node)
		}
		if m.MaxSlew != want || m.MaxSlew <= 0 {
			t.Errorf("%s: MaxSlew %v, reference %v", d.ID, m.MaxSlew, want)
		}
	}
}

func slotsOf(tr *ctree.Tree, w *eval.WhatIf) []int32 {
	var slots []int32
	for _, cid := range tr.Centroids() {
		if s := w.SlotOf(cid); s >= 0 {
			slots = append(slots, s)
		}
	}
	return slots
}

// TestTrialMatchesFullPass: on the post-insertion trees of C1..C5 at two
// placement seeds, incremental trials return exactly the full pass's
// (latency, skew) — every slot's in the freshly built state, and a
// rotating quarter of them after each of several commits (the reference
// pass is O(n) per slot) — and the committed state itself stays exact.
func TestTrialMatchesFullPass(t *testing.T) {
	tc := tech.ASAP7()
	for _, d := range bench.Suite() {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("%s/seed%d", d.ID, seed), func(t *testing.T) {
				tr, nSinks := postInsertion(t, d.ID, seed, tc)
				w := eval.NewWhatIf(tr, tc)
				slots := slotsOf(tr, w)
				if len(slots) < 4 {
					t.Fatalf("only %d slots", len(slots))
				}
				checkState(t, w, slots, nSinks, "built")
				for k := 1; k <= 3; k++ {
					w.Commit(slots[k*len(slots)/4])
					var quarter []int32
					for i := k; i < len(slots); i += 4 {
						quarter = append(quarter, slots[i])
					}
					checkState(t, w, quarter, nSinks, fmt.Sprintf("after %d commits", k))
				}
			})
		}
	}
}

// TestTrialShieldCases pins the three ways a trial's re-timed region is
// bounded, each against the full pass: a slot driven straight by the root
// driver (no root buffer, so the whole network re-times), a slot under a
// committed slot, and a slot whose re-summed path runs through a back-side
// nTSV chain up to a mid-edge buffer.
func TestTrialShieldCases(t *testing.T) {
	tc := tech.ASAP7()
	tr := ctree.New(geom.Pt(0, 0))
	s1 := tr.Add(0, ctree.KindSteiner, geom.Pt(40, 0))
	rootDriven := tr.AddCentroid(s1, geom.Pt(60, 30), 0)
	s2 := tr.Add(s1, ctree.KindSteiner, geom.Pt(140, -20))
	tr.Nodes[s2].Wiring = ctree.EdgeWiring{BufMid: true}
	tsvChain := tr.AddCentroid(s2, geom.Pt(220, -60), 1)
	tr.Nodes[tsvChain].Wiring = ctree.EdgeWiring{WireSide: ctree.Back, TSVUp: true, TSVDown: true}
	outer := tr.AddCentroid(s2, geom.Pt(160, 40), 2)
	inner := tr.AddCentroid(outer, geom.Pt(190, 70), 3)
	sink := 0
	for i, c := range []int{rootDriven, tsvChain, outer, inner} {
		for k := 0; k < 3+2*i; k++ {
			p := tr.Nodes[c].Pos
			tr.AddSink(c, geom.Pt(p.X+float64(k%3), p.Y-float64(k/3)), sink)
			sink++
		}
	}
	w := eval.NewWhatIf(tr, tc)
	slots := slotsOf(tr, w)

	if b, kind, _ := w.ShieldOf(w.SlotOf(rootDriven)); b != 0 || kind != "root" {
		t.Fatalf("root-driven slot shielded by %s node %d, want the root driver", kind, b)
	}
	// Re-summed below the mid-edge buffer: the slot's nTSV, back wire and
	// nTSV, then the lower half of the buffered edge.
	if b, kind, below := w.ShieldOf(w.SlotOf(tsvChain)); kind != "buffer" || below != 4 {
		t.Fatalf("nTSV-chain slot: shield %s node %d over %d ancestors, want a mid-edge buffer over 4", kind, b, below)
	}
	checkState(t, w, slots, sink, "built")

	w.Commit(w.SlotOf(outer))
	if b, kind, below := w.ShieldOf(w.SlotOf(inner)); b != w.SlotOf(outer) || kind != "slot" || below != 1 {
		t.Fatalf("inner slot shielded by %s node %d over %d ancestors, want the committed outer slot %d over 1", kind, b, below, w.SlotOf(outer))
	}
	checkState(t, w, slots, sink, "outer committed")
	w.Commit(w.SlotOf(inner))
	w.Commit(w.SlotOf(rootDriven))
	checkState(t, w, slots, sink, "all but one committed")
}
