package insert

import (
	"math"
	"math/rand"
	"testing"

	"dscts/internal/cluster"
	"dscts/internal/ctree"
	"dscts/internal/dme"
	"dscts/internal/eval"
	"dscts/internal/geom"
	"dscts/internal/tech"
)

func TestPatternTable(t *testing.T) {
	cases := []struct {
		p          Pattern
		up, down   ctree.Side
		bufs, tsvs int
	}{
		{PBuffer, ctree.Front, ctree.Front, 1, 0},
		{PWireF, ctree.Front, ctree.Front, 0, 0},
		{PWireB, ctree.Back, ctree.Back, 0, 0},
		{PNTSV1, ctree.Front, ctree.Front, 0, 2},
		{PNTSV2, ctree.Back, ctree.Front, 0, 1},
		{PNTSV3, ctree.Front, ctree.Back, 0, 1},
	}
	for _, c := range cases {
		if c.p.UpSide() != c.up || c.p.DownSide() != c.down {
			t.Errorf("%v sides = %v/%v, want %v/%v", c.p, c.p.UpSide(), c.p.DownSide(), c.up, c.down)
		}
		if c.p.Buffers() != c.bufs || c.p.NTSVs() != c.tsvs {
			t.Errorf("%v cost = %d/%d, want %d/%d", c.p, c.p.Buffers(), c.p.NTSVs(), c.bufs, c.tsvs)
		}
		if !c.p.Wiring().Valid() {
			t.Errorf("%v wiring invalid", c.p)
		}
	}
}

func TestModeAllowed(t *testing.T) {
	for p := Pattern(0); int(p) < numPatterns; p++ {
		if !ModeFull.Allowed(p) {
			t.Errorf("full mode must allow %v", p)
		}
	}
	for _, p := range []Pattern{PBuffer, PWireF, PWireB} {
		if !ModeIntra.Allowed(p) {
			t.Errorf("intra mode must allow %v", p)
		}
	}
	for _, p := range []Pattern{PNTSV1, PNTSV2, PNTSV3} {
		if ModeIntra.Allowed(p) {
			t.Errorf("intra mode must forbid %v", p)
		}
	}
}

func TestTransferMatchesPaperEquations(t *testing.T) {
	tc := tech.ASAP7()
	tv := viewOf(tc)
	L, C := 120.0, 8.0
	// P2 against Eq.-style wire delay.
	upCap, maxD, _, ok := transfer(PWireF, &tv, L, C, 0, 0)
	front := tc.Front()
	if !ok || math.Abs(upCap-(front.UnitCap*L+C)) > 1e-12 {
		t.Errorf("P2 cap = %v", upCap)
	}
	if want := front.UnitRes * L * (front.UnitCap*L + C); math.Abs(maxD-want) > 1e-12 {
		t.Errorf("P2 delay = %v want %v", maxD, want)
	}
	// P4 against Eq. (2).
	back, tsv := tc.Back(), tc.TSV
	_, maxD4, _, _ := transfer(PNTSV1, &tv, L, C, 0, 0)
	rb, cb := back.UnitRes, back.UnitCap
	rt, ct := tsv.Res, tsv.Cap
	want4 := rb*cb*L*L + (rb*ct+rb*C+rt*cb)*L + rt*(3*ct+2*C)
	if math.Abs(maxD4-want4) > 1e-9 {
		t.Errorf("P4 delay = %v want %v (Eq. 2)", maxD4, want4)
	}
	// P1: buffer load constraint.
	_, _, _, ok = transfer(PBuffer, &tv, L, tc.Buf.MaxCap, 0, 0)
	if ok {
		t.Error("P1 with load above MaxCap must be infeasible")
	}
}

// routedTree builds a real hierarchical routed tree for DP tests.
func routedTree(t *testing.T, n int, seed int64, maxEdge float64) (*ctree.Tree, *tech.Tech) {
	t.Helper()
	tc := tech.ASAP7()
	rng := rand.New(rand.NewSource(seed))
	hot := []geom.Point{{X: 60, Y: 60}, {X: 400, Y: 90}, {X: 180, Y: 420}}
	sinks := make([]geom.Point, n)
	for i := range sinks {
		h := hot[rng.Intn(len(hot))]
		sinks[i] = geom.Pt(math.Abs(h.X+rng.NormFloat64()*40), math.Abs(h.Y+rng.NormFloat64()*40))
	}
	front := tc.Front()
	d, err := cluster.DualLevel(sinks, cluster.DualOptions{
		HighSize: 120, LowSize: 15, Seed: 1, MaxIter: 25,
		CapOf:    func(s, c geom.Point) float64 { return tc.SinkCap + front.UnitCap*s.Dist(c) },
		CapLimit: 0.6 * tc.Buf.MaxCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := dme.HierarchicalRoute(geom.Pt(250, 250), sinks, d, tc, dme.HierOptions{MaxTrunkEdge: maxEdge})
	if err != nil {
		t.Fatal(err)
	}
	return tr, tc
}

func TestRunFullModeProducesValidTree(t *testing.T) {
	tr, tc := routedTree(t, 300, 7, 40)
	res, err := Run(tr, DefaultConfig(tc))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	bufs, tsvs := tr.Counts()
	if bufs != res.Chosen.Bufs || tsvs != res.Chosen.TSVs {
		t.Fatalf("counts mismatch: tree %d/%d vs chosen %d/%d", bufs, tsvs, res.Chosen.Bufs, res.Chosen.TSVs)
	}
	if res.Chosen.Latency <= 0 {
		t.Fatalf("latency %v", res.Chosen.Latency)
	}
	if res.Solutions == 0 || res.Nodes == 0 {
		t.Fatal("no DP activity recorded")
	}
}

// The DP's internal arithmetic must agree with the independent RC-network
// evaluation: eval latency = DP latency + root-driver term.
func TestRunDPDelaysMatchNetworkEval(t *testing.T) {
	tr, tc := routedTree(t, 200, 11, 40)
	res, err := Run(tr, DefaultConfig(tc))
	if err != nil {
		t.Fatal(err)
	}
	m, err := eval.New(tc, eval.Elmore).Evaluate(tr)
	if err != nil {
		t.Fatal(err)
	}
	rootTerm := tc.Buf.DriveRes * res.Chosen.Cap
	if diff := math.Abs(m.Latency - (res.Chosen.Latency + rootTerm)); diff > 1e-6*(1+m.Latency) {
		t.Fatalf("eval latency %v vs DP %v + root %v (diff %v)", m.Latency, res.Chosen.Latency, rootTerm, diff)
	}
	if diff := math.Abs(m.Skew - res.Chosen.Skew); diff > 1e-6*(1+m.Skew) {
		t.Fatalf("eval skew %v vs DP skew %v", m.Skew, res.Chosen.Skew)
	}
	mb, mt := m.Buffers, m.NTSVs
	if mb != res.Chosen.Bufs || mt != res.Chosen.TSVs {
		t.Fatalf("eval counts %d/%d vs DP %d/%d", mb, mt, res.Chosen.Bufs, res.Chosen.TSVs)
	}
}

func TestRunIntraModeUsesNoTSVs(t *testing.T) {
	tr, tc := routedTree(t, 250, 13, 40)
	cfg := DefaultConfig(tc)
	cfg.ModeOf = func(treeID, fanout int) Mode { return ModeIntra }
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chosen.TSVs != 0 {
		t.Fatalf("intra-side run used %d nTSVs", res.Chosen.TSVs)
	}
	_, tsvs := tr.Counts()
	if tsvs != 0 {
		t.Fatalf("tree has %d nTSVs", tsvs)
	}
	// Without nTSVs nothing can reach the back side from the front root.
	for id, n := range tr.Nodes {
		if n.Kind != ctree.KindSink && id != tr.Root() && n.Wiring.WireSide == ctree.Back {
			t.Fatalf("edge %d on back side without nTSVs", id)
		}
	}
}

// The paper's headline: the double-side design space strictly improves
// latency versus front-side-only insertion on the same routed tree.
func TestFullModeBeatsIntraModeLatency(t *testing.T) {
	trFull, tc := routedTree(t, 400, 17, 40)
	trIntra := trFull.Clone()
	resFull, err := Run(trFull, DefaultConfig(tc))
	if err != nil {
		t.Fatal(err)
	}
	cfgIntra := DefaultConfig(tc)
	cfgIntra.ModeOf = func(treeID, fanout int) Mode { return ModeIntra }
	resIntra, err := Run(trIntra, cfgIntra)
	if err != nil {
		t.Fatal(err)
	}
	if resFull.Chosen.Latency > resIntra.Chosen.Latency+1e-9 {
		t.Fatalf("full mode latency %v worse than intra %v", resFull.Chosen.Latency, resIntra.Chosen.Latency)
	}
	if resFull.Chosen.TSVs == 0 {
		t.Fatal("full mode on a real tree should use nTSVs")
	}
	t.Logf("full: %.1f ps (%d bufs, %d tsvs); intra: %.1f ps (%d bufs)",
		resFull.Chosen.Latency, resFull.Chosen.Bufs, resFull.Chosen.TSVs,
		resIntra.Chosen.Latency, resIntra.Chosen.Bufs)
}

func TestSelectMinLatencyAtLeastAsFastAsMOES(t *testing.T) {
	trA, tc := routedTree(t, 300, 19, 40)
	trB := trA.Clone()
	cfgMOES := DefaultConfig(tc)
	cfgMOES.KeepRootSet = true
	resMOES, err := Run(trA, cfgMOES)
	if err != nil {
		t.Fatal(err)
	}
	cfgLat := DefaultConfig(tc)
	cfgLat.SelectMinLatency = true
	resLat, err := Run(trB, cfgLat)
	if err != nil {
		t.Fatal(err)
	}
	if resLat.Chosen.Latency > resMOES.Chosen.Latency+1e-9 {
		t.Fatalf("min-latency selection %v slower than MOES %v", resLat.Chosen.Latency, resMOES.Chosen.Latency)
	}
	if len(resMOES.Candidates) == 0 {
		t.Fatal("KeepRootSet returned no candidates")
	}
	// Candidates sorted by latency; the MOES choice must exist among them.
	prev := math.Inf(-1)
	for _, c := range resMOES.Candidates {
		if c.Latency < prev {
			t.Fatal("candidates not sorted")
		}
		prev = c.Latency
	}
}

func TestModeHeterogeneityByFanout(t *testing.T) {
	tr, tc := routedTree(t, 300, 23, 40)
	threshold := 50
	cfg := DefaultConfig(tc)
	cfg.ModeOf = func(treeID, fanout int) Mode {
		if fanout < threshold {
			return ModeFull
		}
		return ModeIntra
	}
	if _, err := Run(tr, cfg); err != nil {
		t.Fatal(err)
	}
	// Edges with fanout >= threshold must not carry nTSVs.
	counts := tr.SinkCounts()
	for id, n := range tr.Nodes {
		if n.Kind != ctree.KindSink && id != tr.Root() && counts[id] >= threshold && n.Wiring.NTSVCount() > 0 {
			t.Fatalf("edge %d (fanout %d) carries nTSVs in intra mode", id, counts[id])
		}
	}
}

func TestRunErrors(t *testing.T) {
	tr, tc := routedTree(t, 50, 29, 40)
	if _, err := Run(tr, Config{}); err == nil {
		t.Error("nil tech should error")
	}
	bad := *tc
	bad.SinkCap = -1
	if _, err := Run(tr, DefaultConfig(&bad)); err == nil {
		t.Error("invalid tech should error")
	}
	// A tree with no trunk (root→sink directly) must be rejected.
	small := ctree.New(geom.Pt(0, 0))
	small.AddSink(0, geom.Pt(1, 1), 0)
	if _, err := Run(small, DefaultConfig(tc)); err == nil {
		t.Error("trunk-less tree should error")
	}
}

func TestPrunedSetsSmallAndParetoOptimal(t *testing.T) {
	sols := []Solution{
		{Up: ctree.Front, Cap: 1, MaxD: 10},
		{Up: ctree.Front, Cap: 2, MaxD: 5},
		{Up: ctree.Front, Cap: 3, MaxD: 7}, // dominated by (2,5)
		{Up: ctree.Front, Cap: 3, MaxD: 4},
		{Up: ctree.Back, Cap: 1, MaxD: 20},
		{Up: ctree.Back, Cap: 1.5, MaxD: 25}, // dominated
	}
	out := prune(sols, 48, false)
	if len(out) != 4 {
		t.Fatalf("prune kept %d, want 4: %+v", len(out), out)
	}
	for _, s := range out {
		for _, o := range out {
			if s.Up == o.Up && o.Cap < s.Cap-1e-12 && o.MaxD < s.MaxD-1e-12 {
				t.Fatalf("kept dominated solution %+v (by %+v)", s, o)
			}
		}
	}
	// Thinning respects the cap (within one slot for the latency-best
	// point, which may coincide with a spaced pick).
	var many []Solution
	for i := 0; i < 500; i++ {
		many = append(many, Solution{Up: ctree.Front, Cap: float64(i), MaxD: float64(1000 - i)})
	}
	out = prune(many, 16, true)
	if len(out) > 16 || len(out) < 8 {
		t.Fatalf("thinned to %d, want <= 16", len(out))
	}
	// Extremes and the latency-best point preserved.
	if out[0].Cap != 0 || out[len(out)-1].Cap != 499 {
		t.Fatalf("thinning lost extremes: %+v", out)
	}
	bestD := out[0].MaxD
	for _, s := range out {
		if s.MaxD < bestD {
			bestD = s.MaxD
		}
	}
	if bestD != many[499].MaxD {
		t.Fatalf("thinning lost the latency-best solution")
	}
}

// Property test: on random small trees, the decided tree always satisfies
// the connectivity constraint and resource counts match the DP's claim.
func TestRunPropertyRandomTrees(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		tr, tc := routedTree(t, 80+int(seed%4)*30, seed, 35)
		res, err := Run(tr, DefaultConfig(tc))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, n := tr.Counts()
		if b != res.Chosen.Bufs || n != res.Chosen.TSVs {
			t.Fatalf("seed %d: counts %d/%d vs %d/%d", seed, b, n, res.Chosen.Bufs, res.Chosen.TSVs)
		}
	}
}
