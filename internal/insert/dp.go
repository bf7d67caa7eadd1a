package insert

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dscts/internal/arena"
	"dscts/internal/ctree"
	"dscts/internal/par"
	"dscts/internal/tech"
	"dscts/internal/timing"
)

// Solution is one DP candidate at a node (= clock-tree edge), describing the
// state at the edge's upstream endpoint after the edge's pattern is applied.
type Solution struct {
	// Up is the side type of the upstream endpoint.
	Up ctree.Side
	// Cap is the effective downstream capacitance seen at the upstream
	// endpoint.
	Cap float64
	// MaxD and MinD are the maximum and minimum delays from the upstream
	// endpoint to any sink below.
	MaxD, MinD float64
	// Bufs and TSVs count the resources used in the subtree.
	Bufs, TSVs int
	// Pattern is the pattern assigned to this edge.
	Pattern Pattern
	// left and right are the chosen solution indices in the child DP
	// nodes (-1 when absent), recorded for the top-down retrace.
	left, right int32
	// rootIdx records, for root-set candidates only, the chosen solution
	// index within each root edge's DP node.
	rootIdx []int32
}

// Config controls the DP.
type Config struct {
	// Tech is the technology view (required).
	Tech *tech.Tech
	// Alpha, Beta, Gamma weight latency, buffer count and nTSV count in
	// the MOES root selection (Eq. 3). The paper's experiments use
	// 1, 10, 1.
	Alpha, Beta, Gamma float64
	// ModeOf configures the inserting mode per DP node (identified by the
	// clock-tree node id of the edge's downstream endpoint and the number
	// of sinks the edge drives). Nil means full mode everywhere.
	ModeOf func(treeID, fanout int) Mode
	// MaxPerSide caps the pruned solution-set size per side type
	// (diversity-preserving downsample). 0 means the default 48.
	MaxPerSide int
	// KeepRootSet retains all root candidates in the result (Fig. 10).
	KeepRootSet bool
	// DiversePruning adds the resource count (buffers+nTSVs) to the
	// dominance test, so cheaper-but-slower solutions survive pruning.
	// This widens the root set for design-space studies (Fig. 10) at the
	// cost of a larger working set; the default 2-D (cap, delay) rule is
	// the paper's and keeps MOES selection latency-strong.
	DiversePruning bool
	// SelectMinLatency ignores MOES and picks the minimum-latency root
	// solution ("w/o MOES" ablation of Fig. 10).
	SelectMinLatency bool
	// Workers bounds the concurrency of the bottom-up generation pass;
	// <= 0 means all CPUs. The DP tree is binary and a node only needs its
	// children's solution sets, so independent subtrees generate
	// concurrently through a ready-queue. Every per-node computation is a
	// pure function of its children, so any worker count produces
	// identical solution sets (and therefore identical trees).
	Workers int
}

// DefaultMaxPerSide is the per-side solution cap Run applies when
// Config.MaxPerSide is <= 0.
const DefaultMaxPerSide = 48

// DefaultConfig returns the paper's experimental settings (α,β,γ = 1,10,1).
func DefaultConfig(tc *tech.Tech) Config {
	return Config{Tech: tc, Alpha: 1, Beta: 10, Gamma: 1}
}

// RootCandidate summarizes one candidate solution at the DP root.
type RootCandidate struct {
	Latency float64 // ps, max source-to-sink delay below the root edge
	Skew    float64 // ps, MaxD - MinD
	Cap     float64 // fF at the clock root
	Bufs    int
	TSVs    int
	MOES    float64
}

// Result reports the DP outcome. The input tree is annotated in place.
type Result struct {
	// Chosen is the selected root candidate.
	Chosen RootCandidate
	// Candidates holds the full root set when Config.KeepRootSet is set,
	// sorted by latency.
	Candidates []RootCandidate
	// Solutions is the total number of candidate solutions generated,
	// a measure of design-space size.
	Solutions int
	// Nodes is the number of DP nodes (clock-tree trunk edges).
	Nodes int
	// Merged is the number of child-solution pairs the two-child merges
	// generated, summed over DP nodes. Like Solutions and Nodes it is a
	// pure function of the tree and the options other than Workers.
	Merged int
}

// dpNode is one node of the heterogeneous DP tree (Step 1): it stands for
// the clock-tree edge whose downstream endpoint is treeID. The clock tree's
// trunk is binary, so the child links are a fixed pair instead of a slice —
// no per-node allocation, and the whole DP tree sits in one flat array.
type dpNode struct {
	treeID int
	length float64
	mode   Mode
	nkids  int8
	child  [2]int32 // dp node indices, -1 when absent
	sols   []Solution
}

// Run performs the four DP steps on the tree's trunk, leaving leaf nets
// untouched, and writes the chosen patterns into the tree's edge wirings.
func Run(t *ctree.Tree, cfg Config) (*Result, error) {
	return RunContext(context.Background(), t, cfg)
}

// RunContext is Run with cancellation: the bottom-up generation pass — the
// DP's dominant cost — observes ctx per node, so a cancelled run stops
// mid-pass, its ready-queue workers all exit (no goroutine leaks), and the
// call returns an error wrapping ctx.Err() without touching the tree's
// wiring annotations.
func RunContext(ctx context.Context, t *ctree.Tree, cfg Config) (*Result, error) {
	if cfg.Tech == nil {
		return nil, fmt.Errorf("insert: nil tech")
	}
	if err := cfg.Tech.Validate(); err != nil {
		return nil, fmt.Errorf("insert: %w", err)
	}
	if cfg.MaxPerSide <= 0 {
		cfg.MaxPerSide = DefaultMaxPerSide
	}
	fanout := t.SinkCounts()

	// Step 1: build the heterogeneous DP tree over trunk edges.
	nodes, rootDPs, err := buildDPTree(t, cfg, fanout)
	if err != nil {
		return nil, err
	}

	res := &Result{Nodes: len(nodes)}

	// Step 2: bottom-up generation (nodes are in postorder). A node is
	// ready as soon as its children are done, so the pass runs on a
	// ready-queue worker pool; with one worker it degenerates to the
	// plain postorder loop. The checked-out scratches own the slab memory
	// every dp.sols points into, so they return to their pool only after
	// the retrace below is done reading the solution sets.
	scratches, err := generateAll(ctx, t, nodes, cfg, res)
	defer func() {
		for _, sc := range scratches {
			genPool.Put(sc)
		}
	}()
	if err != nil {
		return nil, err
	}

	// Merge the DP roots (children of the clock root vertex) into the
	// final root set; the clock root pin is on the front side.
	rootSet, err := mergeRoots(nodes, rootDPs, cfg)
	if err != nil {
		return nil, err
	}

	// Step 3: multi-objective selection.
	bestIdx := -1
	bestScore := math.Inf(1)
	for i, s := range rootSet {
		lat := s.MaxD
		score := cfg.Alpha*lat + cfg.Beta*float64(s.Bufs) + cfg.Gamma*float64(s.TSVs)
		if cfg.SelectMinLatency {
			score = lat
		}
		if score < bestScore {
			bestScore, bestIdx = score, i
		}
		if cfg.KeepRootSet {
			res.Candidates = append(res.Candidates, RootCandidate{
				Latency: lat, Skew: s.MaxD - s.MinD, Cap: s.Cap,
				Bufs: s.Bufs, TSVs: s.TSVs,
				MOES: cfg.Alpha*lat + cfg.Beta*float64(s.Bufs) + cfg.Gamma*float64(s.TSVs),
			})
		}
	}
	if bestIdx < 0 {
		return nil, fmt.Errorf("insert: no feasible root solution (max-cap too tight?)")
	}
	if cfg.KeepRootSet {
		sort.Slice(res.Candidates, func(i, j int) bool {
			return res.Candidates[i].Latency < res.Candidates[j].Latency
		})
	}
	chosen := rootSet[bestIdx]
	res.Chosen = RootCandidate{
		Latency: chosen.MaxD, Skew: chosen.MaxD - chosen.MinD, Cap: chosen.Cap,
		Bufs: chosen.Bufs, TSVs: chosen.TSVs,
		MOES: cfg.Alpha*chosen.MaxD + cfg.Beta*float64(chosen.Bufs) + cfg.Gamma*float64(chosen.TSVs),
	}

	// Step 4: top-down decision.
	decideRoots(t, nodes, rootDPs, chosen)
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("insert: decided tree invalid: %w", err)
	}
	return res, nil
}

// buildDPTree creates one DP node per trunk edge in postorder (children
// before parents) and returns the DP indices of the clock root's edges.
func buildDPTree(t *ctree.Tree, cfg Config, fanout []int) (nodes []dpNode, rootDPs []int, err error) {
	dpOf := make([]int, t.Len())
	for i := range dpOf {
		dpOf[i] = -1
	}
	order := make([]int, 0, t.Len())
	t.PostOrder(func(id int) {
		k := t.Nodes[id].Kind
		if id != t.Root() && (k == ctree.KindSteiner || k == ctree.KindCentroid) {
			order = append(order, id)
		}
	})
	if len(order) == 0 {
		return nil, nil, fmt.Errorf("insert: tree has no trunk edges")
	}
	for _, id := range order {
		mode := ModeFull
		if cfg.ModeOf != nil {
			mode = cfg.ModeOf(id, fanout[id])
		}
		dp := dpNode{treeID: id, length: t.EdgeLen(id), mode: mode, child: [2]int32{-1, -1}}
		for _, c := range t.Nodes[id].Children {
			k := t.Nodes[c].Kind
			if k == ctree.KindSteiner || k == ctree.KindCentroid {
				if dpOf[c] < 0 {
					return nil, nil, fmt.Errorf("insert: postorder violated at %d", c)
				}
				if dp.nkids == 2 {
					return nil, nil, fmt.Errorf("insert: trunk vertex %d has more than 2 trunk children; the clock tree must be binary", id)
				}
				dp.child[dp.nkids] = int32(dpOf[c])
				dp.nkids++
			}
		}
		dpOf[id] = len(nodes)
		nodes = append(nodes, dp)
	}
	for _, c := range t.Nodes[t.Root()].Children {
		if dpOf[c] < 0 {
			return nil, nil, fmt.Errorf("insert: root child %d is not a trunk edge", c)
		}
		rootDPs = append(rootDPs, dpOf[c])
	}
	return nodes, rootDPs, nil
}

// genScratch is the per-worker buffer set of the generation pass. All
// transient candidate sets are built in these reusable arenas, and the
// per-node final solution sets land in the sols slab, so the steady-state
// pass allocates nothing per node. The slab's memory stays owned by this
// scratch: dp.sols slices into it and is consumed (decide/mergeRoots)
// strictly before the scratch returns to its pool.
type genScratch struct {
	merged []Solution // raw merge products (single-child copy / two-child pairs)
	mid    []Solution // pruned merged set of the two-child case
	out    []Solution // insertion products before the final prune
	pruned []Solution // final prune result (copied into dp.sols)
	side   []Solution // per-side collection inside pruneSide
	order  []int32    // sort permutation inside paretoKeep
	keep   []int32    // dominance-survivor indices inside paretoKeep
	mark   []bool     // thinning selection marks

	sols arena.Slab[Solution] // backing store of every dp.sols this worker emits

	// tv is the run's technology view, which generateAll resolves once and
	// copies into each worker's scratch.
	tv techView
}

// takeSols copies src into slab-backed storage.
func (sc *genScratch) takeSols(src []Solution) []Solution {
	dst := sc.sols.Take(len(src))
	copy(dst, src)
	return dst
}

// genPool recycles generation scratches across every DP run: jobs, sizes
// and concurrent regions all draw from it.
var genPool arena.Pool[genScratch]

func getGenScratch(tv *techView) *genScratch {
	sc := genPool.Get()
	if sc != nil {
		sc.sols.Reset()
	} else {
		sc = &genScratch{}
	}
	sc.tv = *tv
	return sc
}

// generateAll runs Step 2 over every DP node, concurrently when
// cfg.Workers allows. Scheduling never affects results: each node's
// solution set is a pure function of its children's sets. Cancellation via
// ctx aborts the pass between nodes; the success path never consults the
// context's state beyond a cheap Err poll, so results stay deterministic.
func generateAll(ctx context.Context, t *ctree.Tree, nodes []dpNode, cfg Config, res *Result) ([]*genScratch, error) {
	tv := viewOf(cfg.Tech)
	workers := par.N(cfg.Workers)
	if workers > len(nodes) {
		workers = len(nodes)
	}
	if workers <= 1 {
		sc := getGenScratch(&tv)
		for i := range nodes {
			if err := ctx.Err(); err != nil {
				return []*genScratch{sc}, fmt.Errorf("insert: %w", err)
			}
			c, err := generate(t, &nodes[i], nodes, cfg, sc)
			if err != nil {
				return []*genScratch{sc}, err
			}
			res.Solutions += c.solutions
			res.Merged += c.merged
		}
		return []*genScratch{sc}, nil
	}

	// Ready-queue schedule: a node enters the queue when its last child
	// finishes. The queue is buffered to the node count, so sends never
	// block and no worker waits on another except through readiness.
	parentOf := make([]int32, len(nodes))
	pending := make([]int32, len(nodes))
	for i := range parentOf {
		parentOf[i] = -1
	}
	for i := range nodes {
		for k := int8(0); k < nodes[i].nkids; k++ {
			parentOf[nodes[i].child[k]] = int32(i)
		}
		pending[i] = int32(nodes[i].nkids)
	}
	queue := make(chan int32, len(nodes))
	counts := make([]genCount, len(nodes))
	errs := make([]error, len(nodes))
	var remaining atomic.Int64
	remaining.Store(int64(len(nodes)))
	for i := range nodes {
		if pending[i] == 0 {
			queue <- int32(i)
		}
	}
	scratches := make([]*genScratch, workers)
	for w := range scratches {
		scratches[w] = getGenScratch(&tv)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		sc := scratches[w]
		go func() {
			defer wg.Done()
			for {
				// The queue's capacity is the node count, so sends never
				// block: a worker that exits here can only strand buffered
				// work, never another worker's send.
				var id int32
				var ok bool
				select {
				case <-done:
					return
				case id, ok = <-queue:
					if !ok {
						return
					}
				}
				c, err := generate(t, &nodes[id], nodes, cfg, sc)
				counts[id], errs[id] = c, err
				if p := parentOf[id]; p >= 0 {
					if atomic.AddInt32(&pending[p], -1) == 0 {
						queue <- p
					}
				}
				if remaining.Add(-1) == 0 {
					close(queue)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return scratches, fmt.Errorf("insert: %w", err)
	}
	// An upstream failure cascades into its ancestors; report the
	// deepest (lowest-index, since nodes are postorder) error — the same
	// one the sequential loop would have returned.
	for i, err := range errs {
		if err != nil {
			return scratches, err
		}
		res.Solutions += counts[i].solutions
		res.Merged += counts[i].merged
	}
	return scratches, nil
}

// genCount is one DP node's share of the Result counters.
type genCount struct {
	solutions int // candidates the insertion produced before pruning
	merged    int // child-solution pairs a two-child merge generated
}

// generate runs the merge and insert operations of Step 2 for one DP node.
func generate(t *ctree.Tree, dp *dpNode, nodes []dpNode, cfg Config, sc *genScratch) (genCount, error) {
	tv := &sc.tv
	merged, pairs := mergeChildren(t, dp, nodes, cfg, sc)
	if len(merged) == 0 {
		return genCount{}, fmt.Errorf("insert: node %d (tree %d): no merged candidates", dp.treeID, dp.treeID)
	}
	// Inserting: assign a pattern to this edge for every merged candidate.
	out := sc.out[:0]
	for _, m := range merged {
		for p := Pattern(0); int(p) < numPatterns; p++ {
			if !dp.mode.Allowed(p) {
				continue
			}
			if p.DownSide() != m.Up {
				continue // connectivity at the downstream vertex
			}
			upCap, maxD, minD, ok := transfer(p, tv, dp.length, m.Cap, m.MaxD, m.MinD)
			if !ok || upCap > tv.buf.MaxCap {
				continue
			}
			out = append(out, Solution{
				Up: p.UpSide(), Cap: upCap, MaxD: maxD, MinD: minD,
				Bufs: m.Bufs + p.Buffers(), TSVs: m.TSVs + p.NTSVs(),
				Pattern: p, left: m.left, right: m.right,
			})
		}
	}
	sc.out = out
	sc.pruned = pruneInto(sc.pruned[:0], out, cfg.MaxPerSide, cfg.DiversePruning, sc)
	dp.sols = sc.takeSols(sc.pruned)
	c := genCount{solutions: len(out), merged: pairs}
	if len(dp.sols) == 0 {
		return c, fmt.Errorf("insert: node for tree edge %d has no feasible solutions (edge length %.2f µm, load %.2f fF, max cap %.2f fF)",
			dp.treeID, dp.length, merged[0].Cap, tv.buf.MaxCap)
	}
	return c, nil
}

// mergeChildren produces the merged candidate set at the downstream vertex
// of dp's edge: the "state before this edge's pattern is applied". The Up
// field of a merged candidate holds the side type of the downstream vertex;
// left/right record child solution indices. It also returns the number of
// child pairs a two-child merge generated (0 otherwise). The returned slice
// aliases the scratch arenas and is only valid until the next scratch use.
//
// A two-child merge pairs same-side solutions and prunes the products. With
// the default (cap, max delay) dominance it generates only the pairs that
// prune can keep (crossPareto, at most |A|+|B| per side); DiversePruning
// puts resources into the dominance test, which the filter's argument does
// not cover, so it pairs everything (crossAll). Either way the pruned set
// is the same.
func mergeChildren(t *ctree.Tree, dp *dpNode, nodes []dpNode, cfg Config, sc *genScratch) ([]Solution, int) {
	switch dp.nkids {
	case 0:
		// Leaf DP node: the downstream vertex is a low-level centroid
		// driving its front-side star leaf net. (With zero-length leaf
		// nets this reduces to the bare sink load.)
		load, maxD, minD := leafNetLoad(t, dp.treeID, &sc.tv)
		sc.merged = append(sc.merged[:0], Solution{Up: ctree.Front, Cap: load, MaxD: maxD, MinD: minD, left: -1, right: -1})
		return sc.merged, 0
	case 1:
		kid := &nodes[dp.child[0]]
		out := sc.merged[:0]
		for i, s := range kid.sols {
			out = append(out, Solution{
				Up: s.Up, Cap: s.Cap, MaxD: s.MaxD, MinD: s.MinD,
				Bufs: s.Bufs, TSVs: s.TSVs, left: int32(i), right: -1,
			})
		}
		sc.merged = out
		return out, 0
	default:
		a, b := nodes[dp.child[0]].sols, nodes[dp.child[1]].sols
		if cfg.DiversePruning {
			sc.merged = crossAll(sc.merged[:0], a, b)
		} else {
			sc.merged = crossPareto(sc.merged[:0], a, b)
		}
		// Merged sets grow quadratically; prune before insertion too.
		sc.mid = pruneInto(sc.mid[:0], sc.merged, cfg.MaxPerSide, cfg.DiversePruning, sc)
		return sc.mid, len(sc.merged)
	}
}

// mergePair appends the merge of child solutions a[i] and b[j].
func mergePair(dst []Solution, a, b []Solution, i, j int) []Solution {
	sa, sb := &a[i], &b[j]
	return append(dst, Solution{
		Up:   sa.Up,
		Cap:  sa.Cap + sb.Cap,
		MaxD: math.Max(sa.MaxD, sb.MaxD),
		MinD: math.Min(sa.MinD, sb.MinD),
		Bufs: sa.Bufs + sb.Bufs, TSVs: sa.TSVs + sb.TSVs,
		left: int32(i), right: int32(j),
	})
}

// crossAll appends every same-side pair of a and b: the merge's reference.
func crossAll(dst, a, b []Solution) []Solution {
	for i := range a {
		for j := range b {
			if a[i].Up == b[j].Up { // connectivity at the shared vertex
				dst = mergePair(dst, a, b, i, j)
			}
		}
	}
	return dst
}

// crossPareto appends the same-side pairs of a and b that the default
// (cap, max delay) prune can keep, skipping only pairs it provably drops.
// Both sets must be outputs of the default prune (pruneInto): front-side
// solutions first, then back-side ones, each side sorted by solCompare with
// cap rising and max delay falling.
//
// Take a pair (i, j) whose merged max delay is A[i]'s, and let j* be the
// first j with B[j].MaxD <= A[i].MaxD. Every (i, j) with j > j* has the same
// merged max delay as (i, j*) and, caps rising, a cap sum at least as large.
// Where the sum is strictly larger, (i, j*) precedes (i, j) in solCompare,
// so (i, j) is dominated — by (i, j*) if the prune keeps it, else by the
// kept solution that dominates (i, j*). The same holds with the children's
// roles swapped. A dominated pair never enters the prune's keep list, and
// only kept solutions dominate others, so leaving these pairs out changes
// neither the keep list nor the thinning. Pairs whose cap sum rounds equal
// to the dominator's are generated, since solCompare may then order them
// first.
func crossPareto(dst, a, b []Solution) []Solution {
	af, bf := frontLen(a), frontLen(b)
	dst = crossSide(dst, a, b, 0, af, 0, bf)
	return crossSide(dst, a, b, af, len(a), bf, len(b))
}

// frontLen returns the length of a pruned set's front-side prefix.
func frontLen(sols []Solution) int {
	for i := range sols {
		if sols[i].Up != ctree.Front {
			return i
		}
	}
	return len(sols)
}

// crossSide is crossPareto on one side: A = a[a0:a1], B = b[b0:b1], as a
// two-pointer walk per child. The first walk covers the pairs whose merged
// max delay is A's (A[i].MaxD >= B[j].MaxD), the second those whose max
// delay is B's alone, so no pair is generated twice.
func crossSide(dst, a, b []Solution, a0, a1, b0, b1 int) []Solution {
	j := b0
	for i := a0; i < a1; i++ {
		for j < b1 && b[j].MaxD > a[i].MaxD {
			j++
		}
		if j == b1 {
			break
		}
		sum := a[i].Cap + b[j].Cap
		for k := j; k < b1 && a[i].Cap+b[k].Cap == sum; k++ {
			dst = mergePair(dst, a, b, i, k)
		}
	}
	i := a0
	for j := b0; j < b1; j++ {
		for i < a1 && a[i].MaxD >= b[j].MaxD {
			i++
		}
		if i == a1 {
			break
		}
		sum := a[i].Cap + b[j].Cap
		for k := i; k < a1 && a[k].Cap+b[j].Cap == sum; k++ {
			dst = mergePair(dst, a, b, k, j)
		}
	}
	return dst
}

// leafNetLoad computes the load and internal delays of the star leaf net
// hanging off centroid node id (front side, L-model).
func leafNetLoad(t *ctree.Tree, id int, tv *techView) (load, maxD, minD float64) {
	minD = math.Inf(1)
	any := false
	for _, c := range t.Nodes[id].Children {
		n := &t.Nodes[c]
		if n.Kind != ctree.KindSink {
			continue
		}
		any = true
		l := t.EdgeLen(c)
		load += timing.WireCap(tv.front, l, tv.sinkCap)
		d := timing.WireDelay(tv.front, l, tv.sinkCap)
		maxD = math.Max(maxD, d)
		minD = math.Min(minD, d)
	}
	if !any {
		// A trunk edge ending in a centroid with no sinks (can happen in
		// synthetic trees): treat as a bare vertex.
		return 0, 0, 0
	}
	return load, maxD, minD
}

// prune keeps, per side type, the Pareto-optimal solutions — the
// inferior-solution rule of [16] extended to the double-side scenario by
// pruning front-side and back-side candidates separately (Sec. III-C2).
// The default dominance test is the paper's (effective cap, max delay):
// the min-latency solution is never dominated, so the DP is latency-
// optimal. With diverse=true the resource count joins the test, so
// cheaper-but-slower solutions also survive (design-space studies).
// Sets beyond maxPerSide are thinned evenly along the cap axis, always
// retaining the latency-best point.
func prune(sols []Solution, maxPerSide int, diverse bool) []Solution {
	return pruneInto(nil, sols, maxPerSide, diverse, &genScratch{})
}

// pruneInto is the arena-backed prune: survivors are appended to dst and
// all transient sets live in the scratch buffers.
func pruneInto(dst, sols []Solution, maxPerSide int, diverse bool, sc *genScratch) []Solution {
	dst = pruneSideInto(dst, sols, ctree.Front, maxPerSide, diverse, sc)
	return pruneSideInto(dst, sols, ctree.Back, maxPerSide, diverse, sc)
}

func pruneSideInto(dst, sols []Solution, side ctree.Side, maxPerSide int, diverse bool, sc *genScratch) []Solution {
	g := sc.side[:0]
	for _, s := range sols {
		if s.Up == side {
			g = append(g, s)
		}
	}
	sc.side = g
	if len(g) == 0 {
		return dst
	}
	return paretoKeepInto(dst, g, maxPerSide, diverse, sc)
}

// solCompare is a strict total order on solutions: the pruning keys
// (effective cap, max delay, resources) first, then every remaining field
// as a tie-breaker. A total order makes the sorted sequence — and with it
// the dominance filter and the thinning — independent of the sorting
// algorithm, which keeps pruning deterministic.
func solCompare(a, b *Solution, diverse bool) int {
	if a.Cap != b.Cap {
		if a.Cap < b.Cap {
			return -1
		}
		return 1
	}
	if a.MaxD != b.MaxD {
		if a.MaxD < b.MaxD {
			return -1
		}
		return 1
	}
	if diverse {
		if ra, rb := a.Bufs+a.TSVs, b.Bufs+b.TSVs; ra != rb {
			return ra - rb
		}
	}
	// Among candidates identical in the pruning keys, prefer the higher
	// minimum delay (lower downstream skew), then deterministic
	// bookkeeping fields.
	if a.MinD != b.MinD {
		if a.MinD > b.MinD {
			return -1
		}
		return 1
	}
	if a.Bufs != b.Bufs {
		return a.Bufs - b.Bufs
	}
	if a.TSVs != b.TSVs {
		return a.TSVs - b.TSVs
	}
	if a.Pattern != b.Pattern {
		return int(a.Pattern) - int(b.Pattern)
	}
	if a.left != b.left {
		return int(a.left) - int(b.left)
	}
	return int(a.right) - int(b.right)
}

// paretoKeepInto filters dominated solutions (same-side input) and thins,
// appending survivors to dst. The sort and the dominance pass work on an
// index permutation rather than moving the ~80-byte solutions themselves:
// solCompare is a strict total order, so the sorted sequence — and every
// downstream choice — is identical to sorting the structs, while the hot
// loop stops spending its time in struct copies (this was the single
// largest memmove cost of the whole insertion pass).
func paretoKeepInto(dst, g []Solution, maxKeep int, diverse bool, sc *genScratch) []Solution {
	const eps = 1e-12
	res := func(s *Solution) int {
		if !diverse {
			return 0 // resources do not participate in dominance
		}
		return s.Bufs + s.TSVs
	}
	order := sc.order[:0]
	for i := range g {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int { return solCompare(&g[a], &g[b], diverse) })
	sc.order = order
	keep := sc.keep[:0]
	for _, gi := range order {
		s := &g[gi]
		dominated := false
		for _, ki := range keep {
			q := &g[ki] // q.Cap <= s.Cap by sort order
			if q.MaxD <= s.MaxD+eps && res(q) <= res(s) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, gi)
		}
	}
	sc.keep = keep
	if len(keep) <= maxKeep || maxKeep <= 1 {
		for _, ki := range keep {
			dst = append(dst, g[ki])
		}
		return dst
	}
	// Thin evenly along the cap axis, always retaining the latency-best
	// point.
	if cap(sc.mark) < len(keep) {
		sc.mark = make([]bool, len(keep))
	}
	mark := sc.mark[:len(keep)]
	for i := range mark {
		mark[i] = false
	}
	bestD := 0
	for i := range keep {
		if g[keep[i]].MaxD < g[keep[bestD]].MaxD {
			bestD = i
		}
	}
	mark[bestD] = true
	div := maxKeep - 2
	if div < 1 {
		div = 1 // maxKeep == 2: keep the latency-best point plus the cap-min end
	}
	for i := 0; i < maxKeep-1; i++ {
		mark[i*(len(keep)-1)/div] = true
	}
	for i := range keep {
		if mark[i] {
			dst = append(dst, g[keep[i]])
		}
	}
	return dst
}

// mergeRoots folds the DP root sets of the clock root's edges into final
// root candidates. The clock root vertex is on the front side, so only
// front-up solutions qualify.
func mergeRoots(nodes []dpNode, rootDPs []int, cfg Config) ([]Solution, error) {
	if len(rootDPs) == 0 {
		return nil, fmt.Errorf("insert: no root edges")
	}
	// Start from the first root edge's front-side solutions, remembering
	// which DP node each left/right index refers to via rootChoice.
	var acc []Solution
	for i, s := range nodes[rootDPs[0]].sols {
		if s.Up != ctree.Front {
			continue
		}
		c := s
		c.left = int32(i) // index within nodes[rootDPs[0]].sols
		c.right = -1
		c.rootIdx = []int32{int32(i)}
		acc = append(acc, c)
	}
	for r := 1; r < len(rootDPs); r++ {
		var next []Solution
		for _, a := range acc {
			for j, sb := range nodes[rootDPs[r]].sols {
				if sb.Up != ctree.Front {
					continue
				}
				c := Solution{
					Up:   ctree.Front,
					Cap:  a.Cap + sb.Cap,
					MaxD: math.Max(a.MaxD, sb.MaxD),
					MinD: math.Min(a.MinD, sb.MinD),
					Bufs: a.Bufs + sb.Bufs, TSVs: a.TSVs + sb.TSVs,
				}
				c.rootIdx = append(append([]int32{}, a.rootIdx...), int32(j))
				next = append(next, c)
			}
		}
		acc = prunePreserveRoot(next, cfg.MaxPerSide*4, cfg.DiversePruning)
	}
	if len(acc) == 0 {
		return nil, fmt.Errorf("insert: no front-side root candidates")
	}
	return acc, nil
}

// prunePreserveRoot prunes like prune; Solution values (including the
// rootIdx bookkeeping) are kept wholesale. All candidates are front-side
// by construction, so no per-side split is needed.
func prunePreserveRoot(sols []Solution, maxKeep int, diverse bool) []Solution {
	return paretoKeepInto(nil, sols, maxKeep, diverse, &genScratch{})
}

// decideRoots applies the chosen root candidate's per-root-edge solution
// indices and retraces each subtree top-down.
func decideRoots(t *ctree.Tree, nodes []dpNode, rootDPs []int, chosen Solution) {
	for r, dpIdx := range rootDPs {
		decide(t, nodes, dpIdx, int(chosen.rootIdx[r]))
	}
}

// decide writes the pattern of solution solIdx at DP node dpIdx into the
// tree and recurses into the recorded child solutions.
func decide(t *ctree.Tree, nodes []dpNode, dpIdx, solIdx int) {
	dp := &nodes[dpIdx]
	s := dp.sols[solIdx]
	t.Nodes[dp.treeID].Wiring = s.Pattern.Wiring()
	switch dp.nkids {
	case 0:
	case 1:
		decide(t, nodes, int(dp.child[0]), int(s.left))
	default:
		decide(t, nodes, int(dp.child[0]), int(s.left))
		decide(t, nodes, int(dp.child[1]), int(s.right))
	}
}
