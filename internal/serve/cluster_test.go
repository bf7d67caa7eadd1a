package serve

// Cluster-mode tests: an in-process 3-node cluster over real listeners,
// pinning the tentpole guarantees — routed forwarding with exactly-one-
// owner caching, remote region dispatch that stays bit-identical to
// single-node runs, request-ID propagation across the forward hop, the
// board's re-offer rule, and fallback-to-local when a node dies, fails,
// hangs or answers garbage.

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dscts/internal/clusterd"
	"dscts/internal/core"
	"dscts/internal/ctree"
	"dscts/internal/eval"
	"dscts/internal/fault"
	"dscts/internal/geom"
	"dscts/internal/tech"
)

// testClusterNode is one in-process cluster member.
type testClusterNode struct {
	id     string
	url    string
	srv    *Server
	hs     *http.Server
	client *Client
	killed bool
}

// kill closes the node abruptly: listener first (peers start seeing
// connection refused), then the server (cancelling in-flight jobs).
func (n *testClusterNode) kill() {
	if n.killed {
		return
	}
	n.killed = true
	n.hs.Close()
	n.srv.Close()
}

// newTestCluster boots n nodes on loopback listeners. Listeners come
// first so every node knows the full peer URL set before it starts.
// mutate, when non-nil, adjusts each node's Config before boot.
func newTestCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) []*testClusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]clusterd.Peer, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = clusterd.Peer{
			ID:  fmt.Sprintf("n%d", i+1),
			URL: "http://" + ln.Addr().String(),
		}
	}
	nodes := make([]*testClusterNode, n)
	for i := range nodes {
		cfg := Config{
			MaxRunning: 4, MaxQueued: 32,
			Cluster: &ClusterConfig{
				NodeID: peers[i].ID, Peers: peers, Secret: "test-secret",
				ProbeInterval: 100 * time.Millisecond,
				ProbeTimeout:  time.Second,
				Cooldown:      200 * time.Millisecond,
				RegionTimeout: 30 * time.Second,
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv := NewServer(cfg)
		hs := &http.Server{Handler: srv.Handler()}
		node := &testClusterNode{
			id: peers[i].ID, url: peers[i].URL,
			srv: srv, hs: hs, client: NewClient(peers[i].URL),
		}
		go hs.Serve(lns[i])
		nodes[i] = node
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.kill()
		}
	})
	return nodes
}

// ownerOf returns the index of the node owning req's cache key and the
// index of some other node.
func ownerOf(t *testing.T, nodes []*testClusterNode, req *Request, kind string) (owner, other int) {
	t.Helper()
	ring := nodes[0].srv.Queue().cluster.ring
	id := ring.Owner(req.Key(kind))
	owner = -1
	for i, n := range nodes {
		if n.id == id {
			owner = i
		} else {
			other = i
		}
	}
	if owner < 0 {
		t.Fatalf("ring owner %q not among nodes", id)
	}
	return owner, other
}

// TestClusterForwardedBitIdentical submits C1..C5 to a node that does NOT
// own their cache keys and checks each request was forwarded to its ring
// owner, answered with metrics bit-identical to a direct library run, and
// cached on exactly the owner (a repeat from a different non-owner is a
// cluster-wide cache hit).
func TestClusterForwardedBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node end-to-end run")
	}
	nodes := newTestCluster(t, 3, nil)
	for _, design := range []string{"C1", "C2", "C3", "C4", "C5"} {
		req := &Request{Design: design, IncludeSinkDelays: true}
		owner, other := ownerOf(t, nodes, req, KindSynthesize)
		before := nodes[other].srv.Queue().cluster.forwarded.Load()
		info, err := nodes[other].client.Synthesize(context.Background(), req)
		if err != nil {
			t.Fatalf("%s via %s: %v", design, nodes[other].id, err)
		}
		if info.State != StateDone {
			t.Fatalf("%s: state %s (%s)", design, info.State, info.Error)
		}
		requireSameMetrics(t, design+" via "+nodes[other].id, info.Result, req)
		if got := nodes[other].srv.Queue().cluster.forwarded.Load(); got != before+1 {
			t.Fatalf("%s: node %s forwarded %d→%d, want +1", design, nodes[other].id, before, got)
		}
		// The owner — and only the owner — holds the cached result.
		key := req.Key(KindSynthesize)
		for i, n := range nodes {
			if has := n.srv.Queue().cache.Has(key); has != (i == owner) {
				t.Fatalf("%s: node %s cache presence %v, want %v", design, n.id, has, i == owner)
			}
		}
		// A repeat through the third node (neither owner nor first
		// submitter) is answered from the owner's cache.
		third := 3 - owner - other
		repeat, err := nodes[third].client.Synthesize(context.Background(), req)
		if err != nil {
			t.Fatalf("%s repeat: %v", design, err)
		}
		if !repeat.CacheHit {
			t.Fatalf("%s: repeat via %s was not a cluster cache hit", design, nodes[third].id)
		}
	}
	// Counter consistency: forwards sent across the cluster equal forwards
	// received.
	var sent, recv int64
	for _, n := range nodes {
		cs := n.srv.Queue().Stats().Cluster
		sent += cs.Forwarded
		recv += cs.ForwardedIn
	}
	if sent == 0 || sent != recv {
		t.Fatalf("forwarded %d != forwarded_in %d", sent, recv)
	}
}

// TestClusterRemoteRegionDispatch runs a partitioned job on a node with no
// local board executors, so every region MUST execute on a peer, and checks
// the stitched result is still bit-identical to a direct single-process
// run, with each region executed exactly once.
func TestClusterRemoteRegionDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node end-to-end run")
	}
	nodes := newTestCluster(t, 3, func(i int, cfg *Config) {
		if i == 0 {
			cfg.Cluster.LocalExecutors = -1 // n1 cannot run its own regions
		}
	})
	req := &Request{Design: "C4", IncludeSinkDelays: true,
		Options: OptionsSpec{PartitionMaxSinks: 300}}
	// Bypass routing: submit straight to n1's queue so the partitioned job
	// runs on the executor-less node regardless of ring ownership.
	job, err := nodes[0].srv.Queue().Submit(req, KindSynthesize)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	info := job.Info()
	if info.State != StateDone {
		t.Fatalf("job state %s (%s)", info.State, info.Error)
	}
	requireSameMetrics(t, "partitioned via cluster", info.Result, req)
	c := nodes[0].srv.Queue().cluster
	if c.localRegions.Load() != 0 {
		t.Fatalf("executor-less node ran %d regions locally", c.localRegions.Load())
	}
	var served int64
	for _, n := range nodes[1:] {
		served += n.srv.Queue().Stats().Cluster.RegionsServed
	}
	regions := regionsOf(t, info)
	if regions != 4 || c.dispatched.Load() != regions || served != regions {
		t.Fatalf("job ran %d regions (want 4), n1 applied %d dispatches, peers served %d: want all equal",
			regions, c.dispatched.Load(), served)
	}
	if e := c.dispatchErrs.Load(); e != 0 {
		t.Fatalf("%d dispatch errors on a healthy cluster", e)
	}
}

// regionsOf returns the number of regions a partitioned job ran: the
// point events of its partition phase.
func regionsOf(t *testing.T, info JobInfo) int64 {
	t.Helper()
	for _, p := range info.Result.Phases {
		if p.Phase == string(core.PhasePartition) {
			return int64(p.Points)
		}
	}
	t.Fatal("job reported no partition phase")
	return 0
}

// TestClusterForwardCarriesRequestID pins end-to-end request-ID
// propagation: a client-supplied X-Request-ID crosses the forward hop and
// is the ID the owning node's job records.
func TestClusterForwardCarriesRequestID(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node end-to-end run")
	}
	nodes := newTestCluster(t, 3, nil)
	req := &Request{Design: "C1"}
	owner, other := ownerOf(t, nodes, req, KindSynthesize)
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost,
		nodes[other].url+"/synthesize?mode=sync", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	const rid = "rid-cluster-e2e-42"
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-ID", rid)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != rid {
		t.Fatalf("response X-Request-ID %q, want %q", got, rid)
	}
	if got := resp.Header.Get("X-Dscts-Node"); got != nodes[owner].id {
		t.Fatalf("answered by %q, want owner %q", got, nodes[owner].id)
	}
	// The job exists on the owner and records the client's request ID.
	q := nodes[owner].srv.Queue()
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.jobs) != 1 {
		t.Fatalf("owner holds %d jobs, want 1", len(q.jobs))
	}
	for _, j := range q.jobs {
		if j.reqID != rid {
			t.Fatalf("owner job request ID %q, want %q", j.reqID, rid)
		}
	}
}

// TestClusterNodeKillFallback kills one node and checks requests owned by
// it still succeed from any survivor: the forward fails, the breaker
// records it, and the survivor serves the job locally.
func TestClusterNodeKillFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node end-to-end run")
	}
	nodes := newTestCluster(t, 3, nil)
	// Find a request owned by node 0 so killing it exercises the fallback.
	var req *Request
	for seed := int64(1); seed < 100; seed++ {
		cand := &Request{Design: "C2", Seed: seed, IncludeSinkDelays: true}
		if owner, _ := ownerOf(t, nodes, cand, KindSynthesize); owner == 0 {
			req = cand
			break
		}
	}
	if req == nil {
		t.Fatal("no seed hashed to node n1")
	}
	nodes[0].kill()
	info, err := nodes[1].client.Synthesize(context.Background(), req)
	if err != nil {
		t.Fatalf("synthesize after node kill: %v", err)
	}
	if info.State != StateDone {
		t.Fatalf("state %s (%s)", info.State, info.Error)
	}
	requireSameMetrics(t, "fallback after kill", info.Result, req)
	cs := nodes[1].srv.Queue().Stats().Cluster
	if cs.ForwardFallback == 0 {
		t.Fatal("no forward fallback recorded after killing the owner")
	}
	// Once the breaker opens (or the prober marks the peer down), later
	// requests skip the doomed forward entirely and are still answered.
	for i := 0; i < 3; i++ {
		again, err := nodes[2].client.Synthesize(context.Background(), req)
		if err != nil {
			t.Fatalf("post-kill request %d: %v", i, err)
		}
		if again.State != StateDone {
			t.Fatalf("post-kill request %d: state %s", i, again.State)
		}
	}
}

// TestRegionBoardReofferPinsLocal pins the board's failure model: two
// failed remote attempts pin an entry local, so dispatchers pass it over
// while a local executor still gets it, and an entry completes exactly once.
func TestRegionBoardReofferPinsLocal(t *testing.T) {
	b := newRegionBoard()
	defer b.close()
	type result struct {
		out *core.RegionOut
		err error
	}
	offer := func(id int) chan result {
		ch := make(chan result, 1)
		go func() {
			out, err := b.run(context.Background(), regionTask{work: core.RegionWork{ID: id}})
			ch <- result{out, err}
		}()
		return ch
	}
	res7 := offer(7)
	for attempt := 1; attempt <= 2; attempt++ {
		e := b.nextRemote()
		if e.task.work.ID != 7 {
			t.Fatalf("attempt %d: dispatcher got region %d, want 7", attempt, e.task.work.ID)
		}
		b.reoffer(e)
		if pinned := attempt == 2; e.localOnly != pinned {
			t.Fatalf("after %d failed remote attempts: localOnly %v, want %v", attempt, e.localOnly, pinned)
		}
	}
	// Region 8 is offered behind the pinned 7: a dispatcher skips 7 for 8,
	// and a local executor gets 7.
	res8 := offer(8)
	if e := b.nextRemote(); e.task.work.ID != 8 {
		t.Fatalf("dispatcher got region %d, want 8 (7 is pinned local)", e.task.work.ID)
	} else if !b.deliver(e, &core.RegionOut{}, nil) {
		t.Fatal("delivery of region 8 refused")
	}
	e := b.next()
	if e.task.work.ID != 7 {
		t.Fatalf("local executor got region %d, want 7", e.task.work.ID)
	}
	out := &core.RegionOut{}
	if !b.deliver(e, out, nil) {
		t.Fatal("first delivery refused")
	}
	if b.deliver(e, &core.RegionOut{}, nil) || b.deliver(e, nil, errors.New("late")) {
		t.Fatal("a second delivery was accepted")
	}
	if r := <-res7; r.err != nil || r.out != out {
		t.Fatalf("region 7 returned %p, %v; want the first delivery", r.out, r.err)
	}
	if r := <-res8; r.err != nil {
		t.Fatalf("region 8: %v", r.err)
	}
}

// TestClusterSecretRejected pins the /internal/* authentication gate: a
// request without the shared secret is refused.
func TestClusterSecretRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node end-to-end run")
	}
	nodes := newTestCluster(t, 3, nil)
	resp, err := http.Post(nodes[0].url+"/internal/region", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unauthenticated /internal/region: status %d, want 403", resp.StatusCode)
	}
}

// newFakePeerNode boots a real node n1 whose one peer, n2, is a stand-in:
// it answers /readyz and hands /internal/region to region. n1 runs one
// local executor, so a region its peer fails still completes; tune, when
// non-nil, adjusts n1's cluster config before boot.
func newFakePeerNode(t *testing.T, tune func(*ClusterConfig), region http.HandlerFunc) *testClusterNode {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(http.ResponseWriter, *http.Request) {})
	mux.HandleFunc("POST /internal/region", region)
	fake := httptest.NewServer(mux)
	t.Cleanup(fake.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []clusterd.Peer{{ID: "n1", URL: "http://" + ln.Addr().String()}, {ID: "n2", URL: fake.URL}}
	cc := &ClusterConfig{
		NodeID: "n1", Peers: peers,
		ProbeInterval:  100 * time.Millisecond,
		Cooldown:       200 * time.Millisecond,
		LocalExecutors: 1,
	}
	if tune != nil {
		tune(cc)
	}
	srv := NewServer(Config{MaxRunning: 4, MaxQueued: 32, Cluster: cc})
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	node := &testClusterNode{id: "n1", url: peers[0].URL, srv: srv, hs: hs, client: NewClient(peers[0].URL)}
	t.Cleanup(node.kill)
	return node
}

// runPartitionedC4 runs partitioned C4 on node's queue directly (no
// routing) and requires it to finish, bit-identical to a direct run,
// within limit.
func runPartitionedC4(t *testing.T, node *testClusterNode, limit time.Duration) {
	t.Helper()
	req := &Request{Design: "C4", IncludeSinkDelays: true,
		Options: OptionsSpec{PartitionMaxSinks: 300}}
	job, err := node.srv.Queue().Submit(req, KindSynthesize)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(limit):
		t.Fatalf("partitioned job still %s after %v", job.Info().State, limit)
	}
	info := job.Info()
	if info.State != StateDone {
		t.Fatalf("job state %s (%s)", info.State, info.Error)
	}
	requireSameMetrics(t, "partitioned via "+node.id, info.Result, req)
}

// hungRegion is a /internal/region handler that reads the request and
// never answers until its caller gives up or the test ends.
func hungRegion(t *testing.T) http.HandlerFunc {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	return func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}
}

// TestClusterHungPeerRegionTimeout: a peer that passes its /readyz probes
// but never answers /internal/region costs a job RegionTimeout per
// attempt, not the job. The region is charged to the peer, re-offered
// and finished elsewhere.
func TestClusterHungPeerRegionTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node end-to-end run")
	}
	node := newFakePeerNode(t, func(cc *ClusterConfig) { cc.RegionTimeout = 2 * time.Second }, hungRegion(t))
	runPartitionedC4(t, node, 20*time.Second)
	if c := node.srv.Queue().cluster; c.dispatchErrs.Load() == 0 {
		t.Fatal("no dispatch to the hung peer timed out")
	}
}

// TestClusterHungPeerJobDeadline: when a job's own deadline (timeout_ms)
// is shorter than RegionTimeout, a job that loses a region to the hung
// peer times out. Each such dispatch still counts against the peer, so
// after FailThreshold such jobs its breaker opens and the next job
// completes without it. A job whose regions all ran locally before the
// dispatcher took one completes and charges nothing.
func TestClusterHungPeerJobDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node end-to-end run")
	}
	const failThreshold = 3
	node := newFakePeerNode(t, func(cc *ClusterConfig) {
		cc.RegionTimeout = time.Minute
		cc.FailThreshold = failThreshold
		cc.Cooldown = time.Minute
	}, hungRegion(t))
	q := node.srv.Queue()
	timedOut := 0
	for jobs, start := 0, time.Now(); timedOut < failThreshold; jobs++ {
		if time.Since(start) > 30*time.Second {
			t.Fatalf("only %d of %d jobs lost a region to the hung peer in 30s", timedOut, jobs)
		}
		// Seeds from 2 give every job its own key (the default seed is 1),
		// so a job that completes is no later job's cache hit.
		job, err := q.Submit(&Request{Design: "C4", Seed: int64(jobs + 2), TimeoutMS: 1500,
			Options: OptionsSpec{PartitionMaxSinks: 300}}, KindSynthesize)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-job.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("job %d still %s 10s after submit", jobs, job.Info().State)
		}
		info := job.Info()
		if info.State == StateDone {
			continue
		}
		if info.State != StateFailed || !info.TimedOut {
			t.Fatalf("job %d ended %s (%s), want done or failed on its deadline", jobs, info.State, info.Error)
		}
		timedOut++
		// The dispatcher returns from the aborted POST just after the job
		// ends; wait for it to charge the peer before the next job.
		for deadline := time.Now().Add(5 * time.Second); q.Stats().Cluster.RegionDispatchErrors < int64(timedOut); {
			if time.Now().After(deadline) {
				t.Fatalf("%d jobs timed out on the hung peer, %d dispatch errors charged",
					timedOut, q.Stats().Cluster.RegionDispatchErrors)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if st := q.Stats().Cluster; st.BreakerOpens != 1 || st.RegionDispatchErrors != failThreshold {
		t.Fatalf("%d breaker openings, %d dispatch errors; want 1 and %d",
			st.BreakerOpens, st.RegionDispatchErrors, failThreshold)
	}
	runPartitionedC4(t, node, 20*time.Second)
}

// TestClusterRegionTimeoutScales: a region's dispatch bound is one
// RegionTimeout per started 50k sinks, so a large region on a healthy
// peer is not cut off at the small-region bound.
func TestClusterRegionTimeoutScales(t *testing.T) {
	c := ClusterConfig{RegionTimeout: time.Minute}
	for sinks, want := range map[int]time.Duration{
		0: time.Minute, 1: time.Minute, 50_000: time.Minute,
		50_001: 2 * time.Minute, 1_000_000: 20 * time.Minute,
	} {
		if got := c.regionTimeout(sinks); got != want {
			t.Errorf("%d sinks: bound %v, want %v", sinks, got, want)
		}
	}
}

// TestClusterBadRegionReply: a peer whose region reply is a tree with a
// dangling child, a real result with one sink delay too many, or a real
// result padded past the region's reply bound, costs a dispatch error and
// a re-offer, not a panic or a failed job.
func TestClusterBadRegionReply(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node end-to-end run")
	}
	dangling := ctree.New(geom.Pt(0, 0))
	dangling.Nodes[0].Children = []int{999}
	for name, reply := range map[string]func(regionRPCReq) *core.RegionOut{
		"dangling child": func(regionRPCReq) *core.RegionOut {
			return &core.RegionOut{Tree: dangling, Sum: &eval.RegionEval{Metrics: &eval.Metrics{}}}
		},
		"extra delay": func(req regionRPCReq) *core.RegionOut {
			out, err := core.RunRegion(context.Background(), req.Work, tech.ASAP7(), req.Opt, 1)
			if err != nil {
				return nil
			}
			out.Sum.Metrics.SinkDelays[len(req.Work.Sinks)] = 1
			return out
		},
		"oversize": func(req regionRPCReq) *core.RegionOut {
			out, err := core.RunRegion(context.Background(), req.Work, tech.ASAP7(), req.Opt, 1)
			if err != nil {
				return nil
			}
			for i := len(req.Work.Sinks); i < 100_000; i++ {
				out.Sum.Metrics.SinkDelays[i] = 1
			}
			return out
		},
	} {
		t.Run(name, func(t *testing.T) {
			node := newFakePeerNode(t, nil, func(w http.ResponseWriter, r *http.Request) {
				var req regionRPCReq
				if err := gob.NewDecoder(r.Body).Decode(&req); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				gob.NewEncoder(w).Encode(regionRPCResp{Out: reply(req)})
			})
			runPartitionedC4(t, node, 20*time.Second)
			if st := node.srv.Queue().Stats().Cluster; st.RegionDispatchErrors == 0 || st.RegionsDispatched != 0 {
				t.Fatalf("region_dispatch_errors %d, regions_dispatched %d; want > 0 and 0",
					st.RegionDispatchErrors, st.RegionsDispatched)
			}
		})
	}
}

// TestClusterFaultyPeerReoffered: with every region failing on one peer,
// the origin counts dispatch errors, re-offers, and still returns a
// bit-identical result; the faulty peer serves nothing.
func TestClusterFaultyPeerReoffered(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node end-to-end run")
	}
	nodes := newTestCluster(t, 3, func(i int, cfg *Config) {
		switch i {
		case 0:
			cfg.Cluster.LocalExecutors = 1
		case 2:
			reg, err := fault.Parse("error@core.route:every=1", 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = reg
		}
	})
	runPartitionedC4(t, nodes[0], 20*time.Second)
	if e := nodes[0].srv.Queue().cluster.dispatchErrs.Load(); e == 0 {
		t.Fatal("origin counted no dispatch errors against the faulty peer")
	}
	if s := nodes[2].srv.Queue().Stats().Cluster.RegionsServed; s != 0 {
		t.Fatalf("faulty peer served %d regions", s)
	}
}

// TestClusterCancelChargesNoPeer cancels partitioned jobs while their
// regions run on two healthy but slow peers: each job ends cancelled
// promptly, and the aborted dispatches count neither as dispatch errors
// nor against the peers' breakers.
func TestClusterCancelChargesNoPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node end-to-end run")
	}
	regs := make([]*fault.Registry, 3)
	nodes := newTestCluster(t, 3, func(i int, cfg *Config) {
		if i == 0 {
			cfg.Cluster.LocalExecutors = -1
			return
		}
		reg, err := fault.Parse("delay@core.route:every=1:10s", 1)
		if err != nil {
			t.Fatal(err)
		}
		regs[i], cfg.Faults = reg, reg
	})
	jobs := make([]*Job, 3)
	for i := range jobs {
		job, err := nodes[0].srv.Queue().Submit(&Request{Design: "C4", Seed: int64(i + 1),
			Options: OptionsSpec{PartitionMaxSinks: 300}}, KindSynthesize)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	// Wait until both peers are holding a region.
	for deadline := time.Now().Add(10 * time.Second); regs[1].Counts()["delay@core.route"] == 0 ||
		regs[2].Counts()["delay@core.route"] == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the peers never received a region")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, job := range jobs {
		job.Cancel()
		select {
		case <-job.Done():
		case <-time.After(2 * time.Second):
			t.Fatalf("job %d still %s 2s after cancel", i, job.Info().State)
		}
		if st := job.Info().State; st != StateCancelled {
			t.Fatalf("job %d ended %s, want cancelled", i, st)
		}
	}
	// Give the dispatchers time to see their aborted POSTs return.
	time.Sleep(200 * time.Millisecond)
	if st := nodes[0].srv.Queue().Stats().Cluster; st.RegionDispatchErrors != 0 || st.BreakerOpens != 0 {
		t.Fatalf("cancelling jobs charged the peers: %d dispatch errors, %d breaker openings",
			st.RegionDispatchErrors, st.BreakerOpens)
	}
}

// TestClusterRegionBodyBounded: a region body larger than the receiving
// node's MaxJobSinks allows is refused with 413 while it is still being
// read; a region within the bound is served.
func TestClusterRegionBodyBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node end-to-end run")
	}
	const maxSinks = 100
	nodes := newTestCluster(t, 2, func(i int, cfg *Config) { cfg.MaxJobSinks = maxSinks })
	post := func(sinks int) int {
		work := core.RegionWork{ID: 1, Anchor: geom.Pt(50, 50), Sinks: make([]geom.Point, sinks)}
		for i := range work.Sinks {
			work.Sinks[i] = geom.Pt(float64(i%97)+0.5, float64(i%89)+0.25)
		}
		var body bytes.Buffer
		if err := gob.NewEncoder(&body).Encode(regionRPCReq{Work: work}); err != nil {
			t.Fatal(err)
		}
		if sinks > maxSinks && body.Len() <= maxSinks*bodyBytesPerSink+bodyAllowance {
			t.Fatalf("%d-sink body of %d bytes is within the bound", sinks, body.Len())
		}
		req, err := http.NewRequest(http.MethodPost, nodes[0].url+"/internal/region", &body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(headerSecret, "test-secret")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(20_000); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize region body: status %d, want 413", code)
	}
	if served := nodes[0].srv.Queue().cluster.served.Load(); served != 0 {
		t.Fatalf("node served %d regions from an oversize body", served)
	}
	if code := post(maxSinks / 2); code != http.StatusOK {
		t.Fatalf("region within the bound: status %d, want 200", code)
	}
}
