package serve

// Cluster mode (DESIGN.md §9): a peer-aware queue where cache keys route
// over a consistent-hash ring (forward-on-miss, so any node answers any
// request), partitioned jobs dispatch regions to peers over POST
// /internal/region, idle peers steal queued regions from loaded ones, and
// a static-membership liveness layer (periodic /readyz probes + per-peer
// circuit breakers) degrades every remote path to local execution instead
// of failing jobs when peers die. The determinism contract extends across
// every remote seam: a region executes with core.RunRegion on whichever
// node runs it, results travel as exact gob round-trips, and the engine
// consumes them in region-ID order — so a clustered run's Metrics are
// bit-identical to a single-node run of the same request.

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dscts/internal/clusterd"
	"dscts/internal/core"
	"dscts/internal/tech"
)

// Cluster-internal HTTP headers.
const (
	// headerForwarded marks a request already forwarded once (value: the
	// origin node ID); a receiving node never forwards it again, so ring
	// disagreement during membership churn cannot create forwarding loops.
	headerForwarded = "X-Dscts-Forwarded"
	// headerSecret authenticates /internal/* calls between peers.
	headerSecret = "X-Dscts-Cluster-Secret"
	// headerNode identifies the answering node on every response.
	headerNode = "X-Dscts-Node"
)

// ClusterConfig enables cluster mode on a queue. The zero durations and
// counts pick the defaults noted per field.
type ClusterConfig struct {
	// NodeID is this node's ID; it must appear in Peers.
	NodeID string
	// Peers is the full static member list, the local node included.
	Peers []clusterd.Peer
	// Secret, when non-empty, must accompany every /internal/* call (the
	// X-Dscts-Cluster-Secret header).
	Secret string
	// VNodes is the ring's virtual-node count per member (default 64).
	VNodes int
	// ProbeInterval / ProbeTimeout drive the /readyz liveness prober
	// (defaults 2s / 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailThreshold consecutive call failures open a peer's circuit
	// breaker for Cooldown (defaults 3 / 5s).
	FailThreshold int
	Cooldown      time.Duration
	// StealInterval is the idle poll cadence of the work stealer (default
	// 100ms); DisableSteal turns stealing off entirely.
	StealInterval time.Duration
	DisableSteal  bool
	// DisableDispatch turns off proactive region dispatch to peers (the
	// region board still runs locally and can still be stolen from).
	DisableDispatch bool
	// LeaseTimeout bounds a stolen region's execution; an expired lease is
	// re-offered locally and its late completion rejected (default 60s).
	LeaseTimeout time.Duration
	// LocalExecutors sets the local region-executor goroutines draining
	// this node's board (0 = one per CPU). Negative runs none — the board
	// drains only through peer dispatch and stealing — which tests and
	// benchmarks use to force remote execution deterministically.
	LocalExecutors int
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.VNodes <= 0 {
		c.VNodes = clusterd.DefaultVNodes
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.StealInterval <= 0 {
		c.StealInterval = 100 * time.Millisecond
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 60 * time.Second
	}
	return c
}

// ClusterStats is the cluster section of GET /stats.
type ClusterStats struct {
	NodeID string                `json:"node_id"`
	Peers  []clusterd.PeerStatus `json:"peers"`
	// Forwarded counts requests this node routed to their ring owner;
	// ForwardFallback counts forwards that failed and were served locally
	// instead; ForwardedIn counts forwarded requests received from peers.
	Forwarded       int64 `json:"forwarded"`
	ForwardFallback int64 `json:"forward_fallback_local"`
	ForwardedIn     int64 `json:"forwarded_in"`
	// RegionsDispatched counts regions this node pushed to peers (applied
	// results); RegionDispatchErrors counts dispatch attempts that failed
	// and were re-offered. RegionsServed counts regions this node executed
	// for peers via POST /internal/region.
	RegionsDispatched    int64 `json:"regions_dispatched"`
	RegionDispatchErrors int64 `json:"region_dispatch_errors,omitempty"`
	RegionsServed        int64 `json:"regions_served"`
	// RegionsStolen counts regions this node stole from peers and
	// completed; StealsGiven counts leases this node's board handed to
	// stealing peers; StealRejects counts stale or duplicate steal
	// completions this board refused (lease token reuse).
	RegionsStolen int64 `json:"regions_stolen"`
	StealsGiven   int64 `json:"steals_given"`
	StealRejects  int64 `json:"steal_rejects,omitempty"`
	// RegionsLocal counts board regions executed by the local executors.
	RegionsLocal int64 `json:"regions_local"`
	// BreakerOpens totals per-peer circuit-breaker openings.
	BreakerOpens int64 `json:"breaker_opens,omitempty"`
}

// clusterNode is a queue's cluster runtime: ring, peer liveness, the
// region board and its executors/dispatchers/stealer, and the counters
// behind ClusterStats and the dscts_cluster_* metric families.
type clusterNode struct {
	cfg   ClusterConfig
	self  clusterd.Peer
	ring  *clusterd.Ring
	peers *clusterd.PeerSet
	board *regionBoard
	queue *Queue
	httpc *http.Client
	log   *slog.Logger

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	forwarded       atomic.Int64
	forwardFallback atomic.Int64
	forwardedIn     atomic.Int64
	dispatched      atomic.Int64
	dispatchErrs    atomic.Int64
	served          atomic.Int64
	stolen          atomic.Int64
	stealsGiven     atomic.Int64
	stealRejects    atomic.Int64
	localRegions    atomic.Int64
}

// newClusterNode validates the config, builds the ring over the full
// member list and starts the liveness prober, the board executors, the
// per-peer dispatchers, the stealer and the lease reaper.
func newClusterNode(cfg ClusterConfig, q *Queue) (*clusterNode, error) {
	cfg = cfg.withDefaults()
	self, others, err := clusterd.SplitSelf(cfg.Peers, cfg.NodeID)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(cfg.Peers))
	for i, p := range cfg.Peers {
		ids[i] = p.ID
	}
	httpc := &http.Client{} // per-call contexts carry the deadlines
	c := &clusterNode{
		cfg:  cfg,
		self: self,
		ring: clusterd.NewRing(ids, cfg.VNodes),
		peers: clusterd.NewPeerSet(others, clusterd.PeerSetOptions{
			ProbeInterval: cfg.ProbeInterval,
			ProbeTimeout:  cfg.ProbeTimeout,
			FailThreshold: cfg.FailThreshold,
			Cooldown:      cfg.Cooldown,
			Client:        httpc,
		}),
		board: newRegionBoard(cfg.LeaseTimeout),
		queue: q,
		httpc: httpc,
		log:   q.log.With("node", cfg.NodeID),
		stop:  make(chan struct{}),
	}
	c.peers.Start()
	// Local board executors: one per core by default, mirroring the
	// pre-cluster outer fan-out cap; each runs its region with a modest
	// inner budget (the engine is deterministic in all of these,
	// wall-clock only).
	execs := cfg.LocalExecutors
	if execs == 0 {
		execs = runtime.GOMAXPROCS(0)
	}
	if execs < 0 {
		execs = 0
	}
	inner := runtime.GOMAXPROCS(0) / 2
	if inner < 1 {
		inner = 1
	}
	for i := 0; i < execs; i++ {
		c.wg.Add(1)
		go c.localExecutor(inner)
	}
	if !cfg.DisableDispatch {
		for _, id := range c.peers.IDs() {
			c.wg.Add(1)
			go c.dispatcher(id)
		}
	}
	if !cfg.DisableSteal {
		c.wg.Add(1)
		go c.stealer(inner)
	}
	c.wg.Add(1)
	go c.reaper()
	return c, nil
}

// close stops every cluster goroutine. Called by Queue.Close after the
// runners drained, so no job is still waiting on the board.
func (c *clusterNode) close() {
	c.closeOnce.Do(func() {
		close(c.stop)
		c.board.close()
		c.peers.Close()
		c.wg.Wait()
	})
}

// stats snapshots the cluster section of GET /stats.
func (c *clusterNode) stats() *ClusterStats {
	return &ClusterStats{
		NodeID:               c.self.ID,
		Peers:                c.peers.Snapshot(),
		Forwarded:            c.forwarded.Load(),
		ForwardFallback:      c.forwardFallback.Load(),
		ForwardedIn:          c.forwardedIn.Load(),
		RegionsDispatched:    c.dispatched.Load(),
		RegionDispatchErrors: c.dispatchErrs.Load(),
		RegionsServed:        c.served.Load(),
		RegionsStolen:        c.stolen.Load(),
		StealsGiven:          c.stealsGiven.Load(),
		StealRejects:         c.stealRejects.Load(),
		RegionsLocal:         c.localRegions.Load(),
		BreakerOpens:         c.peers.BreakerOpens(),
	}
}

// ---------------------------------------------------------------------------
// Forward-on-miss request routing.

// shouldForward decides whether a decoded submission should be routed to a
// peer: cluster mode on, the request not already forwarded once, sync mode
// (async/stream job state is node-local and not replicated, so those
// execute where they land), a remote ring owner, no local cached result,
// and the owner in rotation. It returns the owner to forward to.
func (c *clusterNode) shouldForward(r *http.Request, mode string, req *Request, kind string) (string, bool) {
	if c == nil || mode != "sync" || r.Header.Get(headerForwarded) != "" {
		return "", false
	}
	owner := c.ring.Owner(req.Key(kind))
	if owner == c.self.ID {
		return "", false
	}
	if c.queue.cache.Has(req.Key(kind)) {
		return "", false // local hit beats a network hop
	}
	if !c.peers.Usable(owner) {
		c.forwardFallback.Add(1)
		return "", false
	}
	return owner, true
}

// forward proxies the (already decoded and header-merged) submission to
// its ring owner and relays the response. A transport failure or a 5xx
// feeds the owner's breaker and reports false — the caller serves the
// request locally instead (fallback-to-local; the cluster answers even
// with the owner down). The local X-Request-ID travels along, so one
// request keeps one ID across nodes.
func (c *clusterNode) forward(w http.ResponseWriter, r *http.Request, owner string, req *Request) bool {
	body, err := json.Marshal(req)
	if err != nil {
		c.forwardFallback.Add(1)
		return false
	}
	u := c.peers.URL(owner) + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	fr, err := http.NewRequestWithContext(r.Context(), http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		c.forwardFallback.Add(1)
		return false
	}
	fr.Header.Set("Content-Type", "application/json")
	fr.Header.Set(headerForwarded, c.self.ID)
	if c.cfg.Secret != "" {
		fr.Header.Set(headerSecret, c.cfg.Secret)
	}
	if id := r.Header.Get("X-Request-ID"); id != "" {
		fr.Header.Set("X-Request-ID", id)
	}
	resp, err := c.httpc.Do(fr)
	if err != nil {
		c.peers.Failure(owner)
		c.forwardFallback.Add(1)
		c.log.Debug("forward failed; serving locally", "owner", owner, "error", err)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		io.Copy(io.Discard, resp.Body)
		c.peers.Failure(owner)
		c.forwardFallback.Add(1)
		c.log.Debug("forward got 5xx; serving locally", "owner", owner, "status", resp.StatusCode)
		return false
	}
	c.peers.Success(owner)
	c.forwarded.Add(1)
	for _, h := range []string{"Content-Type", "Retry-After", headerNode} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// ---------------------------------------------------------------------------
// Region execution: the core.Options.RegionExec seam.

// regionTask is one board entry's work: the region plus everything a node
// (local or remote) needs to execute it.
type regionTask struct {
	work core.RegionWork
	tc   *tech.Tech
	tech string       // wire name of tc
	opt  core.Options // scheduling hooks stripped; Faults applied node-locally
}

// execFor returns the RegionExec hook for one job: every region is offered
// to the board, where local executors, peer dispatchers and stealing peers
// drain it concurrently.
func (c *clusterNode) execFor(techName string, tc *tech.Tech, opt core.Options) core.RegionExecFunc {
	// Keep the knob fields bit-identical to the local path; strip only the
	// node-local hooks. Faults are reapplied by whichever node executes,
	// from its own registry, so chaos specs fire where the work runs.
	opt.Progress = nil
	opt.RegionExec = nil
	opt.Faults = nil
	return func(ctx context.Context, w core.RegionWork) (*core.RegionOut, error) {
		return c.board.run(ctx, regionTask{work: w, tc: tc, tech: techName, opt: opt})
	}
}

// runTask executes a board task on this node, injecting this node's own
// fault registry so chaos specs fire wherever the work actually runs.
func (c *clusterNode) runTask(ctx context.Context, t regionTask, workers int) (*core.RegionOut, error) {
	opt := t.opt
	opt.Faults = c.queue.cfg.Faults
	return core.RunRegion(ctx, t.work, t.tc, opt, workers)
}

// localExecutor drains board entries on this node.
func (c *clusterNode) localExecutor(workers int) {
	defer c.wg.Done()
	for {
		e := c.board.next()
		if e == nil {
			return
		}
		if e.ctx.Err() != nil {
			c.board.deliver(e, nil, e.ctx.Err())
			continue
		}
		out, err := c.runTask(e.ctx, e.task, workers)
		if c.board.deliver(e, out, err) && err == nil {
			c.localRegions.Add(1)
		}
	}
}

// dispatcher pushes board entries to one peer over POST /internal/region.
// A failed dispatch re-offers the entry (twice burned → pinned local) and
// feeds the peer's breaker; the job never fails because a peer did.
func (c *clusterNode) dispatcher(peer string) {
	defer c.wg.Done()
	for {
		if !c.peers.Usable(peer) {
			select {
			case <-c.stop:
				return
			case <-time.After(c.cfg.ProbeInterval):
			}
			continue
		}
		e := c.board.nextRemote()
		if e == nil {
			return // board closed
		}
		if e.ctx.Err() != nil {
			c.board.deliver(e, nil, e.ctx.Err())
			continue
		}
		var resp regionRPCResp
		err := c.postGob(e.ctx, peer, "/internal/region",
			regionRPCReq{Work: e.task.work, Tech: e.task.tech, Opt: e.task.opt}, &resp)
		if err == nil && resp.Out == nil {
			err = fmt.Errorf("serve: peer %s returned an empty region result", peer)
		}
		if err != nil {
			c.peers.Failure(peer)
			c.dispatchErrs.Add(1)
			c.log.Debug("region dispatch failed; re-offering", "peer", peer,
				"region", e.task.work.ID, "error", err)
			c.board.reoffer(e)
			continue
		}
		c.peers.Success(peer)
		if c.board.deliver(e, resp.Out, nil) {
			c.dispatched.Add(1)
		}
	}
}

// stealer polls peers for queued regions whenever the local board is idle,
// executes what it gets locally and posts the result back under the lease
// token. Steal errors are reported back too, so the victim re-offers
// instead of waiting out the lease.
func (c *clusterNode) stealer(workers int) {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case <-time.After(c.cfg.StealInterval):
		}
		if c.board.pendingLen() > 0 {
			continue // loaded ourselves; stealing would only shuffle work
		}
		for _, peer := range c.peers.IDs() {
			if !c.peers.Usable(peer) {
				continue
			}
			if c.stealOnce(peer, workers) {
				break // got work; re-check our own board first
			}
		}
	}
}

// stealOnce tries to steal and complete one region from a peer; reports
// whether work was obtained.
func (c *clusterNode) stealOnce(peer string, workers int) bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	var sr stealResp
	err := c.postGob(ctx, peer, "/internal/steal", stealReq{Node: c.self.ID}, &sr)
	cancel()
	if err != nil {
		c.peers.Failure(peer)
		return false
	}
	c.peers.Success(peer)
	if !sr.Found {
		return false
	}
	tc, terr := techByName(sr.Tech)
	execCtx, cancelExec := context.WithTimeout(context.Background(), c.cfg.LeaseTimeout)
	var out *core.RegionOut
	if terr != nil {
		err = terr
	} else {
		out, err = c.runTask(execCtx, regionTask{work: sr.Work, tc: tc, tech: sr.Tech, opt: sr.Opt}, workers)
	}
	cancelExec()
	done := stealDoneReq{Token: sr.Token, Out: out}
	if err != nil {
		done.Err, done.Out = err.Error(), nil
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	var dr stealDoneResp
	if derr := c.postGob(ctx2, peer, "/internal/steal/done", done, &dr); derr != nil {
		c.peers.Failure(peer)
		return true // victim's lease reaper re-offers; we did obtain work
	}
	if err == nil && dr.Applied {
		c.stolen.Add(1)
	}
	return true
}

// reaper re-offers board entries whose steal lease expired.
func (c *clusterNode) reaper() {
	defer c.wg.Done()
	interval := c.cfg.LeaseTimeout / 4
	if interval > time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			c.board.reapLeases(now)
		}
	}
}

// ---------------------------------------------------------------------------
// Cluster wire format: gob over HTTP between peers.

type regionRPCReq struct {
	Work core.RegionWork
	Tech string
	Opt  core.Options
}

type regionRPCResp struct {
	Out *core.RegionOut
}

type stealReq struct {
	Node string
}

type stealResp struct {
	Found bool
	Token string
	Work  core.RegionWork
	Tech  string
	Opt   core.Options
}

type stealDoneReq struct {
	Token string
	Err   string
	Out   *core.RegionOut
}

type stealDoneResp struct {
	Applied bool
}

// techByName resolves a wire tech name the same way request validation
// does, so a region executes against the identical technology everywhere.
func techByName(name string) (*tech.Tech, error) {
	switch name {
	case "", "asap7":
		return tech.ASAP7(), nil
	}
	return nil, fmt.Errorf("serve: unknown tech %q", name)
}

// postGob gob-POSTs to a peer's internal endpoint and decodes the reply.
func (c *clusterNode) postGob(ctx context.Context, peer, path string, in, out any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		return fmt.Errorf("serve: cluster encode: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.peers.URL(peer)+path, &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if c.cfg.Secret != "" {
		req.Header.Set(headerSecret, c.cfg.Secret)
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("serve: peer %s %s: status %d: %s", peer, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := gob.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("serve: cluster decode: %w", err)
	}
	return nil
}

// authOK gates /internal/* on the shared cluster secret (constant-time).
func (c *clusterNode) authOK(r *http.Request) bool {
	if c.cfg.Secret == "" {
		return true
	}
	return subtle.ConstantTimeCompare([]byte(r.Header.Get(headerSecret)), []byte(c.cfg.Secret)) == 1
}

// handleRegion is POST /internal/region: execute one region for a peer and
// return its tree + summary. The region runs under this node's own fault
// registry and worker budget; an execution error is a 500 the dispatcher
// turns into a local re-offer.
func (c *clusterNode) handleRegion(w http.ResponseWriter, r *http.Request) {
	if !c.authOK(r) {
		writeErr(w, http.StatusForbidden, fmt.Errorf("serve: bad cluster secret"))
		return
	}
	var req regionRPCReq
	if err := gob.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: region decode: %w", err))
		return
	}
	tc, err := techByName(req.Tech)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	workers := runtime.GOMAXPROCS(0) / 2
	if workers < 1 {
		workers = 1
	}
	out, err := c.runTask(r.Context(), regionTask{work: req.Work, tc: tc, tech: req.Tech, opt: req.Opt}, workers)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	c.served.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := gob.NewEncoder(w).Encode(regionRPCResp{Out: out}); err != nil {
		c.log.Debug("region response encode failed", "error", err)
	}
}

// handleSteal is POST /internal/steal: lease one pending region to an idle
// peer. Nothing pending is a normal answer, not an error.
func (c *clusterNode) handleSteal(w http.ResponseWriter, r *http.Request) {
	if !c.authOK(r) {
		writeErr(w, http.StatusForbidden, fmt.Errorf("serve: bad cluster secret"))
		return
	}
	var req stealReq
	if err := gob.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: steal decode: %w", err))
		return
	}
	var resp stealResp
	if e, token := c.board.lease(req.Node); e != nil {
		c.stealsGiven.Add(1)
		resp = stealResp{Found: true, Token: token, Work: e.task.work, Tech: e.task.tech, Opt: e.task.opt}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := gob.NewEncoder(w).Encode(resp); err != nil {
		c.log.Debug("steal response encode failed", "error", err)
	}
}

// handleStealDone is POST /internal/steal/done: apply a stolen region's
// result under its single-use lease token. A stale, reused or unknown
// token is rejected (Applied=false) — the idempotency barrier that makes
// double-execution after a lease reclaim harmless.
func (c *clusterNode) handleStealDone(w http.ResponseWriter, r *http.Request) {
	if !c.authOK(r) {
		writeErr(w, http.StatusForbidden, fmt.Errorf("serve: bad cluster secret"))
		return
	}
	var req stealDoneReq
	if err := gob.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: steal-done decode: %w", err))
		return
	}
	var rerr error
	if req.Err != "" {
		rerr = fmt.Errorf("serve: stolen region failed remotely: %s", req.Err)
	}
	applied := c.board.completeLease(req.Token, req.Out, rerr)
	if !applied {
		c.stealRejects.Add(1)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := gob.NewEncoder(w).Encode(stealDoneResp{Applied: applied}); err != nil {
		c.log.Debug("steal-done response encode failed", "error", err)
	}
}

// ---------------------------------------------------------------------------
// The region board.

const (
	entryPending = iota
	entryActive  // claimed by a local executor or dispatcher
	entryLeased  // leased to a stealing peer
	entryDone
)

// boardEntry is one offered region riding through the board.
type boardEntry struct {
	task regionTask
	ctx  context.Context

	// attempts counts failed remote tries; past 2 the entry pins local.
	attempts  int
	localOnly bool

	state       int
	token       string
	leaseExpiry time.Time

	out  *core.RegionOut
	err  error
	done chan struct{}
}

// regionBoard is the shared pending-region queue of one node: partitioned
// jobs offer their regions here, and local executors, per-peer dispatchers
// and stealing peers drain it. Completion is single-shot per entry
// (whoever delivers first wins; everything else is a counted no-op), and
// steal leases carry single-use tokens so a reclaimed lease's late result
// can never double-apply.
type regionBoard struct {
	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	pending []*boardEntry
	leases  map[string]*boardEntry
	nextTok int64
	timeout time.Duration
}

func newRegionBoard(leaseTimeout time.Duration) *regionBoard {
	b := &regionBoard{leases: make(map[string]*boardEntry), timeout: leaseTimeout}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *regionBoard) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// run offers one region and blocks until someone delivers its result or
// the job's context ends.
func (b *regionBoard) run(ctx context.Context, task regionTask) (*core.RegionOut, error) {
	e := &boardEntry{task: task, ctx: ctx, done: make(chan struct{})}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	e.state = entryPending
	b.pending = append(b.pending, e)
	b.cond.Broadcast()
	b.mu.Unlock()
	select {
	case <-e.done:
		return e.out, e.err
	case <-ctx.Done():
		if b.deliver(e, nil, ctx.Err()) {
			return nil, ctx.Err()
		}
		<-e.done // delivery raced the cancellation; take the result
		return e.out, e.err
	}
}

func (b *regionBoard) pendingLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// pop removes the first claimable pending entry; remote claimants skip
// local-pinned entries. Caller holds b.mu.
func (b *regionBoard) pop(remote bool) *boardEntry {
	for i, e := range b.pending {
		if e.state != entryPending {
			continue // delivered (cancelled) while pending; GC'd below
		}
		if remote && e.localOnly {
			continue
		}
		b.pending = append(b.pending[:i], b.pending[i+1:]...)
		return e
	}
	// Compact delivered husks so a long-lived board does not accrete them.
	live := b.pending[:0]
	for _, e := range b.pending {
		if e.state == entryPending {
			live = append(live, e)
		}
	}
	b.pending = live
	return nil
}

// next blocks until a pending entry is claimable locally (nil after close).
func (b *regionBoard) next() *boardEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if e := b.pop(false); e != nil {
			e.state = entryActive
			return e
		}
		if b.closed {
			return nil
		}
		b.cond.Wait()
	}
}

// nextRemote is next for dispatchers: skips local-pinned entries.
func (b *regionBoard) nextRemote() *boardEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if e := b.pop(true); e != nil {
			e.state = entryActive
			return e
		}
		if b.closed {
			return nil
		}
		b.cond.Wait()
	}
}

// reoffer returns a failed remote attempt to the pending queue; the second
// failure pins the entry to local execution.
func (b *regionBoard) reoffer(e *boardEntry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e.state == entryDone {
		return
	}
	e.attempts++
	if e.attempts >= 2 {
		e.localOnly = true
	}
	if tok := e.token; tok != "" {
		delete(b.leases, tok)
		e.token = ""
	}
	e.state = entryPending
	b.pending = append(b.pending, e)
	b.cond.Broadcast()
}

// deliver completes an entry exactly once; later deliveries report false
// and change nothing.
func (b *regionBoard) deliver(e *boardEntry, out *core.RegionOut, err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e.state == entryDone {
		return false
	}
	if e.token != "" {
		delete(b.leases, e.token)
		e.token = ""
	}
	e.state = entryDone
	e.out, e.err = out, err
	close(e.done)
	return true
}

// lease hands one pending entry to a stealing peer under a fresh
// single-use token.
func (b *regionBoard) lease(node string) (*boardEntry, string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.pop(true)
	if e == nil {
		return nil, ""
	}
	b.nextTok++
	tok := fmt.Sprintf("lease-%s-%d", node, b.nextTok)
	e.state = entryLeased
	e.token = tok
	e.leaseExpiry = time.Now().Add(b.timeout)
	b.leases[tok] = e
	return e, tok
}

// completeLease applies a stolen region's outcome if — and only if — the
// token still names a live lease. A remote error re-offers the entry
// locally instead of failing the job. Reports whether the token was
// accepted (a reused or reclaimed token is not).
func (b *regionBoard) completeLease(token string, out *core.RegionOut, rerr error) bool {
	b.mu.Lock()
	e, ok := b.leases[token]
	if !ok || e.token != token || e.state != entryLeased {
		b.mu.Unlock()
		return false
	}
	delete(b.leases, token)
	e.token = ""
	if rerr != nil {
		// Accepted, but the work failed remotely: back to the local queue.
		e.attempts++
		if e.attempts >= 2 {
			e.localOnly = true
		}
		e.state = entryPending
		b.pending = append(b.pending, e)
		b.cond.Broadcast()
		b.mu.Unlock()
		return true
	}
	e.state = entryDone
	e.out, e.err = out, nil
	close(e.done)
	b.mu.Unlock()
	return true
}

// reapLeases re-offers entries whose steal lease expired (stealer died or
// hung); the stale token is invalidated so the thief's late completion is
// rejected.
func (b *regionBoard) reapLeases(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for tok, e := range b.leases {
		if now.Before(e.leaseExpiry) {
			continue
		}
		delete(b.leases, tok)
		e.token = ""
		e.attempts++
		if e.attempts >= 2 {
			e.localOnly = true
		}
		e.state = entryPending
		b.pending = append(b.pending, e)
	}
	b.cond.Broadcast()
}
