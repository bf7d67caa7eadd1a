package serve

// Cluster mode (DESIGN.md §9): a peer-aware queue where cache keys route
// over a consistent-hash ring (forward-on-miss, so any node answers any
// request), partitioned jobs dispatch regions to peers over POST
// /internal/region, and a static-membership liveness layer (periodic
// /readyz probes + per-peer circuit breakers) takes dead, hung or
// misbehaving peers out of rotation, so every remote path degrades to
// local execution. The determinism contract extends across every remote
// seam: a region executes with core.RunRegion on whichever node runs it,
// results travel as exact gob round-trips, and the engine consumes them in
// region-ID order — so a clustered run's Metrics are bit-identical to a
// single-node run of the same request.

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/gob"
	"encoding/json"
	"errors"
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
	// ProbeInterval / ProbeTimeout drive the /readyz liveness prober
	// (defaults 2s / 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailThreshold consecutive call failures open a peer's circuit
	// breaker for Cooldown (defaults 3 / 5s).
	FailThreshold int
	Cooldown      time.Duration
	// RegionTimeout bounds one region dispatch to a peer, request to
	// validated reply, per regionTimeoutSinks sinks of the region; a
	// dispatch that outlives its bound counts against the peer and the
	// region is re-offered (default 60s).
	RegionTimeout time.Duration
	// LocalExecutors sets the local region-executor goroutines draining
	// this node's board (0 = one per CPU). Negative runs none — the board
	// drains only through peer dispatch — which tests and benchmarks use
	// to force remote execution deterministically.
	LocalExecutors int
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.RegionTimeout <= 0 {
		c.RegionTimeout = 60 * time.Second
	}
	return c
}

// regionTimeoutSinks is the region size one RegionTimeout covers. A larger
// region gets one RegionTimeout per started regionTimeoutSinks, the way its
// body and reply bounds grow with its sink count, so a large region on a
// healthy peer does not trip the bound while a hung peer still does.
const regionTimeoutSinks = 50_000

// regionTimeout is the dispatch bound of a region with sinks sinks.
func (c ClusterConfig) regionTimeout(sinks int) time.Duration {
	return c.RegionTimeout * time.Duration(max(1, (sinks+regionTimeoutSinks-1)/regionTimeoutSinks))
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
	// results); RegionDispatchErrors counts dispatch attempts charged to a
	// peer (transport error, bad or oversize reply, an expired bound), each
	// re-offered unless its job has ended. RegionsServed counts regions
	// this node executed for peers via POST /internal/region.
	RegionsDispatched    int64 `json:"regions_dispatched"`
	RegionDispatchErrors int64 `json:"region_dispatch_errors,omitempty"`
	RegionsServed        int64 `json:"regions_served"`
	// RegionsLocal counts board regions executed by the local executors.
	RegionsLocal int64 `json:"regions_local"`
	// BreakerOpens totals per-peer circuit-breaker openings.
	BreakerOpens int64 `json:"breaker_opens,omitempty"`
}

// clusterNode is a queue's cluster runtime: ring, peer liveness, the
// region board and its executors and dispatchers, and the counters
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
	localRegions    atomic.Int64
}

// newClusterNode validates the config, builds the ring over the full
// member list and starts the liveness prober, the board executors and the
// per-peer dispatchers.
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
		ring: clusterd.NewRing(ids, clusterd.DefaultVNodes),
		peers: clusterd.NewPeerSet(others, clusterd.PeerSetOptions{
			ProbeInterval: cfg.ProbeInterval,
			ProbeTimeout:  cfg.ProbeTimeout,
			FailThreshold: cfg.FailThreshold,
			Cooldown:      cfg.Cooldown,
			Client:        httpc,
		}),
		board: newRegionBoard(),
		queue: q,
		httpc: httpc,
		log:   q.log.With("node", cfg.NodeID),
		stop:  make(chan struct{}),
	}
	c.peers.Start()
	// Local board executors: one per core by default, mirroring the
	// pre-cluster outer fan-out cap.
	execs := cfg.LocalExecutors
	if execs == 0 {
		execs = runtime.GOMAXPROCS(0)
	}
	for i := 0; i < execs; i++ {
		c.wg.Add(1)
		go c.localExecutor()
	}
	for _, id := range c.peers.IDs() {
		c.wg.Add(1)
		go c.dispatcher(id)
	}
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
// to the board, where local executors and peer dispatchers drain it
// concurrently.
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
// fault registry so chaos specs fire wherever the work actually runs. Each
// region gets a modest inner worker budget; the engine is deterministic in
// it, so it moves wall-clock only.
func (c *clusterNode) runTask(ctx context.Context, t regionTask) (*core.RegionOut, error) {
	opt := t.opt
	opt.Faults = c.queue.cfg.Faults
	return core.RunRegion(ctx, t.work, t.tc, opt, max(1, runtime.GOMAXPROCS(0)/2))
}

// localExecutor drains board entries on this node.
func (c *clusterNode) localExecutor() {
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
		out, err := c.runTask(e.ctx, e.task)
		if c.board.deliver(e, out, err) && err == nil {
			c.localRegions.Add(1)
		}
	}
}

// dispatcher pushes board entries to one peer over POST /internal/region.
// A failed dispatch re-offers the entry (twice burned → pinned local) and
// feeds the peer's breaker, so a job does not fail because a peer did. A
// dispatch cut short because its job was cancelled charges the peer
// nothing; one still in flight when its job's deadline passes does, as a
// peer that never answers otherwise stays in rotation whenever the job
// deadline is shorter than the region's bound.
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
		out, err := c.dispatch(e.ctx, peer, e.task)
		switch {
		case err == nil:
			c.peers.Success(peer)
			if c.board.deliver(e, out, nil) {
				c.dispatched.Add(1)
			}
		case errors.Is(e.ctx.Err(), context.Canceled):
			// The job was cancelled while its region was on the wire:
			// nobody waits for the region, and the peer did nothing wrong.
			c.board.deliver(e, nil, e.ctx.Err())
		default:
			c.peers.Failure(peer)
			c.dispatchErrs.Add(1)
			c.log.Debug("region dispatch failed; re-offering", "peer", peer,
				"region", e.task.work.ID, "error", err)
			c.board.reoffer(e) // a no-op once the job's deadline delivered it
		}
	}
}

// dispatch executes one region on a peer. The call runs under the
// region's RegionTimeout bound, derived from the job's context, and the
// reply is bounded from the region's sink count the way a request body is
// bounded, then validated, so a hung, oversize or malformed reply is an
// error here.
func (c *clusterNode) dispatch(ctx context.Context, peer string, t regionTask) (*core.RegionOut, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(regionRPCReq{Work: t.work, Tech: t.tech, Opt: t.opt}); err != nil {
		return nil, fmt.Errorf("serve: region encode: %w", err)
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.regionTimeout(len(t.work.Sinks)))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.peers.URL(peer)+"/internal/region", &body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if c.cfg.Secret != "" {
		req.Header.Set(headerSecret, c.cfg.Secret)
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("serve: peer %s: status %d: %s", peer, resp.StatusCode, bytes.TrimSpace(msg))
	}
	limit := bodyLimit(len(t.work.Sinks))
	reply := &io.LimitedReader{R: resp.Body, N: limit}
	var rr regionRPCResp
	if err := gob.NewDecoder(reply).Decode(&rr); err != nil {
		if reply.N <= 0 {
			return nil, fmt.Errorf("serve: peer %s: region reply exceeds %d bytes", peer, limit)
		}
		return nil, fmt.Errorf("serve: region decode: %w", err)
	}
	if err := rr.Out.Validate(len(t.work.Sinks)); err != nil {
		return nil, fmt.Errorf("serve: peer %s: %w", peer, err)
	}
	return rr.Out, nil
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

// techByName resolves a wire tech name the same way request validation
// does, so a region executes against the identical technology everywhere.
func techByName(name string) (*tech.Tech, error) {
	switch name {
	case "", "asap7":
		return tech.ASAP7(), nil
	}
	return nil, fmt.Errorf("serve: unknown tech %q", name)
}

// authOK gates /internal/* on the shared cluster secret (constant-time).
func (c *clusterNode) authOK(r *http.Request) bool {
	if c.cfg.Secret == "" {
		return true
	}
	return subtle.ConstantTimeCompare([]byte(r.Header.Get(headerSecret)), []byte(c.cfg.Secret)) == 1
}

// handleRegion is POST /internal/region: execute one region for a peer and
// return its tree + summary. The body is bounded from this node's
// MaxJobSinks before it is decoded, as a submission's is. The region runs
// under this node's own fault registry and worker budget; an execution
// error is a 500 the dispatcher turns into a re-offer.
func (c *clusterNode) handleRegion(w http.ResponseWriter, r *http.Request) {
	if !c.authOK(r) {
		writeErr(w, http.StatusForbidden, fmt.Errorf("serve: bad cluster secret"))
		return
	}
	m := c.queue.cfg.MaxJobSinks
	boundBody(w, r, m)
	var req regionRPCReq
	if err := gob.NewDecoder(r.Body).Decode(&req); err != nil {
		if big := bodyTooLarge(err, m); big != nil {
			writeErr(w, http.StatusRequestEntityTooLarge, big)
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: region decode: %w", err))
		return
	}
	tc, err := techByName(req.Tech)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	out, err := c.runTask(r.Context(), regionTask{work: req.Work, tc: tc, tech: req.Tech, opt: req.Opt})
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

// ---------------------------------------------------------------------------
// The region board.

const (
	entryPending = iota
	entryActive  // claimed by a local executor or dispatcher
	entryDone
)

// boardEntry is one offered region riding through the board.
type boardEntry struct {
	task regionTask
	ctx  context.Context

	// attempts counts failed remote tries; past 2 the entry pins local.
	attempts  int
	localOnly bool

	state int

	out  *core.RegionOut
	err  error
	done chan struct{}
}

// regionBoard is the shared pending-region queue of one node: partitioned
// jobs offer their regions here, and local executors and per-peer
// dispatchers drain it. Completion is single-shot per entry: whoever
// delivers first wins, and every later delivery is a no-op.
type regionBoard struct {
	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	pending []*boardEntry
}

func newRegionBoard() *regionBoard {
	b := &regionBoard{}
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
	e.state = entryDone
	e.out, e.err = out, err
	close(e.done)
	return true
}
