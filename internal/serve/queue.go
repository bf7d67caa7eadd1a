package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dscts/internal/core"
	"dscts/internal/corner"
	"dscts/internal/dse"
	"dscts/internal/eval"
	"dscts/internal/fault"
	"dscts/internal/obs"
	"dscts/internal/par"
	"dscts/internal/store"
)

// Job kinds.
const (
	KindSynthesize = "synthesize"
	KindDSE        = "dse"
	KindECO        = "eco"
)

// JobState is the lifecycle state of a queued job.
type JobState string

// Job lifecycle: queued → running → done | failed | cancelled. Cache hits
// are born done.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Sentinel errors of Submit; the HTTP layer maps them to status codes.
var (
	// ErrQueueFull is returned when admission control rejects a job.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrBadRequest wraps request validation failures.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrNotFound is returned for unknown job IDs.
	ErrNotFound = errors.New("serve: no such job")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("serve: queue closed")
	// ErrTooLarge is returned when a job's estimated size exceeds the
	// queue's sink budget; the HTTP layer maps it to 413 with the size
	// estimate in the body. Always wrapped in a *SizeError.
	ErrTooLarge = errors.New("serve: job too large")
)

// SizeError carries the admission-control size estimate of a rejected job.
type SizeError struct {
	// EstimatedSinks is the job's estimated sink count (exact for named
	// benchmarks, XL placements and explicit sink lists).
	EstimatedSinks int
	// MaxSinks is the queue's configured budget.
	MaxSinks int
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("serve: job too large: estimated %d sinks exceeds the %d-sink budget", e.EstimatedSinks, e.MaxSinks)
}

// Unwrap makes errors.Is(err, ErrTooLarge) work.
func (e *SizeError) Unwrap() error { return ErrTooLarge }

// DPStats summarizes the insertion DP of a synthesis result.
type DPStats struct {
	Nodes     int `json:"nodes"`
	Solutions int `json:"solutions"`
}

// RefineStats summarizes the skew-refinement outcome.
type RefineStats struct {
	Triggered    bool    `json:"triggered"`
	Inserted     int     `json:"inserted"`
	Attempted    int     `json:"attempted"`
	SkewBeforePS float64 `json:"skew_before_ps"`
	SkewAfterPS  float64 `json:"skew_after_ps"`
}

// Result is the JSON result payload of a finished job. Synthesize jobs
// carry Metrics/DP/Refine; DSE jobs carry Points. Phases and TotalMS are
// from the run that produced the result (a cache hit reports the original
// run's).
type Result struct {
	Kind    string        `json:"kind"`
	Design  string        `json:"design"`
	Sinks   int           `json:"sinks"`
	Metrics *eval.Metrics `json:"metrics,omitempty"`
	DP      *DPStats      `json:"dp,omitempty"`
	Refine  *RefineStats  `json:"refine,omitempty"`
	Points  []dse.Point   `json:"points,omitempty"`
	// Corners is the multi-corner sign-off report: per-corner Metrics in
	// request corner order plus the cross-corner summary. Present only
	// when a synthesize request named corners.
	Corners *corner.Report `json:"corners,omitempty"`
	// CornerPoints replaces Points for DSE jobs that named corners: one
	// entry per threshold, each carrying one point per corner in request
	// corner order.
	CornerPoints []dse.CornerPoint `json:"corner_points,omitempty"`
	// ECO summarizes an incremental job's dirty set (eco jobs only).
	ECO *core.ECOStats `json:"eco,omitempty"`
	// BaseCacheHit reports whether an eco job found its base outcome in
	// the base cache (false means the base was synthesized first: its
	// runtime is included in TotalMS and its rows in Phases).
	BaseCacheHit bool    `json:"base_cache_hit,omitempty"`
	TotalMS      float64 `json:"total_ms"`

	// Phases is the engine's timing record of the run (core.Outcome's
	// Phases): span counts, point counts and summed durations per phase, in
	// first-completion order. A cold eco job folds its base run's rows in
	// by phase name; a DSE job has one point-only sweep row.
	Phases []core.PhaseTotal `json:"phases,omitempty"`
	// Version and Revision identify the build that produced the result.
	Version  string `json:"version,omitempty"`
	Revision string `json:"revision,omitempty"`
}

// view returns the response shape of the result: unless asked for, a
// shallow copy whose Metrics (top-level and per-corner) drop the (large)
// per-sink delay maps, or r itself when it carries none, as a cache
// entry's head does. Results are immutable once built.
func (r *Result) view(includeSinkDelays bool) *Result {
	if r == nil || includeSinkDelays || !r.carriesDelays() {
		return r
	}
	return r.withDelays(func(int) map[int]float64 { return nil })
}

// carriesDelays reports whether any of r's Metrics holds a sink-delay map.
func (r *Result) carriesDelays() bool {
	if r.Metrics != nil && r.Metrics.SinkDelays != nil {
		return true
	}
	if r.Corners != nil {
		for _, c := range r.Corners.Results {
			if c.Metrics != nil && c.Metrics.SinkDelays != nil {
				return true
			}
		}
	}
	return false
}

// withDelays returns a shallow copy of r whose Metrics, the top-level one
// and then each corner's (laneMetrics order), carry the sink-delay map
// delays(i) returns for the i-th of them.
func (r *Result) withDelays(delays func(i int) map[int]float64) *Result {
	c := *r
	i := 0
	if r.Metrics != nil {
		m := *r.Metrics
		m.SinkDelays = delays(i)
		i++
		c.Metrics = &m
	}
	if r.Corners != nil {
		rep := *r.Corners
		rep.Results = make([]corner.Result, len(r.Corners.Results))
		for k, res := range r.Corners.Results {
			m := *res.Metrics
			m.SinkDelays = delays(i)
			i++
			res.Metrics = &m
			rep.Results[k] = res
		}
		c.Corners = &rep
	}
	return &c
}

// Event is one NDJSON progress line: the job lifecycle transitions plus the
// flow's per-phase events. The terminal event ("done", "failed" or
// "cancelled") closes the stream; "done" carries the result.
type Event struct {
	Event     string  `json:"event"`
	JobID     string  `json:"job_id"`
	Phase     string  `json:"phase,omitempty"`
	PhaseDone bool    `json:"phase_done,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	Point     int     `json:"point,omitempty"`
	Total     int     `json:"total,omitempty"`
	Error     string  `json:"error,omitempty"`
	Result    *Result `json:"result,omitempty"`
}

// JobInfo is the JSON snapshot of a job (GET /jobs/{id}).
type JobInfo struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"`
	State    JobState  `json:"state"`
	CacheHit bool      `json:"cache_hit"`
	Design   string    `json:"design,omitempty"`
	Sinks    int       `json:"sinks,omitempty"`
	Created  time.Time `json:"created"`
	QueueMS  float64   `json:"queue_ms,omitempty"`
	RunMS    float64   `json:"run_ms,omitempty"`
	Error    string    `json:"error,omitempty"`
	Result   *Result   `json:"result,omitempty"`
	// TimedOut marks a failure caused by the job's wall-clock deadline
	// (Config.JobTimeout or the request's timeout_ms); sync HTTP maps it to
	// 504.
	TimedOut bool `json:"timed_out,omitempty"`
	// Panicked marks a failure caused by a panic inside the job body (the
	// worker recovered; see /stats last_panics); sync HTTP maps it to 500.
	Panicked bool `json:"panicked,omitempty"`
}

// Job is one admitted request moving through the queue.
type Job struct {
	id     string
	kind   string
	key    string
	req    *Request
	design string
	sinks  int
	// tenant and class are the job's QoS coordinates, fixed at admission
	// (request field or X-Tenant header; empty tenant → "default", empty
	// class → the configured default class).
	tenant string
	class  string
	// reqID is the HTTP request ID that admitted the job (empty for direct
	// queue submissions); it threads through the job's log lines so a
	// client-reported ID leads straight to the job.
	reqID string

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// timeout is the job's effective running wall-clock deadline (0 = none),
	// fixed at admission from Config.JobTimeout and the request's timeout_ms.
	timeout time.Duration
	// abandon is closed by the watchdog to release the job's runner while
	// the body is stuck; the body goroutine is joined separately.
	abandon     chan struct{}
	abandonOnce sync.Once

	mu       sync.Mutex
	cond     *sync.Cond
	state    JobState
	cacheHit bool
	created  time.Time
	started  time.Time
	finished time.Time
	result   *Result
	errMsg   string
	log      []Event
	// runCtx is the body's context (job.ctx plus the deadline), set when the
	// job starts running; the watchdog reads it to spot stuck bodies.
	runCtx context.Context
	// stuckSince is watchdog bookkeeping: when the job's cancelled/expired
	// context was first observed still running.
	stuckSince time.Time
	timedOut   bool
	panicked   bool
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel asks the job to stop. A queued job is skipped by the runner; a
// running job's context is cancelled and the flow stops mid-phase. Safe to
// call at any time, from any goroutine, repeatedly.
func (j *Job) Cancel() { j.cancel() }

// Info snapshots the job. The result view, stored by finish, honors the
// request's IncludeSinkDelays.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID: j.id, Kind: j.kind, State: j.state, CacheHit: j.cacheHit,
		Design: j.design, Sinks: j.sinks,
		Created: j.created, Error: j.errMsg,
		Result:   j.result,
		TimedOut: j.timedOut, Panicked: j.panicked,
	}
	if !j.started.IsZero() {
		info.QueueMS = ms(j.started.Sub(j.created))
		if !j.finished.IsZero() {
			info.RunMS = ms(j.finished.Sub(j.started))
		}
	} else if !j.finished.IsZero() { // cache hit or cancelled while queued
		info.QueueMS = ms(j.finished.Sub(j.created))
	}
	return info
}

// Follow replays the job's event log from the beginning and then follows it
// live, invoking fn for each event in order, until the terminal event has
// been delivered (returns nil), fn returns an error (returned as-is), or
// ctx is cancelled (returns ctx.Err()). Multiple followers may run
// concurrently; each sees the full ordered log.
func (j *Job) Follow(ctx context.Context, fn func(Event) error) error {
	// A context cancellation must wake a waiting follower.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	cursor := 0
	for {
		j.mu.Lock()
		for cursor >= len(j.log) && !j.state.terminal() && ctx.Err() == nil {
			j.cond.Wait()
		}
		batch := append([]Event(nil), j.log[cursor:]...)
		cursor += len(batch)
		terminal := j.state.terminal() && cursor == len(j.log)
		j.mu.Unlock()
		for _, ev := range batch {
			if err := fn(ev); err != nil {
				return err
			}
		}
		if terminal {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

func (j *Job) append(ev Event) {
	j.mu.Lock()
	// An abandoned body can emit progress after the watchdog already
	// finished the job; followers have seen the terminal event, so drop it.
	if !j.state.terminal() {
		j.log = append(j.log, ev)
		j.cond.Broadcast()
	}
	j.mu.Unlock()
}

func (j *Job) progress(p core.Progress) {
	j.append(Event{
		Event: "phase", JobID: j.id,
		Phase: string(p.Phase), PhaseDone: p.Done, ElapsedMS: ms(p.Elapsed),
		Point: p.Point, Total: p.Total,
	})
}

func (j *Job) setRunning(runCtx context.Context) {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.runCtx = runCtx
	j.log = append(j.log, Event{Event: "running", JobID: j.id})
	j.cond.Broadcast()
	j.mu.Unlock()
}

// setTimedOut marks the terminal error as deadline-caused (HTTP 504); must
// be called before finish so snapshots taken after Done see it.
func (j *Job) setTimedOut() {
	j.mu.Lock()
	j.timedOut = true
	j.mu.Unlock()
}

// setPanicked marks the terminal error as panic-caused (HTTP 500).
func (j *Job) setPanicked() {
	j.mu.Lock()
	j.panicked = true
	j.mu.Unlock()
}

// finish moves the job to a terminal state exactly once, reporting whether
// THIS call did the transition. It leaves done open: only Queue.settle, the
// one caller, closes it, after counting and retiring the job.
func (j *Job) finish(state JobState, res *Result, err error) bool {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.finished = time.Now()
	// The record keeps only the response view: the cache keeps the delays
	// as lanes, and a retained record must not pin a miss's per-sink delay
	// maps.
	j.result = res.view(j.req.IncludeSinkDelays)
	ev := Event{Event: string(state), JobID: j.id, Result: j.result}
	if err != nil {
		j.errMsg = err.Error()
		ev.Error = j.errMsg
	}
	j.log = append(j.log, ev)
	j.cond.Broadcast()
	j.mu.Unlock()
	j.cancel() // release the context's resources
	return true
}

// Config sizes the service.
type Config struct {
	// MaxQueued bounds the number of admitted-but-not-finished jobs the
	// queue holds beyond the running set; admission control rejects
	// submissions past it with ErrQueueFull. Default 64.
	MaxQueued int
	// MaxRunning is the number of jobs executing concurrently. Default 4.
	MaxRunning int
	// Workers is the total synthesis worker budget shared by the running
	// jobs; each job runs with max(1, Workers/MaxRunning) workers. 0 means
	// one worker per CPU. Budgets never affect results: the engine is
	// deterministic in its worker count.
	Workers int
	// CacheEntries caps the result cache (LRU evicted). Default 128.
	CacheEntries int
	// RetainJobs caps the finished-job records kept for GET /jobs/{id};
	// the oldest are forgotten first. Default 1024.
	RetainJobs int
	// MaxJobSinks is the admission-control size budget: requests whose
	// estimated sink count exceeds it are rejected with ErrTooLarge (HTTP
	// 413) instead of queueing work that will exhaust memory. 0 uses
	// DefaultMaxJobSinks; negative disables the check.
	MaxJobSinks int
	// JobTimeout bounds each job's RUNNING wall-clock (queue wait excluded):
	// past it the job's context is cancelled, the job fails with TimedOut
	// set (HTTP 504 in sync mode) and its worker returns to the pool. A
	// request may shorten — never extend — it per job via timeout_ms. 0
	// disables the service-wide deadline.
	JobTimeout time.Duration
	// WatchdogGrace is how long a job whose context is already cancelled or
	// expired may keep running before the watchdog force-fails it and
	// abandons its worker goroutine (the body is stuck: a hung syscall, an
	// injected hang, a bug). The freed runner picks up the next job
	// immediately; the abandoned goroutine is joined when it eventually
	// returns (Close waits for them). 0 uses DefaultWatchdogGrace.
	WatchdogGrace time.Duration
	// IdempotencyEntries caps the idempotency-key LRU backing retried
	// submissions: while a key is retained, every submission carrying it
	// maps to the original job instead of running again. 0 uses
	// DefaultIdempotencyEntries; negative disables keyed dedup.
	IdempotencyEntries int
	// QoSClasses configures the job queue's priority classes (weighted
	// fair-share dispatch and running-slot budgets; see qosScheduler). The
	// FIRST class is the default for requests that name none. Empty uses
	// DefaultQoSClasses (interactive:3, batch:1).
	QoSClasses []QoSClass
	// TenantQuota caps each tenant's outstanding (queued or running)
	// jobs; past it submissions are rejected with ErrQuota (HTTP 429). 0
	// disables per-tenant quotas.
	TenantQuota int
	// Store is the disk-backed persistence tier: when set, finished
	// results and retained ECO bases are written behind the in-memory
	// caches and reloaded on the next NewQueue (warm start), so a restart
	// serves previously-cached requests as hits. The queue uses the store
	// but does not own it — the caller Opens it first and Closes it after
	// Queue.Close (flushing the write-behind tail). nil disables
	// persistence.
	Store *store.Store
	// Faults is the deterministic fault-injection registry (internal/fault)
	// threaded into the queue, the result cache and every job's
	// core.Options. nil — the production default — is a zero-cost no-op.
	Faults *fault.Registry
	// Metrics is the observability registry GET /metrics renders. Every
	// counter that /stats also reports is registered as a closure over the
	// same atomics, so the two endpoints cannot drift. nil disables
	// instrument registration entirely (zero hot-path cost).
	Metrics *obs.Registry
	// Logger receives the queue's structured log lines (admissions, job
	// terminations, panics, watchdog kills). nil discards them.
	Logger *slog.Logger
	// Cluster enables cluster mode (see cluster.go): consistent-hash
	// request routing across the peer set and remote region dispatch for
	// partitioned jobs. nil — the default — runs the queue single-node.
	// An invalid cluster config (node ID not in the peer list, malformed
	// peers) panics in NewQueue: it is static boot configuration,
	// pre-validated by the flag parser in cmd/dsctsd.
	Cluster *ClusterConfig
}

// DefaultMaxJobSinks bounds admitted job sizes when Config.MaxJobSinks is 0:
// large enough for multi-million-sink partitioned jobs, small enough to
// reject obvious memory bombs.
const DefaultMaxJobSinks = 4_000_000

// xlSoloSinks is the job size above which a job stops sharing the worker
// budget and gets all of it: a mega-scale partitioned synthesis wants every
// core, and the queue's other slots would otherwise sit on per-job slices
// while it dominates the machine anyway. Budgets never affect results.
const xlSoloSinks = 100_000

// ecoBaseEntries caps the base-outcome cache backing POST /eco: full
// retained outcomes (trees included) are orders of magnitude heavier than
// cached Result payloads, so this LRU is kept deliberately small.
const ecoBaseEntries = 8

// DefaultWatchdogGrace is how long a cancelled job may ignore its context
// before its worker is abandoned: long enough that every cooperative
// mid-phase cancellation check fires first, short enough that a stuck job
// cannot monopolize a worker slot for more than a couple of seconds.
const DefaultWatchdogGrace = 2 * time.Second

// DefaultIdempotencyEntries bounds the retained idempotency keys.
const DefaultIdempotencyEntries = 512

// panicRingSize bounds the panic records retained for GET /stats.
const panicRingSize = 8

func (c Config) withDefaults() Config {
	if c.MaxQueued <= 0 {
		c.MaxQueued = 64
	}
	if c.MaxRunning <= 0 {
		c.MaxRunning = 4
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 1024
	}
	if c.MaxJobSinks == 0 {
		c.MaxJobSinks = DefaultMaxJobSinks
	}
	if c.WatchdogGrace <= 0 {
		c.WatchdogGrace = DefaultWatchdogGrace
	}
	if c.IdempotencyEntries == 0 {
		c.IdempotencyEntries = DefaultIdempotencyEntries
	}
	return c
}

// QueueStats is the jobs section of GET /stats.
type QueueStats struct {
	// Submitted counts ADMITTED submissions only: every rejection path
	// returns before it, so submitted == done + failed + cancelled +
	// queued + running at every instant — the accounting identity
	// CheckMetrics enforces. Rejections are tallied separately below.
	Submitted int64 `json:"submitted"`
	// Rejected is the total of the rejection reasons below.
	Rejected int64 `json:"rejected"`
	// RejectedFull / RejectedLarge / RejectedClosed / RejectedQuota break
	// rejections down by cause: bounded queue full (429), over the sink
	// budget (413), queue closed during shutdown (503), tenant admission
	// quota exceeded (429).
	RejectedFull   int64 `json:"rejected_full,omitempty"`
	RejectedLarge  int64 `json:"rejected_large,omitempty"`
	RejectedClosed int64 `json:"rejected_closed,omitempty"`
	RejectedQuota  int64 `json:"rejected_quota,omitempty"`
	Queued         int64 `json:"queued"`
	Running        int64 `json:"running"`
	Done           int64 `json:"done"`
	Failed         int64 `json:"failed"`
	Cancelled      int64 `json:"cancelled"`
	MaxQueued      int   `json:"max_queued"`
	MaxRunning     int   `json:"max_running"`
	WorkerBudget   int   `json:"worker_budget"`
	PerJobWorkers  int   `json:"per_job_workers"`
	MaxJobSinks    int   `json:"max_job_sinks"`
	// Panics counts job bodies that panicked and were recovered (each is
	// also in Failed).
	Panics int64 `json:"panics,omitempty"`
	// Timeouts counts failures caused by the per-job deadline (subset of
	// Failed).
	Timeouts int64 `json:"timeouts,omitempty"`
	// WatchdogKills counts jobs force-finished by the watchdog because the
	// body ignored cancellation past the grace period.
	WatchdogKills int64 `json:"watchdog_kills,omitempty"`
	// AbandonedWorkers is the number of stuck job bodies currently detached
	// from the runner pool and not yet returned — a persistent nonzero
	// value means something is permanently hung.
	AbandonedWorkers int64 `json:"abandoned_workers,omitempty"`
	// Deduped counts submissions answered by an earlier job through their
	// idempotency key.
	Deduped int64 `json:"deduped,omitempty"`
}

// PanicRecord is one recovered job panic retained for GET /stats.
type PanicRecord struct {
	JobID string    `json:"job_id"`
	Value string    `json:"value"`
	Stack string    `json:"stack"`
	Time  time.Time `json:"time"`
}

// Stats is the GET /stats payload.
type Stats struct {
	UptimeMS      float64 `json:"uptime_ms"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Version and Revision identify the running build (GET /version has the
	// full identity).
	Version  string     `json:"version"`
	Revision string     `json:"revision"`
	Jobs     QueueStats `json:"jobs"`
	Cache    CacheStats `json:"cache"`
	// ECOBases is the base-outcome cache behind POST /eco.
	ECOBases CacheStats `json:"eco_bases"`
	// QoS is the per-class and per-tenant scheduling snapshot.
	QoS QoSStats `json:"qos"`
	// Store is the disk persistence tier's snapshot; nil when persistence
	// is disabled.
	Store *store.Stats `json:"store,omitempty"`
	// Faults counts fired injections per "kind@point" when a fault registry
	// is armed (chaos/test builds only).
	Faults map[string]int64 `json:"faults,omitempty"`
	// LastPanics is the ring of most recent recovered job panics, oldest
	// first, stack traces included.
	LastPanics []PanicRecord `json:"last_panics,omitempty"`
	// Cluster is the cluster-mode snapshot (routing, region dispatch,
	// peer liveness); nil when cluster mode is off.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// Queue runs jobs on a fixed pool of runners with bounded admission and a
// shared result cache.
type Queue struct {
	cfg   Config
	cache *cache
	// bases retains recent synthesis outcomes (with their ECO state) so
	// POST /eco can splice against them.
	bases  *lru[*core.Outcome]
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// bodyWG tracks abandoned job bodies (stuck goroutines the watchdog
	// detached from the runner pool); Close joins them after the runners.
	bodyWG sync.WaitGroup
	// wdStop stops the watchdog; it outlives the runners so a stuck body
	// can still be reaped during shutdown.
	wdStop    chan struct{}
	wdWG      sync.WaitGroup
	closeOnce sync.Once

	// sched is the pending set: class-weighted fair-share dispatch with
	// per-tenant round-robin and admission quotas (see qos.go).
	sched *qosScheduler
	// tenants holds the bounded per-tenant counter table for /stats.
	tenants *tenantTable

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job
	finished []string      // retention ring of finished job IDs, oldest first
	panics   []PanicRecord // ring of recovered panics, oldest first

	// baseInflight coalesces concurrent base synthesis for /eco: one job
	// per base key does the work, the rest wait on its channel and then
	// take the cached outcome.
	baseMu       sync.Mutex
	baseInflight map[string]chan struct{}

	// idemMu serializes idempotency-key lookup-and-create so concurrent
	// retries with the same key coalesce onto one job; idem maps key→jobID
	// (nil when keyed dedup is disabled).
	idemMu sync.Mutex
	idem   *lru[string]

	nextID    atomic.Int64
	submitted atomic.Int64
	// Rejections split by cause; /stats reports the sum plus the breakdown
	// and /metrics labels dscts_jobs_rejected_total by reason.
	rejectedFull   atomic.Int64
	rejectedLarge  atomic.Int64
	rejectedClosed atomic.Int64
	rejectedQuota  atomic.Int64
	doneCt         atomic.Int64
	failedCt       atomic.Int64
	cancelCt       atomic.Int64
	panicCt        atomic.Int64
	timeoutCt      atomic.Int64
	watchdogCt     atomic.Int64
	abandonCt      atomic.Int64 // gauge: bodies currently detached
	dedupCt        atomic.Int64

	// metrics is the instrument set over these atomics (nil when
	// Config.Metrics is nil); log is never nil (discard by default).
	metrics *metrics
	log     *slog.Logger

	// cluster is the cluster-mode runtime (ring, peer liveness, region
	// board); nil when Config.Cluster is nil.
	cluster *clusterNode

	start time.Time
}

// NewQueue starts the runner pool. With Config.Store set it warm-starts
// first: persisted results and ECO bases are verified and loaded into the
// in-memory caches before the first submission can arrive.
func NewQueue(cfg Config) *Queue {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		cfg: cfg, cache: newCache(cfg.CacheEntries),
		ctx: ctx, cancel: cancel,
		bases:        newLRU[*core.Outcome](ecoBaseEntries, ecoBaseEntries),
		sched:        newQoSScheduler(cfg.QoSClasses, cfg.MaxQueued, cfg.MaxRunning, cfg.TenantQuota),
		tenants:      newTenantTable(),
		jobs:         make(map[string]*Job),
		baseInflight: make(map[string]chan struct{}),
		wdStop:       make(chan struct{}),
		start:        time.Now(),
	}
	if cfg.IdempotencyEntries > 0 {
		q.idem = newLRU[string](cfg.IdempotencyEntries, DefaultIdempotencyEntries)
	}
	q.log = cfg.Logger
	if q.log == nil {
		q.log = slog.New(slog.DiscardHandler)
	}
	q.warmStart()
	if cfg.Cluster != nil {
		cn, err := newClusterNode(*cfg.Cluster, q)
		if err != nil {
			panic(fmt.Sprintf("serve: invalid cluster config: %v", err))
		}
		q.cluster = cn
	}
	q.metrics = newMetrics(cfg.Metrics, q)
	q.wg.Add(cfg.MaxRunning)
	for i := 0; i < cfg.MaxRunning; i++ {
		go q.runner()
	}
	q.wdWG.Add(1)
	go q.watchdog()
	return q
}

// watchdog periodically sweeps the running jobs for bodies that ignored
// cancellation (or their deadline) past the grace period, force-finishes
// them and frees their runners. It runs until Close has joined the runner
// pool, so shutdown cannot hang on a stuck body either.
func (q *Queue) watchdog() {
	defer q.wdWG.Done()
	interval := q.cfg.WatchdogGrace / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 250*time.Millisecond {
		interval = 250 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-q.wdStop:
			return
		case now := <-t.C:
			q.sweepStuck(now)
		}
	}
}

// sweepStuck force-fails every running job whose context has been done for
// at least the grace period: the body is stuck, so the job is finished on
// its behalf (timeout or cancellation semantics, matching what the body
// would have reported) and its runner released via the abandon channel.
func (q *Queue) sweepStuck(now time.Time) {
	q.mu.Lock()
	running := make([]*Job, 0, q.cfg.MaxRunning)
	for _, j := range q.jobs {
		j.mu.Lock()
		if j.state == StateRunning {
			running = append(running, j)
		}
		j.mu.Unlock()
	}
	q.mu.Unlock()
	for _, j := range running {
		j.mu.Lock()
		if j.state != StateRunning || j.runCtx == nil || j.runCtx.Err() == nil {
			j.stuckSince = time.Time{}
			j.mu.Unlock()
			continue
		}
		if j.stuckSince.IsZero() {
			j.stuckSince = now
			j.mu.Unlock()
			continue
		}
		stuck := now.Sub(j.stuckSince) >= q.cfg.WatchdogGrace
		timedOut := errors.Is(j.runCtx.Err(), context.DeadlineExceeded) && j.ctx.Err() == nil
		j.mu.Unlock()
		if !stuck {
			continue
		}
		state, err := StateCancelled, fmt.Errorf(
			"serve: watchdog: job ignored cancellation for %v; worker abandoned", q.cfg.WatchdogGrace)
		if timedOut {
			state = StateFailed
			err = fmt.Errorf("serve: watchdog: job still running %v past its %v deadline; worker abandoned",
				q.cfg.WatchdogGrace, j.timeout)
			j.setTimedOut()
		}
		counters := []*atomic.Int64{&q.watchdogCt, &q.cancelCt}
		if timedOut {
			counters = []*atomic.Int64{&q.watchdogCt, &q.failedCt, &q.timeoutCt}
		}
		if q.settle(j, state, nil, err, counters...) {
			q.log.Warn("watchdog abandoned stuck job",
				"job", j.id, "kind", j.kind, "timed_out", timedOut,
				"grace", q.cfg.WatchdogGrace, "request_id", j.reqID)
		}
		j.abandonOnce.Do(func() { close(j.abandon) })
	}
}

// perJobWorkers is the worker budget handed to each running job.
func (q *Queue) perJobWorkers() int {
	w := par.N(q.cfg.Workers) / q.cfg.MaxRunning
	if w < 1 {
		w = 1
	}
	return w
}

// workersFor sizes a job's worker budget by its estimated sink count:
// ordinary jobs share the budget evenly, mega-scale jobs (>= xlSoloSinks)
// get all of it. The engine is deterministic in the worker count, so sizing
// affects wall-clock only, never results.
func (q *Queue) workersFor(sinks int) int {
	if sinks >= xlSoloSinks {
		return par.N(q.cfg.Workers)
	}
	return q.perJobWorkers()
}

// Submit validates, content-addresses and admits a request. An identical
// request already served is answered from the cache with a job born done
// (CacheHit set); otherwise the job enters the bounded queue or is rejected
// with ErrQueueFull. Validation failures wrap ErrBadRequest. The benchmark
// placement itself is materialized at execution, not here, so cache hits
// and rejections stay cheap.
//
// A request carrying an IdempotencyKey is deduplicated first: while the key
// is retained, resubmissions (client retries of a POST whose response was
// lost) return the ORIGINAL job — whatever state it is in — instead of
// running the work again. Lookup and insert hold one lock, so concurrent
// retries of the same key coalesce onto a single job.
func (q *Queue) Submit(req *Request, kind string) (*Job, error) {
	key := req.IdempotencyKey
	if key == "" || q.idem == nil {
		return q.submitNew(req, kind)
	}
	q.idemMu.Lock()
	defer q.idemMu.Unlock()
	if id, ok := q.idem.Get(key); ok {
		q.mu.Lock()
		j := q.jobs[id]
		q.mu.Unlock()
		if j != nil {
			q.dedupCt.Add(1)
			return j, nil
		}
		// The job fell out of the retention ring; run it afresh below.
	}
	job, err := q.submitNew(req, kind)
	if err == nil {
		q.idem.Put(key, job.id)
	}
	return job, err
}

func (q *Queue) submitNew(req *Request, kind string) (*Job, error) {
	if kind != KindSynthesize && kind != KindDSE && kind != KindECO {
		return nil, fmt.Errorf("%w: unknown job kind %q", ErrBadRequest, kind)
	}
	design, sinks, err := req.validate(kind)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrBadRequest, err)
	}
	cls, ok := q.sched.lookup(req.Class)
	if !ok {
		return nil, fmt.Errorf("%w: unknown qos class %q", ErrBadRequest, req.Class)
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	// NOTE the accounting contract: EVERY rejection path (too-large here,
	// closed/full/quota in admit) returns before q.submitted is counted —
	// a rejection is not a submission, uniformly across reasons.
	if q.cfg.MaxJobSinks > 0 && sinks > q.cfg.MaxJobSinks {
		q.rejectedLarge.Add(1)
		q.log.Debug("job rejected: too large",
			"kind", kind, "design", design, "sinks", sinks,
			"max_sinks", q.cfg.MaxJobSinks, "request_id", req.reqID)
		return nil, &SizeError{EstimatedSinks: sinks, MaxSinks: q.cfg.MaxJobSinks}
	}
	ctx, cancel := context.WithCancel(q.ctx)
	job := &Job{
		id:   fmt.Sprintf("job-%06d", q.nextID.Add(1)),
		kind: kind, key: req.Key(kind), req: req,
		design: design, sinks: sinks,
		tenant: tenant, class: cls.name, reqID: req.reqID,
		ctx: ctx, cancel: cancel,
		done: make(chan struct{}), abandon: make(chan struct{}),
		state: StateQueued, created: time.Now(),
		timeout: effectiveTimeout(q.cfg.JobTimeout, req.TimeoutMS),
	}
	job.cond = sync.NewCond(&job.mu)
	job.append(Event{Event: "queued", JobID: job.id})

	// Scripted cache corruption fires here, before the lookup, so the
	// integrity check below is what must catch it.
	if f := q.cfg.Faults.Fire(fault.PointServeCache); f != nil && f.Kind == fault.Corrupt {
		q.cache.Corrupt(job.key)
	}
	if e, ok := q.cache.Get(job.key); ok {
		job.cacheHit = true
		if err := q.admit(job, false); err != nil {
			return nil, err
		}
		q.settle(job, StateDone, e.result(req.IncludeSinkDelays), nil, &q.doneCt)
		q.log.Debug("job served from cache",
			"job", job.id, "kind", kind, "design", design, "sinks", sinks,
			"request_id", job.reqID)
		return job, nil
	}
	if err := q.admit(job, true); err != nil {
		return nil, err
	}
	q.log.Debug("job admitted",
		"job", job.id, "kind", kind, "design", design, "sinks", sinks,
		"request_id", job.reqID)
	return job, nil
}

// effectiveTimeout combines the service deadline with the request's
// timeout_ms: the request can only shorten it, and never below a 1ms
// floor. Without the floor a sub-microsecond timeout_ms truncates to
// duration 0, which context.WithTimeout never gets to see — run() treats 0
// as "no deadline", so a tiny request value would DISABLE the service-wide
// JobTimeout instead of shortening it.
func effectiveTimeout(svc time.Duration, reqMS float64) time.Duration {
	d := svc
	if reqMS > 0 {
		r := time.Duration(reqMS * float64(time.Millisecond))
		if r < time.Millisecond {
			r = time.Millisecond
		}
		if d == 0 || r < d {
			d = r
		}
	}
	return d
}

// admit registers the job — and, when enqueue is set, places it on the
// QoS scheduler — atomically with respect to Close, so a job is either
// rejected (ErrClosed/ErrQueueFull/ErrQuota) or guaranteed to reach a
// terminal state: anything admitted before Close is drained by it. The
// submitted counter increments here, after every rejection check, so
// submitted counts exactly the jobs that will reach a terminal state.
func (q *Queue) admit(job *Job, enqueue bool) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.rejectedClosed.Add(1)
		job.cancel()
		return ErrClosed
	}
	if enqueue {
		if err := q.sched.push(job); err != nil {
			q.mu.Unlock()
			job.cancel()
			switch {
			case errors.Is(err, ErrQuota):
				q.rejectedQuota.Add(1)
				q.tenants.quotaRejected(job.tenant)
				q.log.Debug("job rejected: tenant quota",
					"kind", job.kind, "design", job.design, "tenant", job.tenant,
					"class", job.class, "request_id", job.reqID)
				return fmt.Errorf("%w: tenant %q already has %d jobs outstanding",
					ErrQuota, job.tenant, q.cfg.TenantQuota)
			case errors.Is(err, ErrClosed):
				q.rejectedClosed.Add(1)
				return ErrClosed
			default:
				q.rejectedFull.Add(1)
				q.log.Debug("job rejected: queue full",
					"kind", job.kind, "design", job.design, "request_id", job.reqID)
				return ErrQueueFull
			}
		}
	}
	q.jobs[job.id] = job
	q.mu.Unlock()
	q.submitted.Add(1)
	q.tenants.submitted(job.tenant)
	return nil
}

// Job looks up a job by ID.
func (q *Queue) Job(id string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Cancel cancels a job by ID.
func (q *Queue) Cancel(id string) (*Job, error) {
	j, err := q.Job(id)
	if err != nil {
		return nil, err
	}
	j.Cancel()
	return j, nil
}

// Stats snapshots the queue and cache counters.
func (q *Queue) Stats() Stats {
	var queued, running int64
	q.mu.Lock()
	for _, j := range q.jobs {
		j.mu.Lock()
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
		j.mu.Unlock()
	}
	lastPanics := append([]PanicRecord(nil), q.panics...)
	q.mu.Unlock()
	rejFull, rejLarge, rejClosed, rejQuota :=
		q.rejectedFull.Load(), q.rejectedLarge.Load(), q.rejectedClosed.Load(), q.rejectedQuota.Load()
	build := obs.Build()
	uptime := time.Since(q.start)
	return Stats{
		UptimeMS: ms(uptime), UptimeSeconds: uptime.Seconds(),
		Version: build.Version, Revision: build.Revision,
		ECOBases: q.bases.Stats(),
		QoS: QoSStats{
			DefaultClass: q.sched.defaultClass(),
			TenantQuota:  q.cfg.TenantQuota,
			Classes:      q.sched.snapshot(),
			Tenants:      q.tenants.snapshot(q.sched),
		},
		Store: q.storeStats(),
		Jobs: QueueStats{
			Submitted:    q.submitted.Load(),
			Rejected:     rejFull + rejLarge + rejClosed + rejQuota,
			RejectedFull: rejFull, RejectedLarge: rejLarge, RejectedClosed: rejClosed,
			RejectedQuota: rejQuota,
			Queued:        queued, Running: running,
			Done: q.doneCt.Load(), Failed: q.failedCt.Load(), Cancelled: q.cancelCt.Load(),
			MaxQueued: q.cfg.MaxQueued, MaxRunning: q.cfg.MaxRunning,
			WorkerBudget: par.N(q.cfg.Workers), PerJobWorkers: q.perJobWorkers(),
			MaxJobSinks: q.cfg.MaxJobSinks,
			Panics:      q.panicCt.Load(), Timeouts: q.timeoutCt.Load(),
			WatchdogKills:    q.watchdogCt.Load(),
			AbandonedWorkers: q.abandonCt.Load(),
			Deduped:          q.dedupCt.Load(),
		},
		Cache:      q.cache.Stats(),
		Faults:     q.cfg.Faults.Counts(),
		LastPanics: lastPanics,
		Cluster:    q.clusterStats(),
	}
}

// clusterStats returns the cluster snapshot, nil when cluster mode is off.
func (q *Queue) clusterStats() *ClusterStats {
	if q.cluster == nil {
		return nil
	}
	return q.cluster.stats()
}

// Close stops the runner pool: new submissions are rejected with
// ErrClosed, running jobs are cancelled mid-phase, still queued jobs are
// finished as cancelled, and Close blocks until every goroutine the queue
// started — runners, the watchdog, and any abandoned job bodies — has
// exited. The watchdog keeps running until the runners have drained, so a
// body stuck past the grace period cannot hang shutdown: its runner is
// freed, and the body itself is joined once its (bounded) hang returns.
// Safe to call more than once.
func (q *Queue) Close() {
	q.closeOnce.Do(func() {
		q.mu.Lock()
		q.closed = true
		q.mu.Unlock()
		q.cancel()
		// Wake runners blocked on an empty scheduler; pending jobs stay
		// queued for the drain below.
		q.sched.close()
		q.wg.Wait()
		close(q.wdStop)
		q.wdWG.Wait()
		q.bodyWG.Wait()
		// With every job body joined, nothing can be waiting on the region
		// board; stop the cluster runtime (executors, dispatchers, prober)
		// last.
		if q.cluster != nil {
			q.cluster.close()
		}
		// Drain jobs the runners never picked up.
		for _, job := range q.sched.drain() {
			q.settle(job, StateCancelled, nil, context.Canceled, &q.cancelCt)
		}
	})
}

// Saturated reports whether the pending queue is full: the next enqueue
// would be rejected with ErrQueueFull, so /readyz turns not-ready and load
// balancers can drain before clients see 429s.
func (q *Queue) Saturated() bool { return q.sched.Full() }

// RetryAfter estimates when a rejected submission is worth retrying: the
// queue depth divided by the running slots, floored at one second. It is
// deliberately coarse — job runtimes vary by orders of magnitude — but it
// scales with backlog, which is what spreads a thundering herd.
func (q *Queue) RetryAfter() time.Duration {
	d := time.Duration(1+q.sched.Len()/q.cfg.MaxRunning) * time.Second
	if d > 60*time.Second {
		d = 60 * time.Second
	}
	return d
}

// settle is the one funnel of every terminal transition. The call that wins
// the transition bumps the given counters, retires the job, and only then
// closes done, so a client woken by done finds the job counted and its
// record in the retention ring. A late finisher — an abandoned body
// returning after the watchdog already failed the job — changes nothing
// and gets false.
func (q *Queue) settle(job *Job, state JobState, res *Result, err error, counters ...*atomic.Int64) bool {
	if !job.finish(state, res, err) {
		return false
	}
	for _, c := range counters {
		c.Add(1)
	}
	q.retire(job)
	close(job.done)
	return true
}

// retire records a finished job in the retention ring, forgetting the
// oldest finished jobs beyond the cap. settle calls it exactly once per
// job, already terminal, which makes it the one funnel for the latency
// histograms and the per-job log line.
func (q *Queue) retire(job *Job) {
	q.metrics.observeRetired(job)
	job.mu.Lock()
	state, errMsg, hit := job.state, job.errMsg, job.cacheHit
	dur := job.finished.Sub(job.created)
	job.mu.Unlock()
	// retire is the one funnel every job passes exactly once, so the
	// per-class and per-tenant terminal counters hook here (cache hits
	// included).
	q.sched.observeTerminal(job, state)
	q.tenants.terminal(job.tenant, state)
	q.log.Debug("job finished",
		"job", job.id, "kind", job.kind, "state", string(state),
		"cache_hit", hit, "dur_ms", ms(dur),
		"error", errMsg, "request_id", job.reqID)
	q.mu.Lock()
	q.finished = append(q.finished, job.id)
	for len(q.finished) > q.cfg.RetainJobs {
		delete(q.jobs, q.finished[0])
		q.finished = q.finished[1:]
	}
	q.mu.Unlock()
}

func (q *Queue) runner() {
	defer q.wg.Done()
	for {
		job := q.sched.next()
		if job == nil { // scheduler closed
			return
		}
		q.run(job)
	}
}

// run executes one job on a runner. The body runs in a child goroutine so
// the runner can be reclaimed if the body gets stuck: normally the select
// ends with the body's return, but when the watchdog abandons the job the
// runner moves on immediately and the stuck goroutine is joined later
// (bodyWG, waited by Close).
func (q *Queue) run(job *Job) {
	// The running slot and tenant-quota unit free when the RUNNER moves
	// on — also after a watchdog abandon, where the stuck body lingers
	// but its slot is already being reused.
	defer q.sched.release(job)
	if job.ctx.Err() != nil { // cancelled while queued
		q.settle(job, StateCancelled, nil, job.ctx.Err(), &q.cancelCt)
		return
	}
	runCtx, cancelRun := job.ctx, context.CancelFunc(func() {})
	if job.timeout > 0 {
		runCtx, cancelRun = context.WithTimeout(job.ctx, job.timeout)
	}
	job.setRunning(runCtx)
	bodyDone := make(chan struct{})
	go func() {
		defer close(bodyDone)
		defer cancelRun()
		q.execute(job, runCtx)
	}()
	select {
	case <-bodyDone:
	case <-job.abandon:
		// Watchdog force-failed the job: this runner is free, the body is
		// tracked until it eventually returns. The Add happens before this
		// runner exits, so it is always ordered before Close's bodyWG.Wait.
		q.abandonCt.Add(1)
		q.bodyWG.Add(1)
		go func() {
			<-bodyDone
			q.abandonCt.Add(-1)
			q.bodyWG.Done()
		}()
	}
}

// execute is the job body: recover any panic into a structured failure,
// apply the serve.job injection point, dispatch by kind and classify the
// terminal state. Runs in its own goroutine; all terminal counters move
// inside settle, which a late-returning abandoned body loses, so it cannot
// double-count.
func (q *Queue) execute(job *Job, ctx context.Context) {
	defer func() {
		if r := recover(); r != nil {
			q.recordPanic(job.id, r, debug.Stack())
			job.setPanicked()
			q.settle(job, StateFailed, nil, fmt.Errorf("serve: job panicked: %v", r), &q.failedCt)
			q.panicCt.Add(1)
			q.log.Warn("job panicked (recovered)",
				"job", job.id, "kind", job.kind, "panic", fmt.Sprint(r),
				"request_id", job.reqID)
		}
	}()
	if f := q.cfg.Faults.Fire(fault.PointServeJob); f != nil {
		switch f.Kind {
		case fault.Cancel:
			job.cancel()
		case fault.Corrupt:
			// Meaningless at the job boundary; ignore.
		default:
			if err := f.Apply(ctx); err != nil {
				q.finishJob(job, ctx, nil, err)
				return
			}
		}
	}
	if job.kind == KindECO {
		result, err := q.runECO(job, ctx)
		q.finishJob(job, ctx, result, err)
		return
	}
	rv, err := job.req.resolve(job.kind)
	if err != nil {
		// Unreachable for a validated request; fail cleanly regardless.
		q.finishJob(job, ctx, nil, err)
		return
	}
	opt := rv.opt
	opt.Workers = q.workersFor(job.sinks)
	opt.Progress = job.progress
	opt.Faults = q.cfg.Faults
	if q.cluster != nil {
		// Partitioned regions route through the cluster's region board:
		// local executors and peer dispatchers drain it. The executor is
		// result-equivalent to the local path, so Metrics stay
		// bit-identical to a single-node run.
		opt.RegionExec = q.cluster.execFor(job.req.Tech, rv.tc, opt)
	}

	var result *Result
	switch job.kind {
	case KindSynthesize:
		var o *core.Outcome
		o, err = core.SynthesizeContext(ctx, rv.root, rv.sinks, rv.tc, opt)
		if err == nil {
			result = resultFromOutcome(KindSynthesize, job.design, job.sinks, o)
		}
	case KindDSE:
		t0 := time.Now()
		// A sweep's points run with Progress cleared, so the record is
		// one point-only row: the points it swept.
		result = &Result{
			Kind: KindDSE, Design: job.design, Sinks: job.sinks,
			Version: obs.Build().Version, Revision: obs.Build().Revision,
			Phases: []core.PhaseTotal{{Phase: string(core.PhaseSweep), Points: len(job.req.Thresholds)}},
		}
		if len(rv.opt.Corners) > 0 {
			result.CornerPoints, err = dse.SweepFanoutCorners(ctx, rv.root, rv.sinks, rv.tc, job.req.Thresholds, rv.opt.Corners, opt)
		} else {
			result.Points, err = dse.SweepFanoutContext(ctx, rv.root, rv.sinks, rv.tc, job.req.Thresholds, opt)
		}
		result.TotalMS = ms(time.Since(t0))
	}
	q.finishJob(job, ctx, result, err)
}

// finishJob classifies a body's outcome into the job's terminal state:
// success, deadline (failed + TimedOut, only when the PARENT context is
// still live — a cancelled parent is a cancellation however the deadline
// raced it), cancellation, or plain failure. A successful result is cached
// even if the job was already force-finished (it is valid; the next
// identical request deserves the hit).
func (q *Queue) finishJob(job *Job, runCtx context.Context, res *Result, err error) {
	switch {
	case err == nil:
		if e, ok := q.cache.Put(job.key, res); ok {
			q.persistResult(job.key, e)
		}
		q.settle(job, StateDone, res, nil, &q.doneCt)
	case errors.Is(runCtx.Err(), context.DeadlineExceeded) && job.ctx.Err() == nil:
		job.setTimedOut()
		q.settle(job, StateFailed, nil, fmt.Errorf("serve: deadline exceeded after %v: %w", job.timeout, err),
			&q.failedCt, &q.timeoutCt)
	case job.ctx.Err() != nil:
		q.settle(job, StateCancelled, nil, err, &q.cancelCt)
	default:
		q.settle(job, StateFailed, nil, err, &q.failedCt)
	}
}

// recordPanic appends to the bounded panic ring retained for GET /stats.
func (q *Queue) recordPanic(jobID string, val any, stack []byte) {
	rec := PanicRecord{
		JobID: jobID, Value: fmt.Sprint(val), Stack: string(stack), Time: time.Now(),
	}
	q.mu.Lock()
	q.panics = append(q.panics, rec)
	if len(q.panics) > panicRingSize {
		q.panics = q.panics[len(q.panics)-panicRingSize:]
	}
	q.mu.Unlock()
}

// runECO executes an eco job: the base request (the job's request minus its
// delta) is resolved through the base-outcome cache — synthesized with
// retained state on a miss, which also populates the ordinary result cache
// under the base's own key — and the delta is then applied incrementally.
func (q *Queue) runECO(job *Job, ctx context.Context) (*Result, error) {
	t0 := time.Now()
	baseReq := *job.req
	baseReq.Delta = nil
	baseKey := baseReq.Key(KindSynthesize)
	prev, baseHit, err := q.resolveBase(job, ctx, &baseReq, baseKey)
	if err != nil {
		return nil, err
	}
	delta, err := job.req.Delta.toDelta()
	if err != nil {
		return nil, err // unreachable for a validated request
	}
	out, err := core.SynthesizeECOContext(ctx, prev, delta, core.Options{
		Workers: q.workersFor(job.sinks), Progress: job.progress,
		Faults: q.cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	r := resultFromOutcome(KindECO, job.design, job.sinks, out)
	r.BaseCacheHit = baseHit
	if !baseHit {
		r.Phases = foldPhases(prev.Phases, out.Phases)
	}
	r.TotalMS = ms(time.Since(t0)) // include base resolution in the job total
	return r, nil
}

// resolveBase returns the retained base outcome for an eco job: from the
// base cache when present, otherwise synthesized — at most once per base
// key across concurrent jobs (single-flight), so N cold deltas against the
// same base pay for one synthesis instead of N. The leader's job streams
// the base-run phases and reports BaseCacheHit=false; waiters pick the
// outcome up from the cache (BaseCacheHit=true). If the leader fails or
// its entry is evicted before a waiter wakes, the waiter retries and may
// become the new leader.
func (q *Queue) resolveBase(job *Job, ctx context.Context, baseReq *Request, baseKey string) (*core.Outcome, bool, error) {
	for {
		if prev, ok := q.bases.Get(baseKey); ok {
			return prev, true, nil
		}
		q.baseMu.Lock()
		ch := q.baseInflight[baseKey]
		leader := ch == nil
		if leader {
			ch = make(chan struct{})
			q.baseInflight[baseKey] = ch
		}
		q.baseMu.Unlock()
		if !leader {
			select {
			case <-ch:
				continue // leader finished: re-check the cache
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		// The inflight entry MUST be cleared even if the base synthesis
		// panics (e.g. an injected fault): a stranded entry would park every
		// later delta against this base forever.
		prev, err := func() (*core.Outcome, error) {
			defer func() {
				q.baseMu.Lock()
				delete(q.baseInflight, baseKey)
				q.baseMu.Unlock()
				close(ch)
			}()
			return q.synthesizeBase(job, ctx, baseReq, baseKey)
		}()
		return prev, false, err
	}
}

// synthesizeBase runs the base synthesis of an eco job with retained state
// and populates both caches: the base-outcome LRU (for later deltas) and
// the ordinary result cache under the base's own key (a later plain
// /synthesize of the base is a hit).
func (q *Queue) synthesizeBase(job *Job, ctx context.Context, baseReq *Request, baseKey string) (*core.Outcome, error) {
	rv, err := baseReq.resolve(KindSynthesize)
	if err != nil {
		return nil, err
	}
	opt := rv.opt
	opt.Workers = q.workersFor(len(rv.sinks))
	opt.Progress = job.progress
	opt.Faults = q.cfg.Faults
	opt.RetainECO = true
	if q.cluster != nil {
		opt.RegionExec = q.cluster.execFor(baseReq.Tech, rv.tc, opt)
	}
	prev, err := core.SynthesizeContext(ctx, rv.root, rv.sinks, rv.tc, opt)
	if err != nil {
		return nil, err
	}
	q.bases.Put(baseKey, prev)
	q.persistBase(baseKey, prev)
	baseRes := resultFromOutcome(KindSynthesize, job.design, len(rv.sinks), prev)
	if e, ok := q.cache.Put(baseKey, baseRes); ok {
		q.persistResult(baseKey, e)
	}
	return prev, nil
}

func resultFromOutcome(kind, design string, sinks int, o *core.Outcome) *Result {
	build := obs.Build()
	r := &Result{
		Kind: kind, Design: design, Sinks: sinks,
		Version: build.Version, Revision: build.Revision,
		Metrics: o.Metrics,
		Corners: o.Corners,
		ECO:     o.ECO,
		DP:      &DPStats{Nodes: o.DP.Nodes, Solutions: o.DP.Solutions},
		TotalMS: ms(o.TotalTime),
		Phases:  o.Phases,
	}
	if o.Refine != nil {
		r.Refine = &RefineStats{
			Triggered: o.Refine.Triggered, Inserted: o.Refine.Inserted,
			Attempted:    o.Refine.Attempted,
			SkewBeforePS: o.Refine.Before.Skew, SkewAfterPS: o.Refine.After.Skew,
		}
	}
	return r
}

// foldPhases returns base's timing record with rows added in by phase
// name: a phase already in base sums its count, points and time, and a new
// one appends, so the rows stay in first-completion order. base is not
// modified.
func foldPhases(base, rows []core.PhaseTotal) []core.PhaseTotal {
	out := slices.Clone(base)
	for _, r := range rows {
		i := slices.IndexFunc(out, func(p core.PhaseTotal) bool { return p.Phase == r.Phase })
		if i < 0 {
			out = append(out, r)
			continue
		}
		out[i].Count += r.Count
		out[i].Points += r.Points
		out[i].MS += r.MS
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
