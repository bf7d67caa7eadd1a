package serve

import (
	"net/http"
	"strconv"
	"time"

	"dscts/internal/obs"
	"dscts/internal/par"
	"dscts/internal/store"
)

// metrics is the queue's instrument set. Counters and gauges that mirror
// GET /stats are registered as CounterFunc/GaugeFunc closures over the SAME
// atomics the stats snapshot reads, so /metrics and /stats can never drift:
// there is one source of truth and two renderings. Owned instruments exist
// only for distributions /stats does not carry (latency histograms) and for
// HTTP-layer counts. A nil *metrics (registry disabled) is a no-op
// everywhere it is consulted.
type metrics struct {
	reg *obs.Registry

	// jobDur is the end-to-end job latency (admission to terminal state) of
	// DONE jobs, split by cache hit/miss; its total count equals the done
	// counter, which cismoke cross-checks.
	jobDurHit  *obs.Histogram
	jobDurMiss *obs.Histogram
	// queueWait is time from admission to the runner picking the job up
	// (executed jobs only — cache hits never wait).
	queueWait *obs.Histogram
	// regions accumulates partition regions synthesized; per-phase duration
	// histograms are created lazily through HistogramOf as phases first
	// complete.
	regions *obs.Counter
}

// newMetrics registers the queue's families. reg may be nil (disabled).
func newMetrics(reg *obs.Registry, q *Queue) *metrics {
	if reg == nil {
		return nil
	}
	m := &metrics{reg: reg}

	reg.CounterFunc("dscts_jobs_submitted_total",
		"Jobs past validation and size control (admitted, cache hits included).",
		func() float64 { return float64(q.submitted.Load()) })
	reg.CounterFunc("dscts_jobs_rejected_total",
		"Submissions rejected by admission control: the queue was full.",
		func() float64 { return float64(q.rejectedFull.Load()) },
		obs.L("reason", "queue_full"))
	reg.CounterFunc("dscts_jobs_rejected_total",
		"Submissions rejected by admission control: over the sink budget.",
		func() float64 { return float64(q.rejectedLarge.Load()) },
		obs.L("reason", "too_large"))
	reg.CounterFunc("dscts_jobs_rejected_total",
		"Submissions rejected by admission control: the queue was closed.",
		func() float64 { return float64(q.rejectedClosed.Load()) },
		obs.L("reason", "closed"))
	reg.CounterFunc("dscts_jobs_rejected_total",
		"Submissions rejected by admission control: the tenant's outstanding-job quota.",
		func() float64 { return float64(q.rejectedQuota.Load()) },
		obs.L("reason", "quota"))
	reg.CounterFunc("dscts_jobs_total", "Jobs finished done.",
		func() float64 { return float64(q.doneCt.Load()) }, obs.L("state", "done"))
	reg.CounterFunc("dscts_jobs_total", "Jobs finished failed.",
		func() float64 { return float64(q.failedCt.Load()) }, obs.L("state", "failed"))
	reg.CounterFunc("dscts_jobs_total", "Jobs finished cancelled.",
		func() float64 { return float64(q.cancelCt.Load()) }, obs.L("state", "cancelled"))
	reg.CounterFunc("dscts_jobs_panics_total",
		"Job bodies that panicked and were recovered (each also counts as failed).",
		func() float64 { return float64(q.panicCt.Load()) })
	reg.CounterFunc("dscts_jobs_timeouts_total",
		"Job failures caused by the per-job running deadline.",
		func() float64 { return float64(q.timeoutCt.Load()) })
	reg.CounterFunc("dscts_jobs_watchdog_kills_total",
		"Jobs force-finished by the watchdog after ignoring cancellation past the grace period.",
		func() float64 { return float64(q.watchdogCt.Load()) })
	reg.CounterFunc("dscts_idempotent_replays_total",
		"Submissions answered by an earlier job through their idempotency key.",
		func() float64 { return float64(q.dedupCt.Load()) })
	reg.GaugeFunc("dscts_jobs_abandoned_workers",
		"Stuck job bodies currently detached from the runner pool.",
		func() float64 { return float64(q.abandonCt.Load()) })
	reg.GaugeFunc("dscts_jobs_queue_depth",
		"Jobs admitted and waiting for a runner.",
		func() float64 { return float64(q.sched.Len()) })
	reg.GaugeFunc("dscts_jobs_queue_capacity",
		"Pending-queue bound past which submissions are rejected with 429.",
		func() float64 { return float64(q.cfg.MaxQueued) })
	reg.GaugeFunc("dscts_jobs_running",
		"Jobs currently executing on a runner.",
		func() float64 { return float64(q.countState(StateRunning)) })
	reg.GaugeFunc("dscts_worker_budget",
		"Total synthesis worker budget shared by the running jobs.",
		func() float64 { return float64(par.N(q.cfg.Workers)) })

	// Result cache: same CacheStats the /stats payload snapshots.
	reg.CounterFunc("dscts_cache_hits_total", "Result-cache lookups answered from the cache.",
		func() float64 { return float64(q.cache.Stats().Hits) })
	reg.CounterFunc("dscts_cache_misses_total",
		"Result-cache lookups that missed (checksum corruptions included).",
		func() float64 { return float64(q.cache.Stats().Misses) })
	reg.CounterFunc("dscts_cache_evictions_total", "Result-cache entries evicted by the LRU cap.",
		func() float64 { return float64(q.cache.Stats().Evictions) })
	reg.CounterFunc("dscts_cache_corruptions_total",
		"Result-cache entries dropped by the integrity check (counted in misses too).",
		func() float64 { return float64(q.cache.Stats().Corruptions) })
	reg.CounterFunc("dscts_cache_encode_drops_total",
		"Results dropped at store time because their checksum encoding failed.",
		func() float64 { return float64(q.cache.Stats().EncodeDrops) })
	reg.GaugeFunc("dscts_cache_entries", "Result-cache entries currently resident.",
		func() float64 { return float64(q.cache.Stats().Entries) })
	reg.CounterFunc("dscts_eco_base_hits_total", "ECO base-outcome cache hits.",
		func() float64 { return float64(q.bases.Stats().Hits) })
	reg.CounterFunc("dscts_eco_base_misses_total",
		"ECO base-outcome cache misses (the base was re-synthesized).",
		func() float64 { return float64(q.bases.Stats().Misses) })
	reg.GaugeFunc("dscts_eco_base_entries", "ECO base outcomes currently retained.",
		func() float64 { return float64(q.bases.Stats().Entries) })

	// QoS classes are fixed at startup, so per-class instruments register
	// once, each closing over that class's scheduler state; the label set
	// is exactly the configured class list.
	for _, c := range q.sched.classes {
		c := c
		reg.GaugeFunc("dscts_qos_pending",
			"Jobs waiting for a runner, by QoS class.",
			func() float64 { return float64(q.sched.pendingOf(c)) },
			obs.L("class", c.name))
		reg.GaugeFunc("dscts_qos_running",
			"Jobs currently executing, by QoS class.",
			func() float64 { return float64(q.sched.runningOf(c)) },
			obs.L("class", c.name))
		reg.GaugeFunc("dscts_qos_share",
			"Running-slot budget of the class under contention (weighted slice of max_running).",
			func() float64 { return float64(c.share) },
			obs.L("class", c.name))
		reg.CounterFunc("dscts_qos_dispatched_total",
			"Jobs handed to runners, by QoS class.",
			func() float64 { return float64(c.dispatched.Load()) },
			obs.L("class", c.name))
		reg.CounterFunc("dscts_qos_jobs_total", "Jobs finished done, by QoS class.",
			func() float64 { return float64(c.doneCt.Load()) },
			obs.L("class", c.name), obs.L("state", "done"))
		reg.CounterFunc("dscts_qos_jobs_total", "Jobs finished failed, by QoS class.",
			func() float64 { return float64(c.failedCt.Load()) },
			obs.L("class", c.name), obs.L("state", "failed"))
		reg.CounterFunc("dscts_qos_jobs_total", "Jobs finished cancelled, by QoS class.",
			func() float64 { return float64(c.cancelledCt.Load()) },
			obs.L("class", c.name), obs.L("state", "cancelled"))
	}

	// Store families register unconditionally (zero-valued when persistence
	// is off) so the family set — which tests pin — does not depend on
	// configuration.
	sv := func(f func(store.Stats) int64) func() float64 {
		return func() float64 {
			if q.cfg.Store == nil {
				return 0
			}
			return float64(f(q.cfg.Store.Stats()))
		}
	}
	reg.CounterFunc("dscts_store_writes_total",
		"Blobs persisted by the write-behind store.",
		sv(func(s store.Stats) int64 { return s.Writes }))
	reg.CounterFunc("dscts_store_write_errors_total",
		"Store persist attempts that failed (entry lost from disk, kept in memory).",
		sv(func(s store.Stats) int64 { return s.WriteErrors }))
	reg.CounterFunc("dscts_store_dropped_total",
		"Writes discarded because the write-behind queue was full or the store closed.",
		sv(func(s store.Stats) int64 { return s.Dropped }))
	reg.GaugeFunc("dscts_store_pending",
		"Write-behind backlog of the persistent store.",
		sv(func(s store.Stats) int64 { return s.Pending }))
	reg.GaugeFunc("dscts_store_entries", "Result blobs currently on disk.",
		sv(func(s store.Stats) int64 { return s.ResultEntries }), obs.L("kind", "result"))
	reg.GaugeFunc("dscts_store_entries", "ECO base blobs currently on disk.",
		sv(func(s store.Stats) int64 { return s.BaseEntries }), obs.L("kind", "base"))
	reg.CounterFunc("dscts_store_warm_loaded_total",
		"Results loaded into the cache by warm start.",
		sv(func(s store.Stats) int64 { return s.WarmResults }), obs.L("kind", "result"))
	reg.CounterFunc("dscts_store_warm_loaded_total",
		"ECO bases loaded into the cache by warm start.",
		sv(func(s store.Stats) int64 { return s.WarmBases }), obs.L("kind", "base"))
	reg.CounterFunc("dscts_store_warm_skipped_total",
		"Warm-start blobs skipped and deleted: integrity mismatch.",
		sv(func(s store.Stats) int64 { return s.WarmSkippedCorrupt }), obs.L("reason", "corrupt"))
	reg.CounterFunc("dscts_store_warm_skipped_total",
		"Warm-start blobs skipped and deleted: format-version mismatch.",
		sv(func(s store.Stats) int64 { return s.WarmSkippedVersion }), obs.L("reason", "version"))
	reg.CounterFunc("dscts_store_warm_skipped_total",
		"Warm-start blobs skipped and deleted: IO error.",
		sv(func(s store.Stats) int64 { return s.WarmSkippedIO }), obs.L("reason", "io"))

	// Cluster families register only in cluster mode: unlike the store
	// families (a store can appear on restart without changing the family
	// set's meaning), a non-clustered daemon has no peers to report on, and
	// the golden family-set test pins the single-node list.
	if c := q.cluster; c != nil {
		reg.CounterFunc("dscts_cluster_forwarded_total",
			"Requests this node routed to their consistent-hash ring owner.",
			func() float64 { return float64(c.forwarded.Load()) })
		reg.CounterFunc("dscts_cluster_forward_fallback_total",
			"Forwards that failed (peer down or erroring) and were served locally instead.",
			func() float64 { return float64(c.forwardFallback.Load()) })
		reg.CounterFunc("dscts_cluster_forwarded_in_total",
			"Forwarded requests received from peers.",
			func() float64 { return float64(c.forwardedIn.Load()) })
		reg.CounterFunc("dscts_cluster_regions_total",
			"Board regions executed locally on this node.",
			func() float64 { return float64(c.localRegions.Load()) },
			obs.L("path", "local"))
		reg.CounterFunc("dscts_cluster_regions_total",
			"Board regions dispatched to peers (applied results).",
			func() float64 { return float64(c.dispatched.Load()) },
			obs.L("path", "dispatched"))
		reg.CounterFunc("dscts_cluster_regions_total",
			"Regions this node executed for peers via POST /internal/region.",
			func() float64 { return float64(c.served.Load()) },
			obs.L("path", "served"))
		reg.CounterFunc("dscts_cluster_region_dispatch_errors_total",
			"Region dispatch attempts that failed; each is re-offered unless its job has ended.",
			func() float64 { return float64(c.dispatchErrs.Load()) })
		reg.CounterFunc("dscts_cluster_breaker_opens_total",
			"Per-peer circuit-breaker openings, summed over the peer set.",
			func() float64 { return float64(c.peers.BreakerOpens()) })
		for _, id := range c.peers.IDs() {
			id := id
			reg.GaugeFunc("dscts_cluster_peer_up",
				"Peer liveness from this node's prober (1 healthy, 0 down).",
				func() float64 {
					if c.peers.Usable(id) {
						return 1
					}
					return 0
				},
				obs.L("peer", id))
		}
	}

	reg.CounterFunc("dscts_faults_injected_total",
		"Fired fault injections across all points (chaos/test builds; 0 in production).",
		func() float64 {
			var n int64
			for _, v := range q.cfg.Faults.Counts() {
				n += v
			}
			return float64(n)
		})
	reg.GaugeFunc("dscts_uptime_seconds", "Seconds since the queue started.",
		func() float64 { return time.Since(q.start).Seconds() })

	m.jobDurHit = reg.Histogram("dscts_job_duration_seconds",
		"End-to-end latency of done jobs, admission to terminal state.",
		nil, obs.L("cache", "hit"))
	m.jobDurMiss = reg.Histogram("dscts_job_duration_seconds",
		"End-to-end latency of done jobs, admission to terminal state.",
		nil, obs.L("cache", "miss"))
	m.queueWait = reg.Histogram("dscts_job_queue_wait_seconds",
		"Time executed jobs spent waiting for a runner.", nil)
	m.regions = reg.Counter("dscts_regions_total",
		"Partition regions synthesized by partition-parallel jobs.")

	obs.RegisterRuntime(reg)
	obs.RegisterBuildInfo(reg)
	return m
}

// observeRetired feeds the latency and per-phase histograms from a job that
// just reached the retention ring (every job passes through exactly once,
// already terminal). Nil-safe.
func (m *metrics) observeRetired(j *Job) {
	if m == nil {
		return
	}
	j.mu.Lock()
	state, hit := j.state, j.cacheHit
	created, started, finished := j.created, j.started, j.finished
	j.mu.Unlock()
	if state == StateDone && !finished.IsZero() {
		h := m.jobDurMiss
		if hit {
			h = m.jobDurHit
		}
		h.Observe(finished.Sub(created).Seconds())
	}
	if !started.IsZero() {
		m.queueWait.Observe(started.Sub(created).Seconds())
	}
	for _, pt := range j.trace.Totals() {
		if pt.Count > 0 {
			m.reg.HistogramOf("dscts_phase_duration_seconds",
				"Flow phase durations across jobs, engine-measured.",
				nil, obs.L("phase", pt.Phase)).Observe(pt.MS / 1e3)
		}
		if pt.Phase == "partition" && pt.Points > 0 {
			m.regions.Add(int64(pt.Points))
		}
	}
}

// countState counts jobs currently in the given state (scrape-time only;
// holds the queue and per-job locks briefly).
func (q *Queue) countState(s JobState) int {
	n := 0
	q.mu.Lock()
	for _, j := range q.jobs {
		j.mu.Lock()
		if j.state == s {
			n++
		}
		j.mu.Unlock()
	}
	q.mu.Unlock()
	return n
}

// httpMetrics instruments the HTTP layer: request counts by status code, a
// latency histogram, and readiness-probe outcomes. Nil when the registry is
// disabled.
type httpMetrics struct {
	reg    *obs.Registry
	reqDur *obs.Histogram
}

func newHTTPMetrics(reg *obs.Registry) *httpMetrics {
	if reg == nil {
		return nil
	}
	return &httpMetrics{
		reg: reg,
		reqDur: reg.Histogram("dscts_http_request_duration_seconds",
			"HTTP request handling latency (sync submissions include the job run).", nil),
	}
}

func (h *httpMetrics) observe(code int, dur time.Duration) {
	if h == nil {
		return
	}
	h.reg.CounterOf("dscts_http_requests_total", "HTTP requests served, by status code.",
		obs.L("code", strconv.Itoa(code))).Inc()
	h.reqDur.Observe(dur.Seconds())
}

func (h *httpMetrics) readyz(state string) {
	if h == nil {
		return
	}
	h.reg.CounterOf("dscts_readyz_checks_total",
		"Readiness probes answered, by reported state.", obs.L("state", state)).Inc()
}

// statusRecorder captures the response code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush keeps NDJSON streaming working through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
