package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"dscts/internal/obs"
)

// Server is the HTTP face of the job queue.
//
//	POST /synthesize        run the full flow            (body: Request)
//	POST /dse               run a fanout-threshold sweep (body: Request)
//	POST /eco               incremental re-synthesis     (body: Request + delta)
//	GET  /jobs/{id}         job snapshot (with result when done)
//	POST /jobs/{id}/cancel  stop a queued or running job
//	GET  /healthz           liveness
//	GET  /readyz            readiness (503 while draining or saturated)
//	GET  /stats             queue + cache counters
//	GET  /version           build identity (module version, VCS revision)
//	GET  /metrics           Prometheus text exposition (when Config.Metrics set)
//
// POST endpoints take ?mode=sync (default), async or stream. Sync waits for
// the job and returns its final snapshot; the job is cancelled if the
// client disconnects. Async returns 202 with the queued job's snapshot;
// poll GET /jobs/{id}. Stream responds with NDJSON (application/x-ndjson):
// one Event per line — lifecycle transitions and per-phase progress — ending
// with the terminal event, which carries the result; disconnecting mid-
// stream cancels the job.
//
// Every response carries an X-Request-ID header (client-supplied value
// echoed, otherwise generated); error bodies repeat it as request_id, and
// the queue's job log lines carry it, so a client-reported failure leads
// straight to the matching server-side records.
type Server struct {
	queue *Queue
	mux   *http.ServeMux
	log   *slog.Logger
	hm    *httpMetrics
	// nextReq numbers generated request IDs.
	nextReq atomic.Int64
	// draining flips /readyz to 503 ahead of shutdown so load balancers
	// stop routing here before in-flight jobs are cancelled.
	draining atomic.Bool
}

// NewServer builds a Server with its own queue. Config.Metrics, when set,
// additionally serves GET /metrics; Config.Logger receives the HTTP access
// log at debug level alongside the queue's job log.
func NewServer(cfg Config) *Server {
	s := &Server{queue: NewQueue(cfg), mux: http.NewServeMux()}
	s.log = s.queue.log
	s.hm = newHTTPMetrics(cfg.Metrics)
	s.mux.HandleFunc("POST /synthesize", func(w http.ResponseWriter, r *http.Request) {
		s.submit(w, r, KindSynthesize)
	})
	s.mux.HandleFunc("POST /dse", func(w http.ResponseWriter, r *http.Request) {
		s.submit(w, r, KindDSE)
	})
	s.mux.HandleFunc("POST /eco", func(w http.ResponseWriter, r *http.Request) {
		s.submit(w, r, KindECO)
	})
	s.mux.HandleFunc("GET /jobs/{id}", s.job)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.cancel)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	s.mux.HandleFunc("GET /stats", s.stats)
	s.mux.HandleFunc("GET /version", s.version)
	if c := s.queue.cluster; c != nil {
		// Cluster-internal peer API (gob over HTTP, shared-secret gated):
		// remote region execution.
		s.mux.HandleFunc("POST /internal/region", c.handleRegion)
	}
	if cfg.Metrics != nil {
		reg := cfg.Metrics
		s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := reg.WritePrometheus(w); err != nil {
				s.log.Debug("metrics write failed", "error", err)
			}
		})
	}
	return s
}

// Handler returns the HTTP handler: the API mux behind the request-ID and
// instrumentation middleware.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("req-%08x", s.nextReq.Add(1))
			r.Header.Set("X-Request-ID", id)
		}
		w.Header().Set("X-Request-ID", id)
		if c := s.queue.cluster; c != nil {
			// Which node answered; a forwarded response's header (set by
			// the owner) is relayed as-is by the forwarding node instead.
			if w.Header().Get(headerNode) == "" {
				w.Header().Set(headerNode, c.self.ID)
			}
		}
		rec := &statusRecorder{ResponseWriter: w}
		s.mux.ServeHTTP(rec, r)
		code := rec.code
		if code == 0 {
			code = http.StatusOK
		}
		s.hm.observe(code, time.Since(t0))
		s.log.Debug("http request",
			"method", r.Method, "path", r.URL.Path, "status", code,
			"dur_ms", ms(time.Since(t0)), "request_id", id)
	})
}

// Queue exposes the underlying queue (stats, direct submission).
func (s *Server) Queue() *Queue { return s.queue }

// Drain marks the server not-ready (/readyz → 503) without stopping it:
// call it before the HTTP server's graceful shutdown so load balancers
// divert traffic while in-flight jobs finish.
func (s *Server) Drain() { s.draining.Store(true) }

// Close stops the queue (draining first); see Queue.Close.
func (s *Server) Close() {
	s.Drain()
	s.queue.Close()
}

// A request body is bounded before it is decoded, so the sink budget holds
// before the body is in memory: a sink costs at most bodyBytesPerSink of
// JSON (generous for a placement point plus an ECO move and remove of the
// same sink), and bodyAllowance covers the rest of the request.
const (
	bodyBytesPerSink = 256
	bodyAllowance    = 64 << 10
)

// bodyLimit is the byte bound of a body carrying sinks sinks.
func bodyLimit(sinks int) int64 { return int64(sinks)*bodyBytesPerSink + bodyAllowance }

// boundBody caps r's body at bodyLimit(maxSinks); a negative maxSinks
// disables the size check.
func boundBody(w http.ResponseWriter, r *http.Request, maxSinks int) {
	if maxSinks > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, bodyLimit(maxSinks))
	}
}

// bodyTooLarge returns the 413 error for a decode that failed on
// boundBody's cap, or nil for any other decode error.
func bodyTooLarge(err error, maxSinks int) error {
	var tooBig *http.MaxBytesError
	if !errors.As(err, &tooBig) {
		return nil
	}
	return fmt.Errorf("request body exceeds %d bytes (max_job_sinks %d)", tooBig.Limit, maxSinks)
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind string) {
	boundBody(w, r, s.queue.cfg.MaxJobSinks)
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		if big := bodyTooLarge(err, s.queue.cfg.MaxJobSinks); big != nil {
			s.queue.rejectedLarge.Add(1)
			s.writeErr(w, r, http.StatusRequestEntityTooLarge, big)
			return
		}
		s.writeErr(w, r, http.StatusBadRequest, fmt.Errorf("invalid JSON body: %w", err))
		return
	}
	mode := r.URL.Query().Get("mode")
	if mode == "" {
		mode = "sync"
	}
	// The Idempotency-Key header is an alias for the request field; the
	// body field wins when both are set.
	if req.IdempotencyKey == "" {
		req.IdempotencyKey = r.Header.Get("Idempotency-Key")
	}
	// Likewise X-Tenant for the tenant field: proxies that authenticate
	// tenants stamp the header without touching the body.
	if req.Tenant == "" {
		req.Tenant = r.Header.Get("X-Tenant")
	}
	req.reqID = r.Header.Get("X-Request-ID")
	// Cluster routing: a sync request whose cache key hashes to a peer is
	// forwarded there (so repeated invocations hit exactly one node's
	// cache) unless we hold a local cached result or the owner is down —
	// a failed forward falls back to local execution below.
	if c := s.queue.cluster; c != nil {
		if r.Header.Get(headerForwarded) != "" {
			c.forwardedIn.Add(1)
		} else if owner, ok := c.shouldForward(r, mode, &req, kind); ok {
			if c.forward(w, r, owner, &req) {
				return
			}
		}
	}
	job, err := s.queue.Submit(&req, kind)
	if err != nil {
		var sz *SizeError
		switch {
		case errors.As(err, &sz):
			// 413 with the size estimate so clients can right-size or
			// partition the request.
			s.writeJSON(w, r, http.StatusRequestEntityTooLarge, map[string]any{
				"error":           err.Error(),
				"estimated_sinks": sz.EstimatedSinks,
				"max_sinks":       sz.MaxSinks,
				"request_id":      r.Header.Get("X-Request-ID"),
			})
		case errors.Is(err, ErrQueueFull):
			s.setRetryAfter(w)
			s.writeErr(w, r, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrQuota):
			// Same 429 as a full queue, but scoped to the tenant: the
			// backlog hint still applies (their own jobs must finish).
			s.setRetryAfter(w)
			s.writeErr(w, r, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrBadRequest):
			s.writeErr(w, r, http.StatusBadRequest, err)
		case errors.Is(err, ErrClosed):
			s.setRetryAfter(w)
			s.writeErr(w, r, http.StatusServiceUnavailable, err)
		default:
			s.writeErr(w, r, http.StatusInternalServerError, err)
		}
		return
	}
	switch mode {
	case "async":
		s.writeJSON(w, r, http.StatusAccepted, job.Info())
	case "stream":
		s.stream(w, r, job)
	case "sync":
		// Tie the job to the request: a disconnected client must not keep
		// burning workers.
		select {
		case <-job.Done():
			info := job.Info()
			s.writeJSON(w, r, terminalStatus(info), info)
		case <-r.Context().Done():
			job.Cancel()
			<-job.Done()
			s.writeErr(w, r, http.StatusRequestTimeout, fmt.Errorf("client went away; job %s cancelled", job.ID()))
		}
	default:
		s.writeErr(w, r, http.StatusBadRequest, fmt.Errorf("unknown mode %q (want sync, async or stream)", mode))
	}
}

// terminalStatus maps a finished job to the sync-mode HTTP status: 504 for
// deadline-exceeded, 500 for a recovered panic, 200 otherwise (including
// plain failures, whose structured error rides in the body — the request
// itself was handled fine).
func terminalStatus(info JobInfo) int {
	if info.State == StateFailed {
		switch {
		case info.TimedOut:
			return http.StatusGatewayTimeout
		case info.Panicked:
			return http.StatusInternalServerError
		}
	}
	return http.StatusOK
}

// setRetryAfter stamps the backlog-scaled retry hint on 429/503 responses.
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	secs := int(s.queue.RetryAfter().Seconds())
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// stream writes the job's event log as NDJSON until the terminal event.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, job *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	err := job.Follow(r.Context(), func(ev Event) error {
		if err := enc.Encode(ev); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		// Client went away (or the write failed, same thing): stop the job.
		job.Cancel()
	}
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) {
	job, err := s.queue.Job(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, r, http.StatusNotFound, err)
		return
	}
	if r.URL.Query().Get("mode") == "stream" {
		s.stream(w, r, job)
		return
	}
	s.writeJSON(w, r, http.StatusOK, job.Info())
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.queue.Cancel(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, r, http.StatusNotFound, err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, job.Info())
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, map[string]string{"status": "ok"})
}

// readyz is the load-balancer readiness gate, distinct from the /healthz
// liveness probe: the daemon is alive but should receive no new traffic
// while draining toward shutdown or while the queue is saturated (the next
// submission would be rejected with 429 anyway). Each probe outcome
// increments its own dscts_readyz_checks_total counter.
func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		s.hm.readyz("draining")
		s.setRetryAfter(w)
		s.writeJSON(w, r, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.queue.Saturated():
		s.hm.readyz("saturated")
		s.setRetryAfter(w)
		s.writeJSON(w, r, http.StatusServiceUnavailable, map[string]string{"status": "saturated"})
	default:
		s.hm.readyz("ready")
		s.writeJSON(w, r, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, s.queue.Stats())
}

func (s *Server) version(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, obs.Build())
}

// writeJSON writes a JSON response; encode failures (a client that went
// away mid-body, typically) are logged at debug instead of dropped.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Debug("response encode failed",
			"path", r.URL.Path, "status", status, "error", err,
			"request_id", r.Header.Get("X-Request-ID"))
	}
}

// writeErr writes a structured error body carrying the request ID.
func (s *Server) writeErr(w http.ResponseWriter, r *http.Request, status int, err error) {
	s.writeJSON(w, r, status, map[string]string{
		"error":      err.Error(),
		"request_id": r.Header.Get("X-Request-ID"),
	})
}

// writeJSON and writeErr are the bare helpers behind the Server methods,
// kept for callers with no request in hand.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
