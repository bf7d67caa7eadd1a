package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// DefaultClientTimeout bounds each request end to end
// (including reading the response body) when Client.Timeout is zero. It is
// deliberately generous — a sync XL synthesis can legitimately run for
// minutes — while still guaranteeing that no call can hang forever the way
// the old default (http.DefaultClient, no timeout at all) could.
const DefaultClientTimeout = 15 * time.Minute

// DefaultMaxRetries is the transient-failure retry budget for idempotent
// requests.
const DefaultMaxRetries = 3

// DefaultRetryBackoff is the base backoff when Client.RetryBackoff is zero;
// attempt n waits base·2ⁿ with ±50% jitter, capped at maxRetryBackoff, and
// a server Retry-After hint always wins when it is longer.
const DefaultRetryBackoff = 100 * time.Millisecond

const maxRetryBackoff = 5 * time.Second

// Client is a small Go client for the dsctsd HTTP API.
//
// Retries: transient failures — connection errors, 429 Too Many Requests,
// 503 Service Unavailable — are retried with exponential backoff and
// jitter, honoring the server's Retry-After hint, but ONLY for requests
// that are safe to repeat: GETs, cancels, and submissions carrying an
// IdempotencyKey (the server dedups those onto the original job). An
// unkeyed POST is never retried: the response loss could mask a submission
// that actually ran.
type Client struct {
	// Base is the server base URL, e.g. "http://127.0.0.1:8577".
	Base string
	// HTTP is the underlying client; when set it is used as-is (its own
	// Timeout included). nil builds one with Timeout below.
	HTTP *http.Client
	// Timeout bounds each request end to end when HTTP is nil: 0 means
	// DefaultClientTimeout, negative disables the bound.
	Timeout time.Duration
	// RetryBackoff is the base backoff; 0 means DefaultRetryBackoff.
	RetryBackoff time.Duration
}

// NewClient returns a Client for the given base URL.
func NewClient(base string) *Client { return &Client{Base: base} }

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	t := c.Timeout
	switch {
	case t == 0:
		t = DefaultClientTimeout
	case t < 0:
		t = 0
	}
	return &http.Client{Timeout: t}
}

// apiError is the decoded JSON error envelope of a non-2xx response.
type apiError struct {
	Status int
	Msg    string
	// RetryAfter is the server's parsed Retry-After hint (0 when absent).
	RetryAfter time.Duration
}

func (e *apiError) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.Status, e.Msg)
}

// HTTPStatus exposes the status code to callers outside the package (via
// errors.As against an interface{ HTTPStatus() int }), so they can tell a
// 504 deadline from a 500 panic from a 429 rejection without string-matching.
func (e *apiError) HTTPStatus() int { return e.Status }

func decodeErr(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil && body.Error != "" {
		msg = body.Error
	}
	e := &apiError{Status: resp.StatusCode, Msg: msg}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// do performs one API call; when idempotent is set, transient failures are
// retried with backoff.
func (c *Client) do(ctx context.Context, method, path string, body, out any, idempotent bool) error {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return err
		}
	}
	retries := DefaultMaxRetries
	if !idempotent {
		retries = 0
	}
	base := c.RetryBackoff
	if base <= 0 {
		base = DefaultRetryBackoff
	}
	for attempt := 0; ; attempt++ {
		err := c.once(ctx, method, path, data, out)
		if err == nil || attempt >= retries {
			return err
		}
		wait, retriable := retryDelay(err, attempt, base)
		if !retriable {
			return err
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// retryDelay classifies an error and computes the attempt's backoff:
// exponential with ±50% jitter, floored by the server's Retry-After hint.
// Transport errors are retriable (except context cancellation). HTTP
// statuses split by class: every 4xx is TERMINAL except 429 — the request
// itself is wrong (400), too big (413) or unroutable (404), and repeating
// it can only waste the server's time and mask the real error — while 5xx
// is retriable except the two that retrying cannot fix: 501 Not
// Implemented, and 504, which in sync mode means the job RAN and hit its
// deadline — the engine is deterministic, so a repeat would burn the same
// wall-clock and time out the same way.
func retryDelay(err error, attempt int, base time.Duration) (time.Duration, bool) {
	var hint time.Duration
	var apiErr *apiError
	var urlErr *url.Error
	switch {
	case errors.As(err, &apiErr):
		switch {
		case apiErr.Status == http.StatusTooManyRequests:
			// Backpressure: the one 4xx that asks for a retry.
		case apiErr.Status >= 500 &&
			apiErr.Status != http.StatusNotImplemented &&
			apiErr.Status != http.StatusGatewayTimeout:
			// Server-side transient (500 recovered panic, 502/503 along
			// the path).
		default:
			return 0, false
		}
		hint = apiErr.RetryAfter
	case errors.As(err, &urlErr):
		if urlErr.Err != nil && (errors.Is(urlErr.Err, context.Canceled) || errors.Is(urlErr.Err, context.DeadlineExceeded)) {
			return 0, false
		}
	default:
		return 0, false
	}
	backoff := base << attempt
	if backoff > maxRetryBackoff {
		backoff = maxRetryBackoff
	}
	backoff = time.Duration(float64(backoff) * (0.5 + rand.Float64()))
	if hint > backoff {
		backoff = hint
	}
	return backoff, true
}

func (c *Client) once(ctx context.Context, method, path string, data []byte, out any) error {
	var rd io.Reader
	if data != nil {
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if data != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeErr(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Synthesize runs req synchronously and returns the finished job snapshot.
func (c *Client) Synthesize(ctx context.Context, req *Request) (*JobInfo, error) {
	var info JobInfo
	if err := c.do(ctx, http.MethodPost, "/synthesize?mode=sync", req, &info, req.IdempotencyKey != ""); err != nil {
		return nil, err
	}
	return &info, nil
}

// DSE runs a fanout sweep synchronously.
func (c *Client) DSE(ctx context.Context, req *Request) (*JobInfo, error) {
	var info JobInfo
	if err := c.do(ctx, http.MethodPost, "/dse?mode=sync", req, &info, req.IdempotencyKey != ""); err != nil {
		return nil, err
	}
	return &info, nil
}

// ECO applies req.Delta incrementally against the base described by the
// rest of req, synchronously.
func (c *Client) ECO(ctx context.Context, req *Request) (*JobInfo, error) {
	var info JobInfo
	if err := c.do(ctx, http.MethodPost, "/eco?mode=sync", req, &info, req.IdempotencyKey != ""); err != nil {
		return nil, err
	}
	return &info, nil
}

// SubmitAsync enqueues req (kind KindSynthesize, KindDSE or KindECO) and
// returns the queued job snapshot immediately; poll Job for completion.
// With req.IdempotencyKey set, transient rejections are retried and a
// retried submission resolves to the original job.
func (c *Client) SubmitAsync(ctx context.Context, kind string, req *Request) (*JobInfo, error) {
	var info JobInfo
	if err := c.do(ctx, http.MethodPost, "/"+kind+"?mode=async", req, &info, req.IdempotencyKey != ""); err != nil {
		return nil, err
	}
	return &info, nil
}

// Job fetches a job snapshot by ID.
func (c *Client) Job(ctx context.Context, id string) (*JobInfo, error) {
	var info JobInfo
	if err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &info, true); err != nil {
		return nil, err
	}
	return &info, nil
}

// Cancel stops a queued or running job. Cancellation is idempotent
// server-side, so it is safe to retry.
func (c *Client) Cancel(ctx context.Context, id string) (*JobInfo, error) {
	var info JobInfo
	if err := c.do(ctx, http.MethodPost, "/jobs/"+id+"/cancel", nil, &info, true); err != nil {
		return nil, err
	}
	return &info, nil
}

// Stats fetches the queue and cache counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var st Stats
	if err := c.do(ctx, http.MethodGet, "/stats", nil, &st, true); err != nil {
		return nil, err
	}
	return &st, nil
}

// Health checks GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil, true)
}
