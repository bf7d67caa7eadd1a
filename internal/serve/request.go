// Package serve turns the synthesis library into a multi-tenant service: a
// bounded job queue with admission control and per-job worker budgets, a
// content-addressed result cache with LRU eviction and hit/miss metrics,
// and an HTTP JSON API (POST /synthesize, POST /dse, GET /jobs/{id},
// GET /healthz, GET /stats) with NDJSON progress streaming. The cmd/dsctsd
// daemon wires it to a listener; Client is the matching Go client.
//
// Because the engine is deterministic in its worker count, the service can
// shrink or grow a job's worker budget freely — every admitted job returns
// Metrics bit-identical to a direct core.Synthesize call, and identical
// requests are served from the cache.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"

	"dscts/internal/bench"
	"dscts/internal/core"
	"dscts/internal/corner"
	"dscts/internal/eco"
	"dscts/internal/geom"
	"dscts/internal/insert"
	"dscts/internal/partition"
	"dscts/internal/tech"
)

// XY is a JSON-friendly planar point (µm).
type XY struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// OptionsSpec is the JSON view of the synthesis options a request may set.
// It deliberately excludes the worker count: concurrency is a service
// scheduling concern (per-job budgets), never part of the result identity —
// the engine produces bit-identical Metrics for every worker count.
type OptionsSpec struct {
	// Mode is "double" (default) or "single".
	Mode string `json:"mode,omitempty"`
	// FanoutThreshold configures the heterogeneous DP (0 = full mode).
	FanoutThreshold int `json:"fanout_threshold,omitempty"`
	// Alpha, Beta, Gamma are the MOES weights; all-zero means the paper's
	// 1, 10, 1.
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
	Gamma float64 `json:"gamma,omitempty"`
	// SkipRefine disables skew refinement.
	SkipRefine bool `json:"skip_refine,omitempty"`
	// SelectMinLatency picks the minimum-latency root instead of MOES.
	SelectMinLatency bool `json:"select_min_latency,omitempty"`
	// DiversePruning widens DP pruning with the resource axis.
	DiversePruning bool `json:"diverse_pruning,omitempty"`
	// MaxPerSide caps the DP solution set per side (0 = default).
	MaxPerSide int `json:"max_per_side,omitempty"`
	// UseFlatDME replaces hierarchical DME with matching-based DME.
	UseFlatDME bool `json:"use_flat_dme,omitempty"`
	// PartitionMaxSinks enables the partition-parallel pipeline with the
	// given region capacity (0 = monolithic flow). Region work streams as
	// "partition"/"stitch" phase events.
	PartitionMaxSinks int `json:"partition_max_sinks,omitempty"`
	// PartitionStrategy selects the region cut scheme ("kd" default,
	// "grid"); only meaningful with PartitionMaxSinks > 0.
	PartitionStrategy string `json:"partition_strategy,omitempty"`
}

// Request is the body of POST /synthesize and POST /dse. The instance is
// either a named built-in benchmark (Design, Seed) or an explicit placement
// (Root, Sinks); exactly one form must be given.
type Request struct {
	// Design names a built-in Table II benchmark (C1..C5 or name).
	Design string `json:"design,omitempty"`
	// Seed is the benchmark generation seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Root and Sinks give an explicit placement instead of Design.
	Root  *XY  `json:"root,omitempty"`
	Sinks []XY `json:"sinks,omitempty"`
	// XLSinks names a synthetic mega-scale placement with this many sinks
	// (bench.GenerateXL, seeded by Seed) — the placement is generated
	// server-side at execution, so million-sink jobs need no million-point
	// request body. Mutually exclusive with Design and Root/Sinks.
	XLSinks int `json:"xl_sinks,omitempty"`
	// Tech selects the technology ("asap7" is the default and currently
	// the only one).
	Tech string `json:"tech,omitempty"`
	// Options carries the synthesis knobs.
	Options OptionsSpec `json:"options"`
	// Corners names the PVT corners for multi-corner sign-off ("slow",
	// "typ", "fast"); empty means single-corner (typical) evaluation
	// only. Order matters for the response layout, and the set is part of
	// the result identity (the cache key).
	Corners []string `json:"corners,omitempty"`
	// Thresholds is the fanout sweep for POST /dse (ignored by
	// /synthesize).
	Thresholds []int `json:"thresholds,omitempty"`
	// Delta is the engineering change order of POST /eco: the rest of the
	// request describes the BASE synthesis (resolved through the
	// content-addressed base cache, or synthesized on a miss), and the
	// delta is applied incrementally on top. Required for /eco, rejected
	// everywhere else.
	Delta *DeltaSpec `json:"delta,omitempty"`
	// IncludeSinkDelays asks the response to carry the per-sink delay map
	// (it is large; off by default). Never part of the cache identity.
	IncludeSinkDelays bool `json:"include_sink_delays,omitempty"`
	// TimeoutMS bounds this job's RUNNING wall-clock in milliseconds. It can
	// only shorten the service-wide Config.JobTimeout, never extend it; 0
	// means the service default. A deadline-exceeded job fails with HTTP
	// 504. A scheduling knob: never part of the cache identity.
	TimeoutMS float64 `json:"timeout_ms,omitempty"`
	// Tenant names the submitting tenant for QoS accounting and per-tenant
	// admission quotas. Mirrors the X-Tenant HTTP header (the body field
	// wins when both are set); empty means the "default" tenant. A
	// scheduling knob: never part of the cache identity — tenants share the
	// content-addressed result cache by design.
	Tenant string `json:"tenant,omitempty"`
	// Class selects the QoS class ("interactive" or "batch" with the
	// default configuration; -qos-classes redefines the set). Empty means
	// the first configured class. Classes shape scheduling order and worker
	// shares only — never the result — so this is a scheduling knob,
	// excluded from the cache identity.
	Class string `json:"class,omitempty"`
	// IdempotencyKey deduplicates submissions: while the key is retained,
	// resubmitting it returns the ORIGINAL job instead of running the work
	// again, making client retries of lost POST responses safe. Mirrors the
	// Idempotency-Key HTTP header (the body field wins when both are set).
	// Keys are caller-chosen opaque strings scoped to the daemon instance.
	// A scheduling knob: never part of the cache identity.
	IdempotencyKey string `json:"idempotency_key,omitempty"`

	// reqID is the HTTP request ID that carried the submission, stamped by
	// the server for log correlation. Unexported: invisible to JSON and
	// never part of the cache identity.
	reqID string
}

// MoveSpec relocates one base-placement sink (JSON view of eco.Move).
type MoveSpec struct {
	Sink int     `json:"sink"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

// DeltaSpec is the JSON view of an engineering change order. Sink indices
// refer to the BASE placement (benchmark generation order, or the request's
// sink list order).
type DeltaSpec struct {
	// Add appends new sinks.
	Add []XY `json:"add,omitempty"`
	// Move relocates base sinks.
	Move []MoveSpec `json:"move,omitempty"`
	// Remove drops base sinks by index.
	Remove []int `json:"remove,omitempty"`
	// Corners, when non-empty, replaces the base run's sign-off corner set
	// (a corner change never dirties the tree).
	Corners []string `json:"corners,omitempty"`
}

// toDelta resolves the spec against the built-in corner presets.
func (d *DeltaSpec) toDelta() (eco.Delta, error) {
	var out eco.Delta
	for _, p := range d.Add {
		out.Add = append(out.Add, geom.Pt(p.X, p.Y))
	}
	for _, m := range d.Move {
		out.Move = append(out.Move, eco.Move{Sink: m.Sink, To: geom.Pt(m.X, m.Y)})
	}
	out.Remove = d.Remove
	var err error
	if out.SetCorners, err = corner.Resolve(d.Corners); err != nil {
		return eco.Delta{}, err
	}
	return out, nil
}

// resolved is a validated request, ready to execute.
type resolved struct {
	design string
	root   geom.Point
	sinks  []geom.Point
	tc     *tech.Tech
	opt    core.Options
}

// validate checks everything resolve checks without materializing the
// placement — benchmark generation is the expensive part of a request and
// is deferred to job execution, so cache hits and queue-full rejections
// never pay it. It returns the canonical design label (benchmark ID or
// "custom") and the sink count. A request that validates cannot fail to
// resolve.
func (r *Request) validate(kind string) (design string, sinks int, err error) {
	forms := 0
	if r.Design != "" {
		forms++
	}
	if r.Root != nil || len(r.Sinks) > 0 {
		forms++
	}
	if r.XLSinks != 0 {
		forms++
	}
	if forms > 1 {
		return "", 0, fmt.Errorf("give exactly one of design, root+sinks or xl_sinks")
	}
	switch {
	case r.Design != "":
		d, err := bench.ByID(r.Design)
		if err != nil {
			return "", 0, err
		}
		design, sinks = d.ID, d.FFs
	case r.XLSinks != 0:
		if r.XLSinks < 0 {
			return "", 0, fmt.Errorf("xl_sinks must be positive, got %d", r.XLSinks)
		}
		design, sinks = bench.XLDesign(r.XLSinks).ID, r.XLSinks
	case r.Root != nil && len(r.Sinks) > 0:
		design, sinks = "custom", len(r.Sinks)
	default:
		return "", 0, fmt.Errorf("request needs a design, a root plus sinks, or xl_sinks")
	}
	if r.Options.PartitionMaxSinks < 0 {
		return "", 0, fmt.Errorf("partition_max_sinks must be >= 0, got %d", r.Options.PartitionMaxSinks)
	}
	if err := (partition.Options{MaxSinks: r.Options.PartitionMaxSinks, Strategy: r.Options.PartitionStrategy}).Validate(); err != nil {
		return "", 0, err
	}
	switch r.Tech {
	case "", "asap7":
	default:
		return "", 0, fmt.Errorf("unknown tech %q", r.Tech)
	}
	switch r.Options.Mode {
	case "", "double", "single":
	default:
		return "", 0, fmt.Errorf("unknown mode %q (want \"double\" or \"single\")", r.Options.Mode)
	}
	if _, err := corner.Resolve(r.Corners); err != nil {
		return "", 0, err
	}
	if kind == KindDSE {
		if len(r.Thresholds) == 0 {
			return "", 0, fmt.Errorf("dse request needs thresholds")
		}
		for _, th := range r.Thresholds {
			if th <= 0 {
				return "", 0, fmt.Errorf("thresholds must be positive, got %d", th)
			}
		}
	}
	if r.TimeoutMS < 0 {
		return "", 0, fmt.Errorf("timeout_ms must be >= 0, got %g", r.TimeoutMS)
	}
	if r.Delta != nil && kind != KindECO {
		return "", 0, fmt.Errorf("delta is only valid for eco requests")
	}
	if kind == KindECO {
		if r.Delta == nil {
			return "", 0, fmt.Errorf("eco request needs a delta")
		}
		d, err := r.Delta.toDelta()
		if err != nil {
			return "", 0, err
		}
		if err := d.Validate(sinks); err != nil {
			return "", 0, err
		}
		// Admission control sizes the job by the post-delta placement.
		sinks += len(r.Delta.Add) - len(r.Delta.Remove)
	}
	return design, sinks, nil
}

// resolve validates the request for the given job kind and materializes the
// placement, technology and options.
func (r *Request) resolve(kind string) (*resolved, error) {
	design, _, err := r.validate(kind)
	if err != nil {
		return nil, err
	}
	out := &resolved{design: design, tc: tech.ASAP7()}
	// Macro blockages of a generated placement feed the partition cut-line
	// chooser below, matching what the CLI passes for the same design —
	// they are a pure function of (design, seed), both already in the
	// cache key.
	var macros []geom.BBox
	if r.Design != "" || r.XLSinks > 0 {
		seed := r.Seed
		if seed == 0 {
			seed = 1
		}
		var p *bench.Placement
		if r.XLSinks > 0 {
			p, err = bench.GenerateXL(r.XLSinks, seed)
		} else {
			var d bench.Design
			d, err = bench.ByID(r.Design)
			if err != nil {
				return nil, err
			}
			p, err = bench.Generate(d, seed)
		}
		if err != nil {
			return nil, err
		}
		out.root, out.sinks = p.Root, p.Sinks
		macros = p.Macros
	} else {
		out.root = geom.Pt(r.Root.X, r.Root.Y)
		out.sinks = make([]geom.Point, len(r.Sinks))
		for i, s := range r.Sinks {
			out.sinks[i] = geom.Pt(s.X, s.Y)
		}
	}
	o := r.Options
	if o.Mode == "single" {
		out.opt.Mode = core.SingleSide
	}
	out.opt.FanoutThreshold = o.FanoutThreshold
	out.opt.Alpha, out.opt.Beta, out.opt.Gamma = o.Alpha, o.Beta, o.Gamma
	out.opt.SkipRefine = o.SkipRefine
	out.opt.SelectMinLatency = o.SelectMinLatency
	out.opt.DiversePruning = o.DiversePruning
	out.opt.MaxPerSide = o.MaxPerSide
	out.opt.UseFlatDME = o.UseFlatDME
	out.opt.Partition = partition.Options{MaxSinks: o.PartitionMaxSinks, Strategy: o.PartitionStrategy, Macros: macros}
	if out.opt.Corners, err = corner.Resolve(r.Corners); err != nil {
		return nil, err
	}
	return out, nil
}

// requestKeyVersion tags the canonical request encoding hashed by Key.
// The encoding is versioned precisely so that ADDING a field can never
// alias an old cache entry: every field that determines the result —
// including zero values, with an explicit count before every variable-
// length section — is always encoded, and any change to the field set or
// their meaning MUST bump this version. v1 predates corners and the
// evaluation-model tag; v2 appends both unconditionally; v3 appends the
// XL-placement selector and the partition options unconditionally; v4
// appends the ECO delta section (add/move/remove/corner-replace)
// unconditionally, so a delta-carrying request can never alias its base;
// v5 hashes mode, MOES weights, MaxPerSide and FanoutThreshold as the
// engine applies them, so spellings of one default share one entry.
const requestKeyVersion = "dscts-request-v5"

// evalModel names the delay model the engine evaluates results with. It
// is part of the canonical encoding so that a future model switch (e.g.
// NLDM sign-off results) cannot collide with Elmore-evaluated entries.
const evalModel = "elmore"

// Key returns the content address of the request for the given job kind: a
// hex SHA-256 over a canonical versioned binary encoding of everything
// that determines the result — the placement (by benchmark identity or
// exact coordinate bits), the technology name, the evaluation model, the
// option fields, the corner set and, for DSE, the threshold sweep.
// Scheduling knobs (worker budgets, TimeoutMS, IdempotencyKey, Tenant,
// Class) and response-shape knobs (IncludeSinkDelays) are excluded, so
// requests differing only in those share one cache entry.
func (r *Request) Key(kind string) string {
	h := sha256.New()
	// Every fixed-width value goes through one reused little-endian
	// buffer: an explicit placement hashes two floats per sink, and a
	// per-value allocation would dominate a 100k-sink key.
	var buf [8]byte
	ws := func(s string) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(s)))
		h.Write(buf[:4])
		io.WriteString(h, s)
	}
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wi := func(v int64) { wu(uint64(v)) }
	wf := func(v float64) { wu(math.Float64bits(v)) }
	wb := func(v bool) {
		buf[0] = 0
		if v {
			buf[0] = 1
		}
		h.Write(buf[:1])
	}
	ws(requestKeyVersion)
	ws(kind)
	ws(evalModel)
	tc := r.Tech
	if tc == "" {
		tc = "asap7"
	}
	ws(tc)
	if r.XLSinks > 0 {
		ws("xl")
		wi(int64(r.XLSinks))
		seed := r.Seed
		if seed == 0 {
			seed = 1
		}
		wi(seed)
	} else if r.Design != "" {
		ws("design")
		// Canonicalize: bench.ByID accepts both the ID and the name, and
		// both spellings must share one cache entry.
		name := r.Design
		if d, err := bench.ByID(r.Design); err == nil {
			name = d.ID
		}
		ws(name)
		seed := r.Seed
		if seed == 0 {
			seed = 1
		}
		wi(seed)
	} else {
		ws("explicit")
		if r.Root != nil {
			wf(r.Root.X)
			wf(r.Root.Y)
		}
		wi(int64(len(r.Sinks)))
		for _, s := range r.Sinks {
			wf(s.X)
			wf(s.Y)
		}
	}
	// Options hash as the engine applies them, so requests that synthesize
	// the same tree share one entry: mode "" is "double", all-zero weights
	// are the paper's defaults, MaxPerSide <= 0 is the DP's default cap and
	// FanoutThreshold <= 0 is full mode. Single-side synthesis ignores the
	// fanout threshold and a DSE sweep overwrites it at every point, so
	// both hash it as 0.
	o := r.Options
	if o.Mode == "" {
		o.Mode = "double"
	}
	if o.FanoutThreshold < 0 || o.Mode == "single" || kind == KindDSE {
		o.FanoutThreshold = 0
	}
	if o.Alpha == 0 && o.Beta == 0 && o.Gamma == 0 {
		def := insert.DefaultConfig(nil)
		o.Alpha, o.Beta, o.Gamma = def.Alpha, def.Beta, def.Gamma
	}
	if o.MaxPerSide <= 0 {
		o.MaxPerSide = insert.DefaultMaxPerSide
	}
	ws(o.Mode)
	wi(int64(o.FanoutThreshold))
	wf(o.Alpha)
	wf(o.Beta)
	wf(o.Gamma)
	wb(o.SkipRefine)
	wb(o.SelectMinLatency)
	wb(o.DiversePruning)
	wi(int64(o.MaxPerSide))
	wb(o.UseFlatDME)
	// The partition section is always encoded (zeros when absent): the
	// options change the synthesized tree, so they are part of the result
	// identity. The strategy string is canonicalized to "kd" when empty,
	// and when MaxSinks is 0: partitioning is then off, so no strategy
	// applies.
	wi(int64(o.PartitionMaxSinks))
	strat := o.PartitionStrategy
	if strat == "" || o.PartitionMaxSinks == 0 {
		strat = "kd"
	}
	ws(strat)
	// The corner section is always encoded (count 0 when absent), and
	// names are canonicalized through ByName so "SLOW" and "slow" share
	// an entry. Unresolvable names hash as given; such requests never
	// reach execution (validate rejects them), so no result is stored
	// under those keys.
	wi(int64(len(r.Corners)))
	for _, name := range r.Corners {
		if c, err := corner.ByName(name); err == nil {
			name = c.Name
		}
		ws(name)
	}
	// The delta section is always encoded (zero counts when absent): the
	// job kind already separates /eco from /synthesize, and the explicit
	// counts keep any combination of delta fields prefix-free against the
	// corner and threshold sections around it.
	var dl DeltaSpec
	if r.Delta != nil {
		dl = *r.Delta
	}
	wi(int64(len(dl.Add)))
	for _, p := range dl.Add {
		wf(p.X)
		wf(p.Y)
	}
	wi(int64(len(dl.Move)))
	for _, m := range dl.Move {
		wi(int64(m.Sink))
		wf(m.X)
		wf(m.Y)
	}
	wi(int64(len(dl.Remove)))
	for _, s := range dl.Remove {
		wi(int64(s))
	}
	wi(int64(len(dl.Corners)))
	for _, name := range dl.Corners {
		if c, err := corner.ByName(name); err == nil {
			name = c.Name
		}
		ws(name)
	}
	if kind == KindDSE {
		wi(int64(len(r.Thresholds)))
		for _, th := range r.Thresholds {
			wi(int64(th))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
