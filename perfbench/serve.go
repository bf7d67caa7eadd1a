package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dscts/internal/bench"
	"dscts/internal/core"
	"dscts/internal/corner"
	"dscts/internal/eco"
	"dscts/internal/geom"
	"dscts/internal/serve"
	"dscts/internal/store"
	"dscts/internal/tech"
)

// The serve-mixed workload: an in-process dsctsd serving real HTTP over
// loopback, with the disk tier in a directory under the run's output, one
// running slot and a two-worker budget. Two closed-loop clients send a
// seeded stream in blocks of seven: four repeats of earlier requests (cache
// hits), two fresh C1/C4/C5 syntheses over varied seeds, fanout thresholds
// and corner sets (misses), and one /eco 1% move delta against a C3 base
// that the base LRU keeps. The stream's first op is an ECO; it is the
// set-up's warm-up, so the base is resident before the timed phase.

const (
	serveClients = 2
	serveBlocks  = 1000 // blocks of seven ops; several times what a run completes
	// repeatWindow bounds how far back a repeat reaches, so every repeated
	// request is still in the result cache.
	repeatWindow = 60
	// qualityOps is the stream prefix whose distinct results give the
	// quality metrics, so they do not depend on how far a run gets: 48
	// blocks, so 96 misses (eight cycles of design and fanout threshold) and
	// 48 ECOs.
	qualityOps = 48 * 7
)

// serveOp is one request of the stream.
type serveOp struct {
	Kind string `json:"kind"`
	// Class is what the stream intends: "hit" (a repeat), "miss" or "eco".
	Class string `json:"class"`
	// Of is the op a hit repeats.
	Of  int           `json:"of,omitempty"`
	Req serve.Request `json:"req"`
}

// serveStream is the generated op list and the C3 base it edits.
type serveStream struct {
	ops  []serveOp
	base *bench.Placement
}

func serveOps(seed int64) (*serveStream, error) {
	rng := rand.New(rand.NewSource(seed))
	c3, err := bench.ByID("C3")
	if err != nil {
		return nil, err
	}
	// The ECO base is the golden C3 placement for every workload seed, so
	// the base is the same resident outcome across runs; the deltas vary.
	const baseSeed = 1
	base, err := bench.Generate(c3, baseSeed)
	if err != nil {
		return nil, err
	}
	order := spatialOrder(base.Sinks)
	moved := len(base.Sinks) / 100
	round := func(x float64) float64 { return math.Round(x*1000) / 1000 }
	newECO := func() serveOp {
		start := rng.Intn(len(order) - moved)
		moves := make([]serve.MoveSpec, moved)
		for k := range moves {
			i := order[start+k]
			s := base.Sinks[i]
			moves[k] = serve.MoveSpec{Sink: i, X: round(s.X + 4*rng.Float64() - 2), Y: round(s.Y + 4*rng.Float64() - 2)}
		}
		return serveOp{Kind: serve.KindECO, Class: "eco", Req: serve.Request{
			Design: "C3", Seed: baseSeed, Delta: &serve.DeltaSpec{Move: moves},
		}}
	}
	// Misses cycle through every design, fanout threshold and corner set
	// combination, so every seed sends the same mix; only the placement
	// seeds are drawn.
	designs := []string{"C1", "C4", "C5"}
	fanouts := []int{0, 8, 32, 128}
	cornerSets := [][]string{nil, {"typ"}, {"slow", "fast"}, {"slow", "typ", "fast"}}
	misses := 0
	newMiss := func() serveOp {
		k := misses
		misses++
		return serveOp{Kind: serve.KindSynthesize, Class: "miss", Req: serve.Request{
			Design:  designs[k%len(designs)],
			Seed:    2 + rng.Int63n(1<<40),
			Options: serve.OptionsSpec{FanoutThreshold: fanouts[k/len(designs)%len(fanouts)]},
			Corners: cornerSets[k/(len(designs)*len(fanouts))%len(cornerSets)],
		}}
	}
	ops := []serveOp{newECO()}
	block := []string{"hit", "hit", "hit", "hit", "miss", "miss", "eco"}
	for b := 0; b < serveBlocks; b++ {
		rng.Shuffle(len(block), func(x, y int) { block[x], block[y] = block[y], block[x] })
		for _, class := range block {
			i := len(ops)
			switch class {
			case "miss":
				ops = append(ops, newMiss())
			case "eco":
				ops = append(ops, newECO())
			default:
				// With two clients taking ops in order, every op at
				// least two places back has finished when op i starts.
				var originals []int
				for j := max(0, i-repeatWindow); j <= i-2; j++ {
					if ops[j].Class != "hit" {
						originals = append(originals, j)
					}
				}
				of := 0
				if len(originals) > 0 {
					of = originals[rng.Intn(len(originals))]
				}
				ops = append(ops, serveOp{Kind: ops[of].Kind, Class: "hit", Of: of, Req: ops[of].Req})
			}
		}
	}
	return &serveStream{ops: ops, base: base}, nil
}

// spatialOrder sorts sink indices along a Z-order curve, so a window of
// consecutive entries is a spatially compact group.
func spatialOrder(sinks []geom.Point) []int {
	bb := geom.NewBBox(sinks...)
	cell := func(v, lo, hi float64) uint32 {
		if hi <= lo {
			return 0
		}
		return uint32(math.Min(1023, (v-lo)/(hi-lo)*1024))
	}
	key := make([]uint32, len(sinks))
	for i, s := range sinks {
		x, y := cell(s.X, bb.MinX, bb.MaxX), cell(s.Y, bb.MinY, bb.MaxY)
		for b := 0; b < 10; b++ {
			key[i] |= (x>>b&1)<<(2*b) | (y>>b&1)<<(2*b+1)
		}
	}
	order := make([]int, len(sinks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return key[order[a]] < key[order[b]] })
	return order
}

// daemon is one in-process dsctsd: queue, store and loopback listener.
type daemon struct {
	srv  *serve.Server
	st   *store.Store
	hs   *http.Server
	url  string
	done chan struct{}
}

func bootDaemon(dir string) (*daemon, error) {
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{MaxRunning: 1, Workers: libWorkers, Store: st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		st.Close()
		return nil, err
	}
	d := &daemon{
		srv: srv, st: st, hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url: "http://" + ln.Addr().String(), done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return d, nil
}

// close stops the listener, the queue and the store, in that order, and
// waits for each.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.done
	d.srv.Close()
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// sample is one completed request as the client saw it.
type sample struct {
	op                  int
	start, end          time.Time
	encode, rtt, decode time.Duration
	key                 time.Duration
	status              int
	info                serve.JobInfo
	err                 error
}

func (s *sample) latencyMS() float64 { return ms(s.end.Sub(s.start)) }

// client sends one op over HTTP and times encode, round trip and decode.
type client struct {
	hc    *http.Client
	url   string
	trace bool
}

func (c *client) do(ctx context.Context, i int, op serveOp) (s sample) {
	s = sample{op: i, start: time.Now()}
	defer func() { s.end = time.Now() }()
	if c.trace {
		k0 := time.Now()
		op.Req.Key(op.Kind)
		s.key = time.Since(k0)
	}
	t0 := time.Now()
	body, err := json.Marshal(op.Req)
	s.encode = time.Since(t0)
	if err != nil {
		s.err = err
		return s
	}
	path := "/synthesize"
	if op.Kind == serve.KindECO {
		path = "/eco"
	}
	t1 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.rtt = time.Since(t1)
	s.status = resp.StatusCode
	if err != nil {
		s.err = err
		return s
	}
	t2 := time.Now()
	err = json.Unmarshal(data, &s.info)
	s.decode = time.Since(t2)
	if err != nil {
		s.err = fmt.Errorf("decoding response: %w", err)
	}
	return s
}

func runServe(cfg config) (*report, error) {
	stream, err := serveOps(cfg.seed)
	if err != nil {
		return nil, err
	}
	ops := stream.ops
	fp, err := fingerprint(cfg.workload, struct {
		Ops     []serveOp `json:"ops"`
		Clients int       `json:"clients"`
		Daemon  string    `json:"daemon"`
	}{ops, serveClients, "max_running=1 workers=2 store=on"})
	if err != nil {
		return nil, err
	}
	rep := newReport(cfg, fp)
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients}}
	defer hc.CloseIdleConnections()
	ctx := context.Background()

	// Set-up, several times: generate the stream, boot a daemon over a
	// fresh store directory, and run the warm-up op. Only the last daemon
	// serves the timed phase.
	storeRoot := filepath.Join(cfg.outDir, fmt.Sprintf("store-%s-seed%d", cfg.workload, cfg.seed))
	if err := os.RemoveAll(storeRoot); err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeRoot)
	var d *daemon
	var setups, gens []float64
	var warm []sample
	for r := 0; r < setupReps; r++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if _, err := serveOps(cfg.seed); err != nil {
			return nil, err
		}
		gens = append(gens, msSince(t0))
		if d, err = bootDaemon(filepath.Join(storeRoot, fmt.Sprint(r))); err != nil {
			return nil, err
		}
		c := &client{hc: hc, url: d.url}
		s := c.do(ctx, 0, ops[0])
		if s.err != nil || s.info.State != serve.StateDone {
			d.close()
			return nil, fmt.Errorf("warm-up: status %d state %s error %v %s", s.status, s.info.State, s.err, s.info.Error)
		}
		setups = append(setups, time.Since(t0).Seconds())
		warm = append(warm, s)
	}
	defer d.close()
	rep.Metrics["setup_s"] = median(setups)
	rep.Metrics["bench.gen_ms"] = median(gens)

	// Timed phase: two closed-loop clients take ops in stream order until
	// the deadline, and at least until the quality prefix has been sent.
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var next atomic.Int64
	next.Store(1)
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	ph := startPhase()
	start := time.Now()
	deadline := start.Add(cfg.duration)
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{hc: hc, url: d.url, trace: cfg.trace}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || i > qualityOps && !time.Now().Before(deadline) {
					return
				}
				s := c.do(ctx, i, ops[i])
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	ph.stop()
	var stats serve.Stats
	if err := getJSON(hc, d.url+"/stats", &stats); err != nil {
		return nil, err
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a].op < samples[b].op })
	if int(next.Load()) > len(ops) {
		rep.note("the stream ran out: all %d ops completed before the deadline", len(ops)-1)
	}

	// Correctness, untimed.
	chk, err := newServeChecker(stream)
	if err != nil {
		return nil, err
	}
	all := append(warm, samples...)
	chk.prepare(ops, all)
	for _, s := range all {
		if err := chk.check(ops[s.op], s); err != nil {
			rep.fail("op %d (%s): %v", s.op, ops[s.op].Class, err)
		}
	}
	rep.Attempted = len(samples)

	var q quality
	var lat, hitLat, missLat, ecoLat, doneAt []float64
	for _, s := range samples {
		if s.err != nil || s.info.Result == nil {
			continue
		}
		lat = append(lat, s.latencyMS())
		doneAt = append(doneAt, s.end.Sub(start).Seconds())
		switch {
		case s.info.CacheHit:
			hitLat = append(hitLat, s.latencyMS())
		case s.info.Kind == serve.KindECO:
			ecoLat = append(ecoLat, s.latencyMS())
		default:
			missLat = append(missLat, s.latencyMS())
		}
		if s.op <= qualityOps && !s.info.CacheHit && s.info.Result.Metrics != nil {
			q.add(s.info.Result.Metrics)
		}
	}
	if err := q.into(rep.Metrics); err != nil {
		return nil, err
	}
	// A window is two blocks of the stream.
	sort.Float64s(doneAt)
	rep.Metrics["ops_per_s"] = windowRate(doneAt, 14)
	rep.Metrics["op_p50_ms"] = median(lat)
	ph.into(rep.Metrics, len(lat))
	rep.latencyNotes("op latency", lat)
	rep.OpMS = lat
	rep.latencyNotes("hit latency", hitLat)
	rep.latencyNotes("miss latency", missLat)
	rep.latencyNotes("eco latency", ecoLat)
	rep.note("served %d hits, %d misses, %d ecos in %.3g s", len(hitLat), len(missLat), len(ecoLat), wall.Seconds())

	if cfg.trace {
		rep.Metrics["serve.hit_p50_ms"] = median(hitLat)
		rep.Metrics["trace.ops_per_s"] = rep.Metrics["ops_per_s"]
		serveLayers(rep.Metrics, tr, samples, &stats)
		spans := tr.snapshot()
		rep.Metrics["trace.coverage"] = coverage(spans)
		if err := writeTrace(cfg, spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// phaseLayer maps the engine phases a result reports to layer names.
var phaseLayer = map[string]string{
	"route": "route", "insert": "insert", "refine": "refine", "eval": "eval",
	"corners": "corner", "eco": "eco", "partition": "partition", "stitch": "stitch",
}

// serveLayers records each request's spans and derives the per-layer
// metrics. The client's encode, round-trip and decode spans are measured;
// inside the round trip, the server-reported queue wait, run time and
// engine phases are laid end to end from the round trip's start, since the
// response gives their lengths but not their start times. Hits report the
// phases of the run that produced them and did no engine work, so their
// phases are skipped.
func serveLayers(out map[string]float64, tr *tracer, samples []sample, stats *serve.Stats) {
	var t tally
	ecoOps := 0
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		root := tr.record(s.op, 0, "op", s.start, s.end)
		enc0 := s.start.Add(s.key)
		tr.record(s.op, root, "serve.key", s.start, enc0)
		tr.record(s.op, root, "serve.encode", enc0, enc0.Add(s.encode))
		rtt0 := enc0.Add(s.encode)
		rtt := tr.record(s.op, root, "serve.rtt", rtt0, rtt0.Add(s.rtt))
		tr.record(s.op, root, "serve.decode", rtt0.Add(s.rtt), rtt0.Add(s.rtt+s.decode))
		queue := dur(s.info.QueueMS)
		run := dur(s.info.RunMS)
		tr.record(s.op, rtt, "serve.queue", rtt0, rtt0.Add(queue))
		runSpan := tr.record(s.op, rtt, "serve.run", rtt0.Add(queue), rtt0.Add(queue+run))
		t.add("serve.key_us", float64(s.key)/1e3)
		t.add("serve.codec_us", float64(s.encode+s.decode)/1e3)
		t.add("serve.overhead_ms", ms(s.rtt)-s.info.QueueMS-s.info.RunMS)
		t.add("serve.queue_ms", s.info.QueueMS)
		t.add("serve.run_ms", s.info.RunMS)
		res := s.info.Result
		if s.info.CacheHit || res == nil {
			continue
		}
		at := rtt0.Add(queue)
		for _, ph := range res.Phases {
			layer, ok := phaseLayer[ph.Phase]
			if !ok {
				continue
			}
			d := dur(ph.MS)
			tr.record(s.op, runSpan, layer, at, at.Add(d))
			at = at.Add(d)
			t.add(layer+".self_ms", ph.MS)
			switch layer {
			case "eval":
				t.add("eval.calls", float64(ph.Count))
			case "corner":
				t.add("corner.count", float64(ph.Points))
			}
		}
		if e := res.ECO; e != nil && e.TotalScopes > 0 {
			ecoOps++
			t.add("eco.dirty", float64(e.DirtyScopes)/float64(e.TotalScopes))
			t.add("eco.reused", float64(e.ReusedSinks)/float64(max(res.Sinks, 1)))
		}
	}
	t.perOp(out, len(samples))
	delete(out, "eco.dirty")
	delete(out, "eco.reused")
	if ecoOps > 0 {
		out["eco.dirty_frac"] = t.get("eco.dirty") / float64(ecoOps)
		out["eco.reused_sink_frac"] = t.get("eco.reused") / float64(ecoOps)
	}
	ratio := func(hit, miss int64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	out["serve.hit_ratio"] = ratio(stats.Cache.Hits, stats.Cache.Misses)
	out["serve.base_hit_ratio"] = ratio(stats.ECOBases.Hits, stats.ECOBases.Misses)
	out["serve.rejected"] = float64(stats.Jobs.Rejected)
	if stats.Store != nil {
		out["store.writes"] = float64(stats.Store.Writes)
		out["store.dropped"] = float64(stats.Store.Dropped)
	}
}

func dur(msec float64) time.Duration { return time.Duration(msec * float64(time.Millisecond)) }

// serveChecker holds the references served results are checked against.
type serveChecker struct {
	stream *serveStream
	tc     *tech.Tech
	base   *core.Outcome // the C3 base, synthesized directly with ECO state
	refs   map[string]reference
}

// reference is the expected result of one distinct request: the metrics
// followed by the per-corner metrics.
type reference struct {
	want []digest
	err  error
}

// checkWorkers is how many references are computed at once, each at one
// worker; results do not depend on the worker count.
const checkWorkers = 2

func newServeChecker(stream *serveStream) (*serveChecker, error) {
	tc := tech.ASAP7()
	base, err := core.Synthesize(stream.base.Root, stream.base.Sinks, tc, core.Options{Workers: libWorkers, RetainECO: true})
	if err != nil {
		return nil, fmt.Errorf("reference base: %w", err)
	}
	return &serveChecker{stream: stream, tc: tc, base: base, refs: make(map[string]reference)}, nil
}

// prepare computes the reference of every distinct request the samples
// completed, on checkWorkers goroutines.
func (c *serveChecker) prepare(ops []serveOp, samples []sample) {
	var keys []string
	todo := make(map[string]serveOp)
	for _, s := range samples {
		op := ops[s.op]
		k := op.Req.Key(op.Kind)
		if _, ok := todo[k]; !ok {
			todo[k] = op
			keys = append(keys, k)
		}
	}
	refs := make([]reference, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < checkWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(keys); i = int(next.Add(1) - 1) {
				op := todo[keys[i]]
				if op.Kind == serve.KindECO {
					refs[i].want, refs[i].err = c.ecoReference(op.Req)
				} else {
					refs[i].want, refs[i].err = c.synthReference(op.Req)
				}
			}
		}()
	}
	wg.Wait()
	for i, k := range keys {
		c.refs[k] = refs[i]
	}
}

// check verifies one served result: a synthesis (hit or miss) must be
// bit-identical to a direct core.Synthesize of the same resolved inputs,
// an ECO bit-identical to a direct core.SynthesizeECO on a directly
// synthesized base and within core's ECO tolerances of a full synthesis of
// the post-delta placement.
func (c *serveChecker) check(op serveOp, s sample) error {
	switch {
	case s.err != nil:
		return s.err
	case s.status != http.StatusOK || s.info.State != serve.StateDone || s.info.Result == nil || s.info.Result.Metrics == nil:
		return fmt.Errorf("status %d state %s: %s", s.status, s.info.State, s.info.Error)
	}
	ref, ok := c.refs[op.Req.Key(op.Kind)]
	switch {
	case !ok:
		return fmt.Errorf("no reference computed")
	case ref.err != nil:
		return ref.err
	}
	got := []digest{digestOf(s.info.Result.Metrics, false)}
	if r := s.info.Result.Corners; r != nil {
		for _, cr := range r.Results {
			got = append(got, digestOf(cr.Metrics, false))
		}
	}
	if len(got) != len(ref.want) {
		return fmt.Errorf("%d results (metrics and corners), direct run has %d", len(got), len(ref.want))
	}
	for i := range got {
		if got[i] != ref.want[i] {
			return fmt.Errorf("served %+v, direct run %+v", got[i], ref.want[i])
		}
	}
	return nil
}

// synthReference resolves a synthesis request the way the daemon does and
// runs it directly.
func (c *serveChecker) synthReference(req serve.Request) ([]digest, error) {
	d, err := bench.ByID(req.Design)
	if err != nil {
		return nil, err
	}
	p, err := bench.Generate(d, req.Seed)
	if err != nil {
		return nil, err
	}
	opt := core.Options{Workers: 1, FanoutThreshold: req.Options.FanoutThreshold}
	if len(req.Corners) > 0 {
		if opt.Corners, err = corner.ParseList(strings.Join(req.Corners, ",")); err != nil {
			return nil, err
		}
	}
	out, err := core.Synthesize(p.Root, p.Sinks, c.tc, opt)
	if err != nil {
		return nil, err
	}
	ds := []digest{digestOf(out.Metrics, false)}
	if out.Corners != nil {
		for _, cr := range out.Corners.Results {
			ds = append(ds, digestOf(cr.Metrics, false))
		}
	}
	return ds, nil
}

// Core's pinned ECO-versus-full tolerances (relative).
const (
	ecoTolLatency = 0.15
	ecoTolWL      = 0.10
	ecoTolBuffers = 0.15
)

func (c *serveChecker) ecoReference(req serve.Request) ([]digest, error) {
	var d eco.Delta
	for _, m := range req.Delta.Move {
		d.Move = append(d.Move, eco.Move{Sink: m.Sink, To: geom.Pt(m.X, m.Y)})
	}
	out, err := core.SynthesizeECO(c.base, d, core.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	sinks, _ := eco.Apply(c.stream.base.Sinks, d)
	full, err := core.Synthesize(c.stream.base.Root, sinks, c.tc, core.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b)) }
	e, f := out.Metrics, full.Metrics
	if rel(e.Latency, f.Latency) > ecoTolLatency || rel(e.WL, f.WL) > ecoTolWL ||
		rel(float64(e.Buffers), float64(f.Buffers)) > ecoTolBuffers {
		return nil, fmt.Errorf("eco result (lat %.4g wl %.4g buf %d) outside tolerance of full synthesis (lat %.4g wl %.4g buf %d)",
			e.Latency, e.WL, e.Buffers, f.Latency, f.WL, f.Buffers)
	}
	return []digest{digestOf(out.Metrics, false)}, nil
}
