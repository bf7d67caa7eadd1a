// Package fault is a deterministic, seedable fault-injection registry: a
// scripted schedule of failures (errors, panics, latency, hangs, cancels,
// cache corruption) attached to named injection points threaded through the
// synthesis flow's phase boundaries, the service queue/cache, and the ECO
// splice path. Tests and the chaos soak (benchgen -load -chaos) use it to
// reproduce failure scenarios exactly; production code holds a nil *Registry
// and every hook is a zero-cost no-op.
//
// Determinism contract: each rule keeps its own call counter, and whether
// call N of a point fires is a pure function of (seed, point, kind, N).
// Under concurrency the ASSIGNMENT of calls to goroutines follows the
// scheduler, but the fire pattern over the call sequence — and therefore
// every aggregate the chaos soak asserts on — is reproducible from the seed.
package fault

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The injection-point catalog (DESIGN.md §5). Points are compile-time
// constants so a typo in a test is a build error, and Parse rejects names
// outside this set so a typo in a chaos spec is a loud failure.
const (
	// PointRoute..PointEval are the monolithic flow's phase boundaries;
	// under partitioning every region's runStages pass consults them too.
	PointRoute  = "core.route"
	PointInsert = "core.insert"
	PointRefine = "core.refine"
	PointEval   = "core.eval"
	// PointStitch is the partitioned pipeline's top-tree merge.
	PointStitch = "core.stitch"
	// PointECO is the incremental re-synthesis (splice) entry.
	PointECO = "core.eco"
	// PointServeJob fires once per job execution, before the flow starts;
	// it accepts every kind including Cancel (the job's context is
	// cancelled) and Hang (the worker sticks, exercising the watchdog).
	PointServeJob = "serve.job"
	// PointServeCache fires once per cache-bound submission; kind Corrupt
	// flips the stored entry's checksum so the integrity check must catch
	// it and fall through to recompute.
	PointServeCache = "serve.cache"
)

// Points lists every registered injection point.
var Points = []string{
	PointRoute, PointInsert, PointRefine, PointEval,
	PointStitch, PointECO, PointServeJob, PointServeCache,
}

// Kind is the failure a rule injects.
type Kind uint8

const (
	// Error makes the point return an error wrapping ErrInjected.
	Error Kind = iota + 1
	// Panic panics with a *PanicValue, exercising recovery paths.
	Panic
	// Delay sleeps for the rule's duration honoring the context: injected
	// latency that a deadline can still cut short.
	Delay
	// Hang sleeps for the rule's duration IGNORING the context: a stuck
	// worker that only a watchdog can reclaim. Durations are bounded, so a
	// hung goroutine always returns eventually (and can be joined).
	Hang
	// Cancel asks the caller to cancel the surrounding work; the serve
	// queue interprets it by cancelling the job's context. Applied inline
	// (Check), it returns an error wrapping context.Canceled.
	Cancel
	// Corrupt asks the caller to corrupt the datum behind the point (the
	// service flips a cached entry's checksum). Inline it is a no-op.
	Corrupt
)

var kindNames = map[Kind]string{
	Error: "error", Panic: "panic", Delay: "delay",
	Hang: "hang", Cancel: "cancel", Corrupt: "corrupt",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind resolves a kind name from a spec entry.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q (want error, panic, delay, hang, cancel or corrupt)", s)
}

// Rule schedules one fault at one point. Exactly one trigger applies: Every
// (deterministic modular schedule) when positive, Rate (seeded per-call
// probability) otherwise.
type Rule struct {
	// Point names the injection point (one of Points).
	Point string
	// Kind is the injected failure.
	Kind Kind
	// Rate is the per-call fire probability in (0, 1]; evaluated from the
	// registry seed, the point, the kind and the call number, so the
	// schedule is reproducible. Ignored when Every is set.
	Rate float64
	// Every fires deterministically on calls After+1, After+1+Every, ...
	// (1 = every armed call).
	Every int
	// After skips the first After calls before the rule arms.
	After int
	// Limit caps the total fires (0 = unlimited). Every=1, Limit=1 is a
	// single targeted fault.
	Limit int
	// Sleep is the Delay/Hang duration; 0 defaults to 50ms.
	Sleep time.Duration
}

func (r Rule) validate() error {
	if !contains(Points, r.Point) {
		return fmt.Errorf("fault: unknown injection point %q", r.Point)
	}
	if _, ok := kindNames[r.Kind]; !ok {
		return fmt.Errorf("fault: rule at %s has invalid kind %d", r.Point, r.Kind)
	}
	if r.Every < 0 || r.After < 0 || r.Limit < 0 {
		return fmt.Errorf("fault: rule %s@%s has negative schedule fields", r.Kind, r.Point)
	}
	if r.Every == 0 && (r.Rate <= 0 || r.Rate > 1) {
		return fmt.Errorf("fault: rule %s@%s needs a rate in (0,1] or every=N, got rate %g", r.Kind, r.Point, r.Rate)
	}
	if r.Sleep < 0 {
		return fmt.Errorf("fault: rule %s@%s has negative sleep", r.Kind, r.Point)
	}
	return nil
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// Fault is one scheduled injection, returned by Fire.
type Fault struct {
	Point string
	Kind  Kind
	// Sleep is the Delay/Hang duration (defaulted, never zero).
	Sleep time.Duration
	// Seq is the per-rule call number that fired, for logs and errors.
	Seq int64
}

// ErrInjected is the sentinel every injected error wraps, so consumers can
// tell scripted failures from organic ones with errors.Is.
var ErrInjected = errors.New("injected fault")

// Err returns the structured error form of the fault.
func (f *Fault) Err() error {
	return fmt.Errorf("fault: %s at %s (call %d): %w", f.Kind, f.Point, f.Seq, ErrInjected)
}

// PanicValue is the value injected panics carry; recovery code can detect it
// by its type.
type PanicValue struct {
	Point string
	Seq   int64
}

func (p *PanicValue) String() string {
	return fmt.Sprintf("injected panic at %s (call %d)", p.Point, p.Seq)
}

// armed is a rule plus its live counters.
type armed struct {
	Rule
	calls atomic.Int64
	fires atomic.Int64
}

// Registry is an armed fault schedule. The zero registry (and a nil
// *Registry) never fires; all methods are safe on a nil receiver and safe
// for concurrent use.
type Registry struct {
	seed    uint64
	rules   []*armed
	byPoint map[string][]*armed
}

// GobEncode serializes a registry as nothing: an armed fault schedule is
// process-local test scaffolding that must never ride into persisted
// snapshots (internal/store gob-encodes structures whose options carry a
// *Registry field). Without an explicit codec, gob would reject the whole
// containing type — Registry has no exported fields.
func (r *Registry) GobEncode() ([]byte, error) { return nil, nil }

// GobDecode restores the empty encoding as an unarmed registry.
func (r *Registry) GobDecode([]byte) error {
	*r = Registry{}
	return nil
}

// New arms a registry with the given seed and rules.
func New(seed int64, rules ...Rule) (*Registry, error) {
	r := &Registry{seed: uint64(seed), byPoint: make(map[string][]*armed)}
	for _, rule := range rules {
		if err := rule.validate(); err != nil {
			return nil, err
		}
		a := &armed{Rule: rule}
		r.rules = append(r.rules, a)
		r.byPoint[rule.Point] = append(r.byPoint[rule.Point], a)
	}
	return r, nil
}

// Parse builds a registry from a compact spec: semicolon- (or comma-)
// separated entries of the form
//
//	kind@point:trigger[:duration]
//
// where trigger is a probability ("0.02"), "every=N", "nth=N" (exactly the
// Nth call) or "once" (the first call only), and duration applies to
// delay/hang kinds. Example:
//
//	panic@serve.job:0.02;delay@core.insert:every=3:30ms;corrupt@serve.cache:once
func Parse(spec string, seed int64) (*Registry, error) {
	var rules []Rule
	for _, entry := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("fault: entry %q: want kind@point:trigger", entry)
		}
		kind, err := ParseKind(kindStr)
		if err != nil {
			return nil, err
		}
		point, args, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("fault: entry %q has no trigger", entry)
		}
		rule := Rule{Point: point, Kind: kind}
		parts := strings.Split(args, ":")
		switch trig := parts[0]; {
		case trig == "once":
			rule.Every, rule.Limit = 1, 1
		case strings.HasPrefix(trig, "every="):
			n, err := strconv.Atoi(trig[len("every="):])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("fault: entry %q: bad every=N", entry)
			}
			rule.Every = n
		case strings.HasPrefix(trig, "nth="):
			n, err := strconv.Atoi(trig[len("nth="):])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("fault: entry %q: bad nth=N", entry)
			}
			rule.After, rule.Every, rule.Limit = n-1, 1, 1
		default:
			rate, err := strconv.ParseFloat(trig, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: entry %q: bad trigger %q", entry, trig)
			}
			rule.Rate = rate
		}
		if len(parts) > 1 {
			d, err := time.ParseDuration(parts[1])
			if err != nil {
				return nil, fmt.Errorf("fault: entry %q: bad duration %q", entry, parts[1])
			}
			rule.Sleep = d
		}
		if len(parts) > 2 {
			return nil, fmt.Errorf("fault: entry %q has trailing fields", entry)
		}
		rules = append(rules, rule)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fault: empty spec")
	}
	return New(seed, rules...)
}

// Enabled reports whether any rule is armed.
func (r *Registry) Enabled() bool { return r != nil && len(r.rules) > 0 }

// Fire evaluates the point's rules for this call and returns the fault to
// inject, or nil. A nil registry always returns nil. When several rules
// share a point, the first that fires wins (each still consumes its call).
func (r *Registry) Fire(point string) *Fault {
	if r == nil {
		return nil
	}
	var hit *Fault
	for _, a := range r.byPoint[point] {
		c := a.calls.Add(1)
		if hit != nil {
			continue // later rules still advance their counters
		}
		if a.After > 0 && c <= int64(a.After) {
			continue
		}
		if a.Limit > 0 && a.fires.Load() >= int64(a.Limit) {
			continue
		}
		var fire bool
		if a.Every > 0 {
			fire = (c-int64(a.After)-1)%int64(a.Every) == 0
		} else {
			fire = u01(r.seed, point, a.Kind, c) < a.Rate
		}
		if !fire {
			continue
		}
		a.fires.Add(1)
		sleep := a.Sleep
		if sleep <= 0 {
			sleep = 50 * time.Millisecond
		}
		hit = &Fault{Point: point, Kind: a.Kind, Sleep: sleep, Seq: c}
	}
	return hit
}

// Check is the inline phase-boundary hook: it fires the point and applies
// the fault generically — Error is returned, Panic panics, Delay/Hang
// sleep. Returns nil when nothing fires (the common, zero-cost case).
func (r *Registry) Check(ctx context.Context, point string) error {
	f := r.Fire(point)
	if f == nil {
		return nil
	}
	return f.Apply(ctx)
}

// Apply executes the fault inline. Cancel degrades to an error wrapping
// context.Canceled (only the service can cancel a real job context), and
// Corrupt is a no-op (only a cache owner can interpret it).
func (f *Fault) Apply(ctx context.Context) error {
	switch f.Kind {
	case Error:
		return f.Err()
	case Panic:
		panic(&PanicValue{Point: f.Point, Seq: f.Seq})
	case Delay:
		t := time.NewTimer(f.Sleep)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case Hang:
		time.Sleep(f.Sleep)
		return nil
	case Cancel:
		return fmt.Errorf("fault: cancel at %s (call %d): %w", f.Point, f.Seq, context.Canceled)
	}
	return nil
}

// Counts snapshots the fires per "kind@point", omitting zeros. Keys are
// sorted into the slice form by CountsList for stable JSON.
func (r *Registry) Counts() map[string]int64 {
	if r == nil {
		return nil
	}
	out := make(map[string]int64)
	for _, a := range r.rules {
		if n := a.fires.Load(); n > 0 {
			out[a.Kind.String()+"@"+a.Point] += n
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// String summarizes the armed rules (for logs and reports).
func (r *Registry) String() string {
	if r == nil || len(r.rules) == 0 {
		return "fault: disabled"
	}
	parts := make([]string, 0, len(r.rules))
	for _, a := range r.rules {
		var trig string
		switch {
		case a.Every == 1 && a.Limit == 1 && a.After == 0:
			trig = "once"
		case a.Every == 1 && a.Limit == 1:
			trig = fmt.Sprintf("nth=%d", a.After+1)
		case a.Every > 0:
			trig = fmt.Sprintf("every=%d", a.Every)
			// After/Limit on an every= rule aren't expressible in the
			// Parse grammar (only hand-built rules reach here); annotate
			// so the log still states the real schedule.
			if a.After > 0 {
				trig += fmt.Sprintf("+after=%d", a.After)
			}
			if a.Limit > 0 {
				trig += fmt.Sprintf("+limit=%d", a.Limit)
			}
		default:
			trig = fmt.Sprintf("%g", a.Rate)
		}
		s := fmt.Sprintf("%s@%s:%s", a.Kind, a.Point, trig)
		if a.Kind == Delay || a.Kind == Hang {
			sleep := a.Sleep
			if sleep <= 0 {
				sleep = 50 * time.Millisecond // the Fire-time default
			}
			s += fmt.Sprintf(":%s", sleep)
		}
		parts = append(parts, s)
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// u01 maps (seed, point, kind, call) to a uniform [0,1) value: FNV over the
// point name mixed with the call number through splitmix64.
func u01(seed uint64, point string, kind Kind, call int64) float64 {
	h := fnv.New64a()
	io.WriteString(h, point)
	x := seed ^ h.Sum64() ^ uint64(call)*0x9e3779b97f4a7c15 ^ uint64(kind)<<56
	x = splitmix64(x)
	return float64(x>>11) / (1 << 53)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
