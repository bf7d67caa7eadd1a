package fault

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRegistryNoOp: a nil *Registry is the production configuration; every
// method must be a safe no-op.
func TestNilRegistryNoOp(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Error("nil registry reports enabled")
	}
	if f := r.Fire(PointRoute); f != nil {
		t.Errorf("nil registry fired %v", f)
	}
	if err := r.Check(context.Background(), PointServeJob); err != nil {
		t.Errorf("nil registry Check returned %v", err)
	}
	if c := r.Counts(); c != nil {
		t.Errorf("nil registry Counts = %v", c)
	}
	if n := r.TotalFires(); n != 0 {
		t.Errorf("nil registry TotalFires = %d", n)
	}
	if s := r.String(); s != "fault: disabled" {
		t.Errorf("nil registry String = %q", s)
	}
}

// TestStringRoundTrip: the armed-schedule log line must state the real
// schedule — each spec entry renders back to itself (sorted, with the
// delay/hang duration made explicit), and re-parsing the rendering arms
// an equivalent registry.
func TestStringRoundTrip(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"panic@serve.job:nth=1", "panic@serve.job:once"},
		{"panic@serve.job:nth=7", "panic@serve.job:nth=7"},
		{"error@core.route:once", "error@core.route:once"},
		{"error@core.route:every=3", "error@core.route:every=3"},
		{"corrupt@serve.cache:0.25", "corrupt@serve.cache:0.25"},
		{"delay@core.insert:every=2:30ms", "delay@core.insert:every=2:30ms"},
		{"delay@core.insert:0.5", "delay@core.insert:0.5:50ms"}, // default duration shown
		{"hang@serve.job:nth=2:3s", "hang@serve.job:nth=2:3s"},
		{
			"panic@serve.job:0.02;delay@core.insert:every=3:30ms;corrupt@serve.cache:once",
			"corrupt@serve.cache:once;delay@core.insert:every=3:30ms;panic@serve.job:0.02",
		},
	}
	for _, tc := range cases {
		r, err := Parse(tc.spec, 1)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.spec, err)
		}
		got := r.String()
		if got != tc.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.spec, got, tc.want)
		}
		if _, err := Parse(got, 1); err != nil {
			t.Errorf("String() output %q does not re-parse: %v", got, err)
		}
	}
}

// TestDeterministicSchedule: the fire pattern over the call sequence is a
// pure function of the seed — two registries with the same seed and rules
// agree call for call, and a different seed produces a different pattern.
func TestDeterministicSchedule(t *testing.T) {
	const calls = 4096
	pattern := func(seed int64) []bool {
		r, err := New(seed, Rule{Point: PointRoute, Kind: Error, Rate: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, calls)
		for i := range out {
			out[i] = r.Fire(PointRoute) != nil
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
		if a[i] {
			fires++
		}
	}
	// At rate 0.1 over 4096 calls the expected fire count is ~410; a wide
	// band catches a broken u01 without being flaky.
	if fires < 250 || fires > 600 {
		t.Errorf("rate 0.1 fired %d/%d times, outside plausible band", fires, calls)
	}
	c := pattern(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == calls {
		t.Error("different seeds produced an identical schedule")
	}
}

// TestEverySchedule covers the modular trigger forms: every=N, After, and
// Limit, plus the once/nth shorthand semantics.
func TestEverySchedule(t *testing.T) {
	r, err := New(0,
		Rule{Point: PointInsert, Kind: Error, Every: 3},
		Rule{Point: PointRefine, Kind: Error, Every: 1, After: 2, Limit: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	var insertFires []int
	for i := 1; i <= 9; i++ {
		if r.Fire(PointInsert) != nil {
			insertFires = append(insertFires, i)
		}
	}
	want := []int{1, 4, 7}
	if len(insertFires) != len(want) {
		t.Fatalf("every=3 fired on calls %v, want %v", insertFires, want)
	}
	for i := range want {
		if insertFires[i] != want[i] {
			t.Fatalf("every=3 fired on calls %v, want %v", insertFires, want)
		}
	}
	var refineFires []int
	for i := 1; i <= 6; i++ {
		if r.Fire(PointRefine) != nil {
			refineFires = append(refineFires, i)
		}
	}
	// After=2 skips calls 1-2; Limit=2 caps it at calls 3 and 4.
	if len(refineFires) != 2 || refineFires[0] != 3 || refineFires[1] != 4 {
		t.Fatalf("after=2 limit=2 fired on calls %v, want [3 4]", refineFires)
	}
	if got := r.TotalFires(); got != 5 {
		t.Errorf("TotalFires = %d, want 5", got)
	}
	counts := r.Counts()
	if counts["error@core.insert"] != 3 || counts["error@core.refine"] != 2 {
		t.Errorf("Counts = %v", counts)
	}
}

// TestParse exercises the spec grammar, including every error path.
func TestParse(t *testing.T) {
	r, err := Parse("panic@serve.job:0.02; delay@core.insert:every=3:30ms, corrupt@serve.cache:once;error@core.route:nth=5", 7)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Enabled() {
		t.Fatal("parsed registry not enabled")
	}
	if len(r.rules) != 4 {
		t.Fatalf("parsed %d rules, want 4", len(r.rules))
	}
	onceRule := r.rules[2]
	if onceRule.Every != 1 || onceRule.Limit != 1 {
		t.Errorf("once parsed as %+v", onceRule.Rule)
	}
	nth := r.rules[3]
	if nth.After != 4 || nth.Every != 1 || nth.Limit != 1 {
		t.Errorf("nth=5 parsed as %+v", nth.Rule)
	}
	if r.rules[1].Sleep != 30*time.Millisecond {
		t.Errorf("duration parsed as %v", r.rules[1].Sleep)
	}

	bad := []string{
		"",                             // empty spec
		"panic",                        // no @
		"panic@serve.job",              // no trigger
		"frobnicate@serve.job:0.5",     // unknown kind
		"panic@serve.elsewhere:0.5",    // unknown point
		"panic@serve.job:every=0",      // bad every
		"panic@serve.job:nth=0",        // bad nth
		"panic@serve.job:lots",         // bad rate
		"panic@serve.job:2.0",          // rate out of range
		"delay@core.insert:0.5:soon",   // bad duration
		"delay@core.insert:0.5:1s:huh", // trailing fields
	}
	for _, spec := range bad {
		if _, err := Parse(spec, 0); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", spec)
		}
	}
}

// TestApplyKinds checks every kind's inline behavior.
func TestApplyKinds(t *testing.T) {
	f := &Fault{Point: PointEval, Kind: Error, Seq: 3, Sleep: time.Millisecond}
	if err := f.Apply(context.Background()); !errors.Is(err, ErrInjected) {
		t.Errorf("Error kind returned %v, want ErrInjected", err)
	}
	if !strings.Contains(f.Err().Error(), PointEval) {
		t.Errorf("injected error %q does not name its point", f.Err())
	}

	func() {
		defer func() {
			v := recover()
			if !IsInjectedPanic(v) {
				t.Errorf("Panic kind recovered %v, not a *PanicValue", v)
			}
		}()
		(&Fault{Point: PointEval, Kind: Panic, Seq: 1}).Apply(context.Background())
		t.Error("Panic kind did not panic")
	}()

	// Delay honors cancellation: a long sleep under a cancelled context
	// returns the context error immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := (&Fault{Kind: Delay, Sleep: time.Minute}).Apply(ctx)
	if !errors.Is(err, context.Canceled) || time.Since(start) > time.Second {
		t.Errorf("Delay under cancelled ctx: err=%v after %v", err, time.Since(start))
	}

	// Hang ignores cancellation but is bounded by its duration.
	start = time.Now()
	if err := (&Fault{Kind: Hang, Sleep: 20 * time.Millisecond}).Apply(ctx); err != nil {
		t.Errorf("Hang returned %v", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Error("Hang returned before its duration despite cancelled ctx")
	}

	if err := (&Fault{Kind: Cancel, Seq: 2}).Apply(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("Cancel kind returned %v, want context.Canceled wrap", err)
	}
	if err := (&Fault{Kind: Corrupt}).Apply(context.Background()); err != nil {
		t.Errorf("Corrupt inline returned %v, want nil no-op", err)
	}
}

// TestFirstRuleWins: with several rules at one point, the first firing rule
// wins but later rules still consume their call.
func TestFirstRuleWins(t *testing.T) {
	r, err := New(0,
		Rule{Point: PointECO, Kind: Error, Every: 2}, // calls 1,3,5...
		Rule{Point: PointECO, Kind: Delay, Every: 1}, // every call
	)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]Kind, 0, 4)
	for i := 0; i < 4; i++ {
		kinds = append(kinds, r.Fire(PointECO).Kind)
	}
	wantKinds := []Kind{Error, Delay, Error, Delay}
	for i, k := range wantKinds {
		if kinds[i] != k {
			t.Fatalf("fired kinds %v, want %v", kinds, wantKinds)
		}
	}
	// The delay rule's counter advanced on every call even when error won.
	if got := r.Counts()["delay@core.eco"]; got != 2 {
		t.Errorf("delay fired %d times, want 2", got)
	}
}

// TestConcurrentFire: firing from many goroutines is race-free and the total
// fire count matches the modular schedule exactly.
func TestConcurrentFire(t *testing.T) {
	r, err := New(0, Rule{Point: PointServeJob, Kind: Error, Every: 4})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Fire(PointServeJob)
			}
		}()
	}
	wg.Wait()
	if got, want := r.TotalFires(), int64(workers*per/4); got != want {
		t.Errorf("every=4 over %d calls fired %d times, want %d", workers*per, got, want)
	}
}

// TestRuleValidation rejects malformed rules at construction.
func TestRuleValidation(t *testing.T) {
	bad := []Rule{
		{Point: "nope", Kind: Error, Rate: 0.5},
		{Point: PointRoute, Kind: 0, Rate: 0.5},
		{Point: PointRoute, Kind: Error},            // no trigger at all
		{Point: PointRoute, Kind: Error, Rate: 1.5}, // rate out of range
		{Point: PointRoute, Kind: Error, Every: -1},
		{Point: PointRoute, Kind: Error, Every: 1, Sleep: -time.Second},
	}
	for i, rule := range bad {
		if _, err := New(0, rule); err == nil {
			t.Errorf("rule %d (%+v) accepted", i, rule)
		}
	}
}

// IsInjectedPanic reports whether a recovered value came from this package.
func IsInjectedPanic(v any) bool {
	_, ok := v.(*PanicValue)
	return ok
}

// TotalFires is the number of injections so far.
func (r *Registry) TotalFires() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for _, a := range r.rules {
		n += a.fires.Load()
	}
	return n
}
