package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"dscts/internal/core"
	"dscts/internal/dse"
)

// TestRequestKeyDefaultSpellings pins that option spellings the engine
// treats alike share one cache key, and that they really do produce
// identical results: a shared key is only sound if the results are equal.
func TestRequestKeyDefaultSpellings(t *testing.T) {
	req := func(o OptionsSpec) *Request { return &Request{Design: "C1", Options: o} }
	dseReq := func(o OptionsSpec) *Request { return &Request{Design: "C1", Options: o, Thresholds: []int{8, 40}} }
	// run executes the job body the request resolves to.
	run := func(r *Request, kind string) any {
		t.Helper()
		rv, err := r.resolve(kind)
		if err != nil {
			t.Fatal(err)
		}
		if kind == KindDSE {
			pts, err := dse.SweepFanoutContext(context.Background(), rv.root, rv.sinks, rv.tc, r.Thresholds, rv.opt)
			if err != nil {
				t.Fatal(err)
			}
			return pts
		}
		o, err := core.Synthesize(rv.root, rv.sinks, rv.tc, rv.opt)
		if err != nil {
			t.Fatal(err)
		}
		return []any{o.Tree.Nodes, o.Metrics}
	}
	ref := req(OptionsSpec{})
	single := req(OptionsSpec{Mode: "single"})
	for _, c := range []struct {
		kind     string
		ref, alt *Request
	}{
		{KindSynthesize, ref, req(OptionsSpec{Mode: "double"})},
		{KindSynthesize, ref, req(OptionsSpec{Alpha: 1, Beta: 10, Gamma: 1})},
		{KindSynthesize, ref, req(OptionsSpec{MaxPerSide: -3})},
		{KindSynthesize, ref, req(OptionsSpec{MaxPerSide: 48})},
		{KindSynthesize, ref, req(OptionsSpec{FanoutThreshold: -1})},
		// Single-side synthesis ignores the fanout threshold.
		{KindSynthesize, single, req(OptionsSpec{Mode: "single", FanoutThreshold: 8})},
		// With partitioning off, no strategy applies.
		{KindSynthesize, ref, req(OptionsSpec{PartitionStrategy: "grid"})},
		// A DSE sweep overwrites the fanout threshold at every point.
		{KindDSE, dseReq(OptionsSpec{}), dseReq(OptionsSpec{FanoutThreshold: 20})},
	} {
		if c.alt.Key(c.kind) != c.ref.Key(c.kind) {
			t.Errorf("%s %+v: key differs from %+v", c.kind, c.alt.Options, c.ref.Options)
			continue
		}
		if !reflect.DeepEqual(run(c.alt, c.kind), run(c.ref, c.kind)) {
			t.Errorf("%s %+v: shares the key of %+v but produces a different result", c.kind, c.alt.Options, c.ref.Options)
		}
	}
	if req(OptionsSpec{Alpha: 2, Beta: 10, Gamma: 1}).Key(KindSynthesize) == ref.Key(KindSynthesize) {
		t.Error("weights 2/10/1 share the default key")
	}
}

// keyExcluded lists the Request fields that are not part of the result
// identity: scheduling knobs, the response shape and the request ID.
var keyExcluded = map[string]bool{
	"IncludeSinkDelays": true,
	"TimeoutMS":         true,
	"Tenant":            true,
	"Class":             true,
	"IdempotencyKey":    true,
	"reqID":             true,
}

// TestKeyCoversEveryField walks every field of Request, OptionsSpec and
// DeltaSpec by reflection. A field on keyExcluded must leave Key unchanged;
// every other field must change Key when set to a non-default value, on
// the request form where it applies. A field added later and left out of
// the key fails here instead of serving wrong cached results.
func TestKeyCoversEveryField(t *testing.T) {
	type form struct {
		name, kind string
		req        func() *Request
	}
	forms := map[string]form{
		"design":   {"design", KindSynthesize, func() *Request { return &Request{Design: "C1"} }},
		"xl":       {"xl", KindSynthesize, func() *Request { return &Request{XLSinks: 1000} }},
		"explicit": {"explicit", KindSynthesize, func() *Request { return &Request{Root: &XY{1, 2}, Sinks: []XY{{3, 4}}} }},
		"dse":      {"dse", KindDSE, func() *Request { return &Request{Design: "C1", Thresholds: []int{8}} }},
		"eco":      {"eco", KindECO, func() *Request { return &Request{Design: "C1", Delta: &DeltaSpec{Remove: []int{3}}} }},
		"partitioned": {"partitioned", KindSynthesize, func() *Request {
			return &Request{Design: "C1", Options: OptionsSpec{PartitionMaxSinks: 300}}
		}},
	}
	// appliesIn names the forms a field is checked on, by its full name;
	// any other field is checked on its parent's forms, or at the top
	// level on the design form.
	appliesIn := map[string][]string{
		"Seed":       {"design", "xl"},
		"Root":       {"explicit"},
		"Sinks":      {"explicit"},
		"XLSinks":    {"xl"},
		"Thresholds": {"dse"},
		"Delta":      {"eco"},
		// The strategy only applies with partitioning on.
		"Options.PartitionStrategy": {"partitioned"},
	}

	// check perturbs the value field() selects on each form and compares
	// the key before and after.
	check := func(name string, fs []form, field func(*Request) reflect.Value) {
		for _, f := range fs {
			r := f.req()
			before := r.Key(f.kind)
			perturb(field(r))
			changed := r.Key(f.kind) != before
			if keyExcluded[name] && changed {
				t.Errorf("%s is excluded from the key but changed it", name)
			}
			if !keyExcluded[name] && !changed {
				t.Errorf("%s (%s form) does not change the key", name, f.name)
			}
		}
	}
	// visit walks typ's fields; fs is nil at the top level, where each
	// field picks its forms, and nested fields inherit their parent's.
	var visit func(prefix string, fs []form, typ reflect.Type, field func(*Request) reflect.Value)
	visit = func(prefix string, fs []form, typ reflect.Type, field func(*Request) reflect.Value) {
		for i := 0; i < typ.NumField(); i++ {
			sf := typ.Field(i)
			name := prefix + sf.Name
			if !sf.IsExported() {
				if !keyExcluded[name] {
					t.Errorf("unexported field %s is neither keyed nor excluded", name)
				}
				continue
			}
			sfs := fs
			if names, ok := appliesIn[name]; ok {
				sfs = nil
				for _, n := range names {
					sfs = append(sfs, forms[n])
				}
			} else if sfs == nil {
				sfs = []form{forms["design"]}
			}
			sub := func(r *Request) reflect.Value { return field(r).Field(i) }
			switch sf.Type {
			case reflect.TypeOf(OptionsSpec{}):
				visit(name+".", sfs, sf.Type, sub)
			case reflect.TypeOf(&DeltaSpec{}):
				visit(name+".", sfs, sf.Type.Elem(), func(r *Request) reflect.Value { return sub(r).Elem() })
			default:
				check(name, sfs, sub)
			}
		}
	}
	visit("", nil, reflect.TypeOf(Request{}), func(r *Request) reflect.Value { return reflect.ValueOf(r).Elem() })

	for name := range keyExcluded {
		if _, ok := reflect.TypeOf(Request{}).FieldByName(name); !ok {
			t.Errorf("keyExcluded names %s, which Request does not have", name)
		}
	}
}

// perturb sets v to a value different from its current one: it appends
// to a slice, allocates or shifts a pointee, and otherwise changes the
// scalar.
func perturb(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 7)
	case reflect.Float64:
		v.SetFloat(v.Float() + 2.5)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		if !v.IsNil() {
			p.Elem().Set(v.Elem())
		}
		perturb(p.Elem().Field(0))
		v.Set(p)
	default:
		panic("perturb: unhandled kind " + v.Kind().String())
	}
}

// FuzzRequestDecode decodes arbitrary bytes the way the server does and
// checks, for every job kind, that Key neither panics nor varies between
// calls, and that an explicit placement of at most 64 sinks that
// validates also resolves — validate's contract.
func FuzzRequestDecode(f *testing.F) {
	for _, seed := range []string{
		`{"design":"C1"}`,
		`{"root":{"x":0,"y":0},"sinks":[{"x":10,"y":20},{"x":30,"y":5}]}`,
		`{"xl_sinks":250000,"seed":3,"options":{"partition_max_sinks":50000}}`,
		`{"design":"C3","delta":{"add":[{"x":1,"y":2}],"move":[{"sink":4,"x":5,"y":6}],"remove":[7],"corners":["slow"]}}`,
		`{"design":"C5","thresholds":[8,16,32],"corners":["typ","fast"]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Request
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			return
		}
		for _, kind := range []string{KindSynthesize, KindDSE, KindECO} {
			key := r.Key(kind)
			if r.Key(kind) != key {
				t.Fatalf("%s: Key is not stable across calls", kind)
			}
			if _, _, err := r.validate(kind); err != nil {
				continue
			}
			if r.Design != "" || r.XLSinks != 0 || len(r.Sinks) > 64 {
				continue // generated placements are too costly to build here
			}
			if _, err := r.resolve(kind); err != nil {
				t.Fatalf("%s: request validates but does not resolve: %v", kind, err)
			}
			if r.Key(kind) != key {
				t.Fatalf("%s: validate or resolve changed the key", kind)
			}
		}
	})
}
