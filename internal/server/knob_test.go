package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"imtrans"
	"imtrans/internal/jobs"
	"imtrans/internal/scheme"
)

// wireKnobs returns the knob fields of a scheme wire object by JSON name:
// every int or bool field, with the paper knobs nested under "config".
func wireKnobs(ref *jobs.SchemeRef) map[string]reflect.Value {
	out := map[string]reflect.Value{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			switch f := v.Field(i); f.Kind() {
			case reflect.Struct:
				walk(f)
			case reflect.Int, reflect.Bool:
				out[name] = f
			}
		}
	}
	walk(reflect.ValueOf(ref).Elem())
	return out
}

// knobValue reads a wire knob field, booleans as 0 or 1.
func knobValue(f reflect.Value) int {
	if f.Kind() == reflect.Bool {
		if f.Bool() {
			return 1
		}
		return 0
	}
	return int(f.Int())
}

// outsideSpace names a knob of ref that the ConfigSpace imtrans.Schemes
// advertises for its scheme does not admit, and reports whether the
// scheme lists it: a listed knob out of range comes before a nonzero
// knob the scheme does not list. It returns "" when every knob fits or
// the name is not registered.
func outsideSpace(ref jobs.SchemeRef) (knob string, listed bool) {
	for _, info := range imtrans.Schemes() {
		if info.Name != ref.Name {
			continue
		}
		for name, f := range wireKnobs(&ref) {
			v := knobValue(f)
			i := slices.IndexFunc(info.Knobs, func(k imtrans.SchemeKnob) bool { return k.Name == name })
			switch {
			case v == 0:
			case i < 0:
				knob = name
			case v < info.Knobs[i].Min || v > info.Knobs[i].Max:
				return name, true
			}
		}
	}
	return knob, false
}

// schemeParams is the scheme parameter set a wire scheme spec carries.
func schemeParams(sp imtrans.SchemeSpec) scheme.Params {
	c := sp.Config
	return scheme.Params{
		BlockSize: c.BlockSize, TTEntries: c.TTEntries, BBITEntries: c.BBITEntries,
		AllFunctions: c.AllFunctions, Exact: c.Exact, Knapsack: c.Knapsack, BusWidth: c.BusWidth,
		Entries: sp.Entries, ExtraLines: sp.ExtraLines,
	}
}

// TestKnobTable derives every knob verdict from the registered schemes'
// ConfigSpace — 0, Min and Max of each integer knob accepted, Min-1
// (unless that is 0) and Max+1 refused, each unlisted knob set to 1
// refused — and checks that every validating layer reaches it: the
// scheme table, imtrans.SchemeSpec.Validate, jobs.ParseSpec and
// ParseCompareRequest on a compare body and POST /v1/compare, and for
// the paper's knobs also a sweep spec and POST /v1/encode. The parsers
// refuse a listed knob out of range; a knob the scheme does not list
// passes them and fails Spec.Check, where a job submit refuses knob
// bleed as a *SpecError (TestSubmitRejectsUnknownScheme), so POST
// /v1/compare answers 400 for both. Accepted values go through the
// parsers only, so no grid runs.
func TestKnobTable(t *testing.T) {
	s := mustNew(t, Config{})
	if n, want := len(wireKnobs(&jobs.SchemeRef{})), reflect.TypeOf(scheme.Params{}).NumField(); n != want {
		t.Fatalf("the scheme wire type carries %d knobs, scheme.Params %d", n, want)
	}
	bench := []jobs.BenchmarkRef{{Name: "mmul", N: 24}}
	type probe struct {
		knob string
		v    int
		ok   bool
	}
	for _, sc := range scheme.All() {
		var probes []probe
		listed := map[string]bool{}
		for _, k := range sc.ConfigSpace() {
			listed[k.Name] = true
			f, ok := wireKnobs(&jobs.SchemeRef{})[k.Name]
			if !ok {
				t.Fatalf("%s: knob %s has no wire field", sc.Name(), k.Name)
			}
			if f.Kind() == reflect.Bool {
				probes = append(probes, probe{k.Name, 0, true}, probe{k.Name, 1, true})
				continue
			}
			probes = append(probes, probe{k.Name, 0, true}, probe{k.Name, k.Min, true},
				probe{k.Name, k.Max, true}, probe{k.Name, k.Max + 1, false})
			if k.Min-1 != 0 {
				probes = append(probes, probe{k.Name, k.Min - 1, false})
			}
		}
		for name := range wireKnobs(&jobs.SchemeRef{}) {
			if !listed[name] {
				probes = append(probes, probe{name, 1, false})
			}
		}
		for _, pr := range probes {
			ref := jobs.SchemeRef{Name: sc.Name()}
			f := wireKnobs(&ref)[pr.knob]
			if f.Kind() == reflect.Bool {
				f.SetBool(pr.v != 0)
			} else {
				f.SetInt(int64(pr.v))
			}
			verdict := func(layer string, err error, ok bool) {
				t.Helper()
				if (err == nil) != ok {
					t.Errorf("%s %s=%d: %s accepted=%v, want %v (%v)", sc.Name(), pr.knob, pr.v, layer, err == nil, ok, err)
				}
			}
			parseOK := pr.ok || !listed[pr.knob]
			verdict("scheme.Validate", scheme.Validate(sc, schemeParams(ref.SchemeSpec())), pr.ok)
			verdict("SchemeSpec.Validate", ref.SchemeSpec().Validate(), pr.ok)
			spec, _ := json.Marshal(jobs.Spec{Kind: jobs.KindCompare, Benchmarks: bench, Schemes: []jobs.SchemeRef{ref}})
			sp, err := jobs.ParseSpec(spec)
			verdict("jobs.ParseSpec (compare)", err, parseOK)
			if err == nil {
				verdict("jobs Spec.Check", sp.Check(), pr.ok)
			}
			body, _ := json.Marshal(CompareRequest{Benchmarks: bench, Schemes: []SchemeRequest{ref}})
			_, err = ParseCompareRequest(body)
			verdict("ParseCompareRequest", err, parseOK)
			if !pr.ok {
				w := post(t, s.Handler(), "/v1/compare", string(body))
				if w.Code != http.StatusBadRequest {
					t.Errorf("%s %s=%d: POST /v1/compare status %d, want 400", sc.Name(), pr.knob, pr.v, w.Code)
				} else if msg := w.Body.String(); !strings.Contains(msg, sc.Name()) || !strings.Contains(msg, pr.knob) {
					t.Errorf("%s %s=%d: 400 body %s does not name the scheme and the knob", sc.Name(), pr.knob, pr.v, msg)
				}
			}
			if sc.Name() != "paper" || !listed[pr.knob] {
				continue
			}
			sweep, _ := json.Marshal(jobs.Spec{Benchmarks: bench, Configs: []jobs.ConfigRef{ref.Config}})
			_, err = jobs.ParseSpec(sweep)
			verdict("jobs.ParseSpec (sweep)", err, pr.ok)
			enc, _ := json.Marshal(EncodeRequest{Benchmark: &bench[0], Config: ref.Config})
			_, err = ParseEncodeRequest(enc)
			verdict("ParseEncodeRequest", err, pr.ok)
			if !pr.ok {
				if w := post(t, s.Handler(), "/v1/encode", string(enc)); w.Code != http.StatusBadRequest {
					t.Errorf("paper %s=%d: POST /v1/encode status %d, want 400", pr.knob, pr.v, w.Code)
				}
			}
		}
	}
}

// TestSchemesBodyPinned pins the GET /v1/schemes body byte for byte. The
// listing is each scheme's ConfigSpace, the table every knob check is
// derived from, so a range that moves shows here as well as in
// TestKnobTable.
func TestSchemesBodyPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/schemes.json")
	if err != nil {
		t.Fatal(err)
	}
	w := get(t, mustNew(t, Config{}).Handler(), "/v1/schemes")
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
		t.Errorf("GET /v1/schemes: status %d, body\n%s\nwant\n%s", w.Code, w.Body, want)
	}
}
