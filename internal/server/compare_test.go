package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"imtrans"
)

// TestCompareBitIdentical checks the /v1/compare grid against the
// in-process comparison facade: same benchmarks, same scheme specs, byte
// round-tripped measurements and rankings.
func TestCompareBitIdentical(t *testing.T) {
	s := mustNew(t, Config{})
	body := `{"benchmarks":[{"name":"mmul","n":24},{"name":"sor","n":32,"iters":2}],` +
		`"schemes":[{"name":"paper","config":{"block_size":5}},{"name":"businvert"},{"name":"codebook","entries":64}]}`
	w := post(t, s.Handler(), "/v1/compare", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp CompareResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}

	benches := []imtrans.Benchmark{}
	for _, ref := range []BenchmarkRef{{Name: "mmul", N: 24}, {Name: "sor", N: 32, Iters: 2}} {
		b, err := ref.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, b)
	}
	specs := []imtrans.SchemeSpec{
		{Name: "paper", Config: imtrans.Config{BlockSize: 5}},
		{Name: "businvert"},
		{Name: "codebook", Entries: 64},
	}
	direct, err := imtrans.CompareMeasureCtx(context.Background(), benches, specs, imtrans.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := direct.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Results, direct.Results) {
		t.Errorf("served results diverged from the in-process comparison")
	}
	if !reflect.DeepEqual(resp.Rankings, direct.Rankings) {
		t.Errorf("served rankings diverged: %v vs %v", resp.Rankings, direct.Rankings)
	}
	if !reflect.DeepEqual(resp.Schemes, direct.Schemes) {
		t.Errorf("served scheme labels diverged: %v vs %v", resp.Schemes, direct.Schemes)
	}

	// The scheme-labelled counters must surface in /metrics (the compare
	// smoke job scrapes for exactly this).
	metrics := get(t, s.Handler(), "/metrics").Body.String()
	if !strings.Contains(metrics, `compare_completed{scheme="businvert"} 2`) {
		t.Errorf("per-scheme counter missing from /metrics:\n%s", metrics)
	}
}

// TestCompareBadRequests exercises the endpoint's 400 surface, including
// registry resolution (unknown scheme, knob bleed) which the pure parser
// leaves to the handler.
func TestCompareBadRequests(t *testing.T) {
	s := mustNew(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"empty", `{}`},
		{"no-schemes", `{"benchmarks":[{"name":"mmul"}]}`},
		{"empty-schemes", `{"benchmarks":[{"name":"mmul"}],"schemes":[]}`},
		{"no-benchmarks", `{"schemes":[{"name":"paper"}]}`},
		{"unknown-field", `{"benchmarks":[{"name":"mmul"}],"schemes":[{"name":"paper"}],"bogus":1}`},
		{"trailing-data", `{"benchmarks":[{"name":"mmul"}],"schemes":[{"name":"paper"}]}{}`},
		{"duplicate-scheme", `{"benchmarks":[{"name":"mmul"}],"schemes":[{"name":"paper"},{"name":"paper"}]}`},
		{"unknown-scheme", `{"benchmarks":[{"name":"mmul"}],"schemes":[{"name":"nosuch"}]}`},
		{"knob-bleed", `{"benchmarks":[{"name":"mmul"}],"schemes":[{"name":"businvert","config":{"block_size":7}}]}`},
		{"unknown-benchmark", `{"benchmarks":[{"name":"nosuch"}],"schemes":[{"name":"paper"}]}`},
		{"retries-out-of-range", `{"benchmarks":[{"name":"mmul"}],"schemes":[{"name":"paper"}],"retries":11}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s.Handler(), "/v1/compare", tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", w.Code, w.Body)
			}
			var e errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("malformed error body: %s", w.Body)
			}
		})
	}
}

// TestSchemesEndpoint checks the discovery listing.
func TestSchemesEndpoint(t *testing.T) {
	s := mustNew(t, Config{})
	w := get(t, s.Handler(), "/v1/schemes")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var infos []imtrans.SchemeInfo
	if err := json.Unmarshal(w.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) < 4 {
		t.Fatalf("only %d schemes listed", len(infos))
	}
	seen := map[string]bool{}
	for _, info := range infos {
		seen[info.Name] = true
		if info.Description == "" || len(info.Knobs) == 0 {
			t.Errorf("scheme %s listed without description/knobs", info.Name)
		}
	}
	for _, want := range []string{"paper", "businvert", "codebook", "lwc"} {
		if !seen[want] {
			t.Errorf("scheme %s missing from the listing", want)
		}
	}
}

// TestCacheKeyCarriesSchemeLabel pins the result-cache/CAS key shape:
// every key is endpoint:scheme:sha256, so the persistent tier's
// resp/<endpoint>:<scheme>:<sha> entries for different scheme sets can
// never alias — not even across future key-derivation changes.
func TestCacheKeyCarriesSchemeLabel(t *testing.T) {
	body := []byte(`{"benchmarks":[{"name":"mmul"}]}`)
	key := cacheKey("measure", body)
	if !strings.HasPrefix(key, "measure:paper:") {
		t.Errorf("measure key %q lacks the paper scheme label", key)
	}
	if parts := strings.Split(key, ":"); len(parts) != 3 || len(parts[2]) != 64 {
		t.Errorf("key %q is not endpoint:scheme:sha256", key)
	}

	// The compare label is the sorted, deduped scheme-name set.
	cmp := []byte(`{"benchmarks":[{"name":"mmul"}],"schemes":[{"name":"lwc"},{"name":"businvert"},{"name":"lwc"}]}`)
	if key := cacheKey("compare", cmp); !strings.HasPrefix(key, "compare:businvert+lwc:") {
		t.Errorf("compare key %q lacks the sorted scheme set", key)
	}

	// Same benchmarks, different scheme axes: the keys must differ in the
	// scheme segment itself, not just the body hash.
	a := cacheKey("compare", []byte(`{"benchmarks":[{"name":"mmul"}],"schemes":[{"name":"paper"}]}`))
	b := cacheKey("compare", []byte(`{"benchmarks":[{"name":"mmul"}],"schemes":[{"name":"businvert"}]}`))
	if strings.Split(a, ":")[1] == strings.Split(b, ":")[1] {
		t.Errorf("different scheme axes share a key label: %q vs %q", a, b)
	}

	// Unparseable or schemeless compare bodies still get a deterministic
	// label (the strict parser 400s them later).
	if key := cacheKey("compare", []byte(`nonsense`)); !strings.HasPrefix(key, "compare:none:") {
		t.Errorf("invalid body key %q lacks the none label", key)
	}
}

// TestCompareResultLandsInStore checks the write-behind persistent tier
// stores compare responses under the scheme-labelled resp/ name.
func TestCompareResultLandsInStore(t *testing.T) {
	s := mustNew(t, Config{StoreDir: t.TempDir()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	body := `{"benchmarks":[{"name":"mmul","n":16}],"schemes":[{"name":"businvert"},{"name":"paper"}]}`
	w := post(t, s.Handler(), "/v1/compare", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	s.cache.flushTier()
	name := "resp/" + cacheKey("compare", []byte(body))
	if !strings.Contains(name, ":businvert+paper:") {
		t.Fatalf("store name %q lacks the scheme label", name)
	}
	stored, err := s.Store().GetNamed(name)
	if err != nil {
		t.Fatalf("compare response not in the store under %q: %v", name, err)
	}
	if !strings.Contains(string(stored), `"rankings"`) {
		t.Errorf("stored body is not a compare response: %.120s", stored)
	}
}

// metricValue extracts one counter's value from a rendered /metrics
// body (the exporter namespace-prefixes every family), -1 if absent.
func metricValue(body, name string) int64 {
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, metricsNamespace+name+" ")
		if !ok {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(rest, "%d", &v); err == nil {
			return v
		}
	}
	return -1
}

// TestCompareFleetCountersInMetrics checks that the fleet replay
// telemetry of a served comparison — repeat/derived-table memo hits and
// shared-stream attachments — lands in /metrics: a 2x2 fleet grid shares
// each benchmark's transition stream between its two cells and
// fast-forwards the kernels' hot loops, so both families must be nonzero,
// globally and with scheme labels.
func TestCompareFleetCountersInMetrics(t *testing.T) {
	s := mustNew(t, Config{})
	body := `{"benchmarks":[{"name":"mmul","n":24},{"name":"sor","n":32,"iters":2}],` +
		`"schemes":[{"name":"businvert"},{"name":"dictionary"}]}`
	w := post(t, s.Handler(), "/v1/compare", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	metrics := get(t, s.Handler(), "/metrics").Body.String()
	for _, name := range []string{"compare_memo_hits", "compare_stream_shared"} {
		if v := metricValue(metrics, name); v <= 0 {
			t.Errorf("%s = %d in /metrics, want > 0", name, v)
		}
	}
	if v := metricValue(metrics, `compare_memo_hits{scheme="businvert"}`); v <= 0 {
		t.Errorf(`compare_memo_hits{scheme="businvert"} = %d, want > 0`, v)
	}
	if v := metricValue(metrics, `compare_stream_shared{scheme="dictionary"}`); v <= 0 {
		t.Errorf(`compare_stream_shared{scheme="dictionary"} = %d, want > 0`, v)
	}
}
