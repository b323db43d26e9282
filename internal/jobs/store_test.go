package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSealUnsealRoundTrip(t *testing.T) {
	in := Record{
		ID: "deadbeef00000000", State: StateDone, SpecSHA256: "deadbeef00000000",
		Created: "2026-01-01T00:00:00Z", Updated: "2026-01-01T00:01:00Z",
		CellsDone: 4, CellsTotal: 4, Restored: 2, Retries: 1, Attempts: 2, Resumes: 1,
	}
	data, err := seal(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out Record
	if err := unseal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestUnsealRejectsCorruption(t *testing.T) {
	good, err := seal(&Record{ID: "x", State: StateQueued})
	if err != nil {
		t.Fatal(err)
	}

	flip := func(b []byte, what, with string) []byte {
		out := bytes.Replace(b, []byte(what), []byte(with), 1)
		if bytes.Equal(out, b) {
			t.Fatalf("corruption %q -> %q did not apply", what, with)
		}
		return out
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"payload-bit-flip", flip(good, `"queued"`, `"QUEUED"`), "checksum mismatch"},
		{"wrong-magic", flip(good, Magic, "imtrans-j0b"), "magic"},
		{"wrong-version", flip(good, `"version": 1`, `"version": 9`), "version"},
		{"trailing-data", append(append([]byte(nil), good...), "{}"...), "trailing data"},
		{"unknown-envelope-field", flip(good, `"magic"`, `"sneaky"`), "unknown field"},
		{"truncated", good[:len(good)/2], "unexpected"},
		{"empty", nil, "EOF"},
		{"not-json", []byte("not json at all"), "invalid"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rec Record
			err := unseal(tc.data, &rec)
			if err == nil {
				t.Fatalf("corrupted input unsealed cleanly: %q", tc.data)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestReadRecordRejectsUnknownState(t *testing.T) {
	dir := t.TempDir()
	data, err := seal(&Record{ID: "x", State: State("limbo")})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, recordFile)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRecord(path); err == nil || !strings.Contains(err.Error(), "unknown state") {
		t.Fatalf("want unknown-state error, got %v", err)
	}
}

func TestResultPayloadServedVerbatim(t *testing.T) {
	dir := t.TempDir()
	res := Result{Benchmarks: []string{"mmul"}, Configs: []string{"k=5"}, Done: [][]bool{{true}}}
	data, err := seal(&res)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, resultFile)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := readResultPayload(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := readResultPayload(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two reads of the same result differ")
	}
	var decoded Result
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatalf("payload is not the result JSON: %v", err)
	}
	if decoded.Benchmarks[0] != "mmul" {
		t.Fatalf("payload content lost: %+v", decoded)
	}
}

func TestWriteFileAtomicDurable(t *testing.T) {
	for _, durable := range []bool{false, true} {
		dir := t.TempDir()
		path := filepath.Join(dir, "f.json")
		if err := writeFileAtomic(path, []byte("one"), durable); err != nil {
			t.Fatal(err)
		}
		if err := writeFileAtomic(path, []byte("two"), durable); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "two" {
			t.Fatalf("durable=%v: got %q", durable, got)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 {
			t.Fatalf("durable=%v: temp files left behind: %v", durable, ents)
		}
	}
}

func TestSpecIDStableAcrossFormatting(t *testing.T) {
	a, err := ParseSpec([]byte(`{"benchmarks":[{"name":"mmul","n":16}],"retries":2}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec([]byte("{\n  \"retries\": 2,\n  \"benchmarks\": [ {\"n\": 16, \"name\": \"mmul\"} ]\n}"))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != b.ID() {
		t.Fatalf("formatting changed the content address: %s vs %s", a.ID(), b.ID())
	}
	c, err := ParseSpec([]byte(`{"benchmarks":[{"name":"mmul","n":17}],"retries":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() == c.ID() {
		t.Fatal("different specs share a content address")
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ``},
		{"no-benchmarks", `{}`},
		{"empty-benchmarks", `{"benchmarks":[]}`},
		{"unknown-field", `{"benchmarks":[{"name":"mmul"}],"bogus":1}`},
		{"unknown-bench-field", `{"benchmarks":[{"name":"mmul","speed":11}]}`},
		{"trailing-data", `{"benchmarks":[{"name":"mmul"}]}{}`},
		{"unnamed-bench", `{"benchmarks":[{"n":4}]}`},
		{"negative-n", `{"benchmarks":[{"name":"mmul","n":-1}]}`},
		{"huge-n", `{"benchmarks":[{"name":"mmul","n":99999999}]}`},
		{"retries-out-of-range", `{"benchmarks":[{"name":"mmul"}],"retries":11}`},
		{"negative-deadline", `{"benchmarks":[{"name":"mmul"}],"deadline_seconds":-5}`},
		{"huge-deadline", `{"benchmarks":[{"name":"mmul"}],"deadline_seconds":999999}`},
		{"bad-block-size", `{"benchmarks":[{"name":"mmul"}],"configs":[{"block_size":1}]}`},
		{"bad-bus-width", `{"benchmarks":[{"name":"mmul"}],"configs":[{"bus_width":64}]}`},
		{"array-body", `[1,2,3]`},
		{"mmul-out-of-memory", `{"benchmarks":[{"name":"mmul","n":1048576}]}`},
		{"fft-not-power-of-two", `{"benchmarks":[{"name":"fft","n":3}]}`},
		{"sor-below-floor", `{"benchmarks":[{"name":"sor","n":2}]}`},
		{"tri-below-floor", `{"benchmarks":[{"name":"tri","n":1}]}`},
		{"ej-negative-iters", `{"benchmarks":[{"name":"ej","iters":-1}]}`},
		{"crc32-negative-iters", `{"benchmarks":[{"name":"crc32","iters":-1}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseSpec([]byte(tc.in)); err == nil {
				t.Fatalf("spec %q parsed cleanly", tc.in)
			}
		})
	}
}

func TestParseSpecGridLimit(t *testing.T) {
	var sp Spec
	for i := 0; i < 26; i++ {
		sp.Benchmarks = append(sp.Benchmarks, BenchmarkRef{Name: "mmul", N: i + 1})
	}
	for i := 0; i < 10; i++ {
		sp.Configs = append(sp.Configs, ConfigRef{BlockSize: 2 + i%10})
	}
	if _, err := ParseSpec(sp.Canonical()); err == nil || !strings.Contains(err.Error(), "cell limit") {
		t.Fatalf("260-cell grid must exceed the %d-cell limit, got %v", MaxGridCells, err)
	}
}

// TestParseSpecAcceptsJobScales keeps the kernel-domain check from
// refusing the scales jobs run at: CI's job-resume grid and the six
// reduced-scale kernels.
func TestParseSpecAcceptsJobScales(t *testing.T) {
	for _, spec := range []string{
		`{"benchmarks":[{"name":"mmul","n":160},{"name":"ej","n":48,"iters":4000},{"name":"lu","n":144},{"name":"sor","n":160,"iters":40},{"name":"fft","n":16384},{"name":"tri","n":4000}],"configs":[{},{"block_size":4}]}`,
		`{"benchmarks":[{"name":"mmul","n":24},{"name":"sor","n":32,"iters":2},{"name":"ej","n":24,"iters":4},{"name":"fft","n":64},{"name":"tri","n":32,"iters":10},{"name":"lu","n":24}]}`,
	} {
		if _, err := ParseSpec([]byte(spec)); err != nil {
			t.Errorf("spec %s rejected: %v", spec, err)
		}
	}
}
