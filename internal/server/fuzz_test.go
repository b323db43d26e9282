package server

import (
	"encoding/json"
	"strings"
	"testing"

	"imtrans/internal/jobs"
)

// The decoders are the daemon's entire parsing surface: every fuzz
// target asserts the same property — arbitrary bytes yield either an
// error or a validated request, never a panic and never a request that
// escapes the resource bounds.

func fuzzSeeds(f *testing.F) {
	seeds := []string{
		`{"benchmark":{"name":"mmul","n":24}}`,
		`{"source":"li $v0, 10\nsyscall\n"}`,
		`{"benchmarks":[{"name":"mmul","n":24},{"name":"fft"}],"configs":[{"block_size":5},{}],"retries":2}`,
		`{"benchmark":{"name":"mmul"},"config":{"block_size":5,"tt_entries":16,"bbit_entries":16,"all_functions":true,"exact":true,"knapsack":true,"bus_width":16}}`,
		`{"benchmark":{"name":"mmul"},"static":true,"skip_verify":true}`,
		`{}`,
		`{"benchmark":{"name":"mmul"}} trailing`,
		`{"benchmark":{"name":"mmul"},"unknown_field":1}`,
		`{"benchmarks":[{"name":"mmul"}],"retries":-1}`,
		`nonsense`,
		`[1,2,3]`,
		`"just a string"`,
		`{"source":"` + strings.Repeat("x", 64) + `"}`,
		``,
		`null`,
		`{"benchmark":{"name":"mmul","n":1048576}}`,
		`{"benchmark":{"name":"fft","n":3}}`,
		`{"benchmark":{"name":"tri","n":-1}}`,
		`{"benchmark":{"name":"ej","iters":-1}}`,
		`{"benchmarks":[{"name":"fft","n":3},{"name":"sor","n":2}],"configs":[{}]}`,
		`{"benchmarks":[{"name":"iir","iters":-1}],"schemes":[{"name":"paper"}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
}

func FuzzParseEncodeRequest(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseEncodeRequest(data)
		if err != nil {
			return
		}
		if (r.Source == "") == (r.Benchmark == nil) {
			t.Fatalf("accepted request violates exactly-one-of: %+v", r)
		}
		if len(r.Source) > maxSourceBytes {
			t.Fatalf("accepted oversize source (%d bytes)", len(r.Source))
		}
		if r.Benchmark != nil {
			if b, err := r.Benchmark.Resolve(); err == nil {
				if _, err := b.Program(); err != nil {
					t.Fatalf("accepted benchmark %+v the library refuses: %v", *r.Benchmark, err)
				}
			}
		}
	})
}

func FuzzParseMeasureRequest(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseMeasureRequest(data)
		if err != nil {
			return
		}
		if (r.Source == "") == (len(r.Benchmarks) == 0) {
			t.Fatalf("accepted request violates exactly-one-of: %+v", r)
		}
		rows, cols := len(r.Benchmarks), len(r.Configs)
		if rows == 0 {
			rows = 1
		}
		if cols == 0 {
			cols = 1
		}
		if rows*cols > jobs.MaxGridCells {
			t.Fatalf("accepted %d-cell grid past the %d-cell bound", rows*cols, jobs.MaxGridCells)
		}
		if r.Retries < 0 || r.Retries > jobs.MaxRetries {
			t.Fatalf("accepted retries %d outside [0, %d]", r.Retries, jobs.MaxRetries)
		}
	})
}

func FuzzParseCompareRequest(f *testing.F) {
	fuzzSeeds(f)
	seeds := []string{
		`{"benchmarks":[{"name":"mmul","n":24}],"schemes":[{"name":"paper"},{"name":"businvert"}]}`,
		`{"benchmarks":[{"name":"mmul"}],"schemes":[{"name":"paper","config":{"block_size":5}},{"name":"codebook","entries":64},{"name":"lwc","extra_lines":2}]}`,
		`{"benchmarks":[{"name":"mmul"}],"schemes":[]}`,
		`{"benchmarks":[{"name":"mmul"}],"schemes":[{"name":"paper"},{"name":"paper"}]}`,
		`{"benchmarks":[{"name":"mmul"}],"schemes":[{"name":"paper"}]} trailing`,
		`{"benchmarks":[{"name":"mmul"}],"schemes":[{"name":"lwc","extra_lines":99}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseCompareRequest(data)
		if err != nil {
			return
		}
		if len(r.Benchmarks) == 0 || len(r.Schemes) == 0 {
			t.Fatalf("accepted request with an empty axis: %+v", r)
		}
		if len(r.Benchmarks)*len(r.Schemes) > jobs.MaxGridCells {
			t.Fatalf("accepted %d-cell grid past the %d-cell bound", len(r.Benchmarks)*len(r.Schemes), jobs.MaxGridCells)
		}
		if r.Retries < 0 || r.Retries > jobs.MaxRetries {
			t.Fatalf("accepted retries %d outside [0, %d]", r.Retries, jobs.MaxRetries)
		}
		seen := map[string]bool{}
		for _, sc := range r.Schemes {
			if sc.Name == "" {
				t.Fatal("accepted scheme without a name")
			}
			key, _ := json.Marshal(sc)
			if seen[string(key)] {
				t.Fatalf("accepted duplicate scheme spec %q", sc.Name)
			}
			seen[string(key)] = true
		}
	})
}

func FuzzParseDeployRequest(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseDeployRequest(data)
		if err != nil {
			return
		}
		if (r.Source == "") == (r.Benchmark == nil) {
			t.Fatalf("accepted request violates exactly-one-of: %+v", r)
		}
		if r.Benchmark != nil && r.Benchmark.Name == "" {
			t.Fatal("accepted benchmark without a name")
		}
	})
}
