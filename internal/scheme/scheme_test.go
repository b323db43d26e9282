package scheme

import (
	"math/bits"
	"testing"
)

// TestCodewordEnumeration checks the 32-bit codeword order both
// related-work schemes assign by: non-decreasing Hamming weight,
// strictly increasing value within a weight class, no duplicates.
func TestCodewordEnumeration(t *testing.T) {
	const n = 5000
	cw := codewords(n)
	if len(cw) != n {
		t.Fatalf("enumerated %d codewords, want %d", len(cw), n)
	}
	seen := make(map[uint32]bool, n)
	lastWeight, lastVal := 0, uint32(0)
	for i, v := range cw {
		if seen[v] {
			t.Fatalf("codeword %#x repeated at %d", v, i)
		}
		seen[v] = true
		w := bits.OnesCount32(v)
		switch {
		case w < lastWeight:
			t.Fatalf("weight decreased at %d: %#x (w=%d after w=%d)", i, v, w, lastWeight)
		case w == lastWeight && i > 0 && v <= lastVal:
			t.Fatalf("value not increasing within weight %d at %d: %#x after %#x", w, i, v, lastVal)
		}
		lastWeight, lastVal = w, v
	}
	// The enumeration front must be exhaustive: everything of a lower
	// weight precedes anything of a higher one, so the first 1+32 entries
	// are exactly the weight-0 and weight-1 codewords.
	if cw[0] != 0 {
		t.Errorf("first codeword %#x, want 0", cw[0])
	}
	for i := 1; i <= 32; i++ {
		if bits.OnesCount32(cw[i]) != 1 {
			t.Errorf("codeword %d has weight %d, want 1", i, bits.OnesCount32(cw[i]))
		}
	}
}

// TestLwcCodewordEnumeration checks the wide-bus (n > 32 lines)
// difference-codeword order, including the exact top-of-weight-class
// boundary.
func TestLwcCodewordEnumeration(t *testing.T) {
	for _, lines := range []int{33, 36, 40} {
		const n = 4000
		cw := lwcCodewords(n, lines)
		if len(cw) != n {
			t.Fatalf("lines=%d: enumerated %d codewords, want %d", lines, len(cw), n)
		}
		seen := make(map[uint64]bool, n)
		lastWeight, lastVal := 0, uint64(0)
		for i, v := range cw {
			if v>>uint(lines) != 0 {
				t.Fatalf("lines=%d: codeword %#x overflows the bus", lines, v)
			}
			if seen[v] {
				t.Fatalf("lines=%d: codeword %#x repeated at %d", lines, v, i)
			}
			seen[v] = true
			w := bits.OnesCount64(v)
			switch {
			case w < lastWeight:
				t.Fatalf("lines=%d: weight decreased at %d", lines, i)
			case w == lastWeight && i > 0 && v <= lastVal:
				t.Fatalf("lines=%d: value not increasing within weight at %d", lines, i)
			}
			lastWeight, lastVal = w, v
		}
		// Weight classes must be complete before the next one starts:
		// 1 + lines + lines*(lines-1)/2 covers weights 0..2.
		upTo2 := 1 + lines + lines*(lines-1)/2
		if upTo2 <= n {
			if w := bits.OnesCount64(cw[upTo2-1]); w != 2 {
				t.Errorf("lines=%d: codeword %d has weight %d, want 2", lines, upTo2-1, w)
			}
			if w := bits.OnesCount64(cw[upTo2]); w != 3 {
				t.Errorf("lines=%d: codeword %d has weight %d, want 3", lines, upTo2, w)
			}
		}
	}
}

// TestRegistry checks the registry invariants the compare machinery
// relies on: sorted listing, the acceptance-criteria scheme set, Get
// round-trips, and Spec determinism for the zero parameter set.
func TestRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{"paper", "businvert", "codebook", "lwc"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("required scheme %q not registered (have %v)", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names not sorted: %v", names)
		}
	}
	for _, s := range All() {
		got, err := Get(s.Name())
		if err != nil || got.Name() != s.Name() {
			t.Errorf("Get(%q) round-trip failed: %v", s.Name(), err)
		}
		if s.Spec(Params{}) == "" {
			t.Errorf("%s: empty zero-params spec", s.Name())
		}
		if err := Validate(s, Params{}); err != nil {
			t.Errorf("%s: zero params rejected: %v", s.Name(), err)
		}
		if err := Validate(s, Params{BlockSize: 5, Entries: 64, ExtraLines: 2}); err == nil {
			t.Errorf("%s: accepted a params bleed across scheme knob sets", s.Name())
		}
	}
	if _, err := Get("nosuch"); err == nil {
		t.Error("Get of unknown scheme succeeded")
	}
}
