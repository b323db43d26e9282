package scheme

import "testing"

// TestValidateAllocatesNothing guards the per-cell check every Measure
// runs: accepting a parameter set must not allocate for any registered
// scheme, so ConfigSpace must hand back a shared table rather than build
// one per call.
func TestValidateAllocatesNothing(t *testing.T) {
	for _, s := range All() {
		if n := testing.AllocsPerRun(100, func() {
			if err := Validate(s, Params{}); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Validate allocates %.1f times per call", s.Name(), n)
		}
	}
}
