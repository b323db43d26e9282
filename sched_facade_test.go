package imtrans

import (
	"slices"
	"strings"
	"testing"

	"imtrans/internal/isa"
)

func TestRescheduleProgramFacade(t *testing.T) {
	b, err := BenchmarkByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	b = b.WithScale(16, 0)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	p2, st, err := RescheduleProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks == 0 || st.After > st.Before {
		t.Fatalf("stats = %+v", st)
	}
	if st.ReductionPercent() < 0 {
		t.Errorf("negative reduction: %+v", st)
	}
	if len(p2.Text) != len(p.Text) {
		t.Fatal("text length changed")
	}
	// Measurement on the modified program works end to end, and its
	// profiling run passes the kernel's golden check.
	ms, err := b.MeasureModified(p2, Config{BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].Encoded > ms[0].Baseline {
		t.Errorf("encoding regressed on rescheduled program: %+v", ms[0])
	}
	if _, _, err := RescheduleProgram(nil); err == nil {
		t.Error("nil program accepted")
	}
}

// TestMeasureModifiedFailsGoldenCheck turns mmul's first mul.s into
// add.s (the word's low six bits are its funct field) and requires
// MeasureModified to fail on the golden check, and a second call to
// return the cached error without profiling the variant again.
func TestMeasureModifiedFailsGoldenCheck(t *testing.T) {
	b := mustBench(t, "mmul").WithScale(8, 1)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	wrong := *p
	wrong.Text = slices.Clone(p.Text)
	i := slices.IndexFunc(wrong.Text, func(w uint32) bool {
		in, err := isa.Decode(w)
		return err == nil && in.Op == isa.OpMULS
	})
	if i < 0 {
		t.Fatal("mmul has no mul.s")
	}
	wrong.Text[i] &^= 0x3f
	if in, err := isa.Decode(wrong.Text[i]); err != nil || in.Op != isa.OpADDS {
		t.Fatalf("mutated word %#08x is not add.s", wrong.Text[i])
	}
	ClearCaptureCache()
	_, err = b.MeasureModified(&wrong, Config{BlockSize: 5})
	if err == nil || !strings.Contains(err.Error(), "golden check") {
		t.Fatalf("got %v, want a golden-check error", err)
	}
	_, misses := CaptureCacheStats()
	_, again := b.MeasureModified(&wrong, Config{BlockSize: 5})
	if again == nil || again.Error() != err.Error() {
		t.Errorf("second call: got %v, want %v", again, err)
	}
	if _, m := CaptureCacheStats(); m != misses {
		t.Errorf("second call profiled the variant again: %d capture misses, want %d", m, misses)
	}
}
