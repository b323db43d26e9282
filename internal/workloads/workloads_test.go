package workloads

import (
	"fmt"
	"strings"
	"testing"

	"imtrans/internal/asm"
	"imtrans/internal/cpu"
	"imtrans/internal/mem"
)

// execute assembles, sets up and runs a workload at the given params,
// returning the CPU for inspection.
func execute(t testing.TB, w *Workload, p Params) *cpu.CPU {
	t.Helper()
	c, err := runCapped(w, p, 0, nil)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return c
}

// runCapped is execute under an instruction cap (0 = the default) and
// an optional data-traffic hook, with every failure returned.
func runCapped(w *Workload, p Params, max uint64, onData func(addr, value uint32, store bool)) (*cpu.CPU, error) {
	p = w.Fill(p)
	obj, err := asm.Assemble(w.Source(p))
	if err != nil {
		return nil, fmt.Errorf("assemble: %w", err)
	}
	m := mem.New()
	for i, b := range obj.Data {
		m.StoreByte(obj.DataBase+uint32(i), b)
	}
	if err := w.Setup(m, p); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	c, err := cpu.New(cpu.Program{Base: obj.TextBase, Words: obj.TextWords}, m)
	if err != nil {
		return nil, fmt.Errorf("cpu: %w", err)
	}
	c.MaxInstructions = max
	c.OnData = onData
	if err := c.Run(); err != nil {
		return c, fmt.Errorf("run: %w", err)
	}
	return c, nil
}

// TestKernelsMatchGoldenSmall validates every kernel bit-exactly against
// its golden reference at test scale.
func TestKernelsMatchGoldenSmall(t *testing.T) {
	for _, w := range append(All(), Extras()...) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			c := execute(t, w, w.TestParams)
			if err := w.Check(c.Mem, w.Fill(w.TestParams)); err != nil {
				t.Fatal(err)
			}
			if c.InstCount == 0 {
				t.Error("no instructions executed")
			}
		})
	}
}

// TestKernelsMatchGoldenPaperScale validates the kernels at the paper's
// problem sizes. Multi-second; skipped in -short runs.
func TestKernelsMatchGoldenPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale simulation")
	}
	for _, w := range append(All(), Extras()...) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			c := execute(t, w, w.Defaults)
			if err := w.Check(c.Mem, w.Defaults); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d instructions", w.Name, c.InstCount)
		})
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	// The golden check must actually have teeth: corrupt one output value
	// and expect a failure.
	w := MMul()
	p := w.TestParams
	c := execute(t, w, p)
	n := uint32(w.Fill(p).N)
	addr := dataBase + 8*n*n // first element of C
	v, err := c.Mem.LoadFloat(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Mem.StoreFloat(addr, v+1); err != nil {
		t.Fatal(err)
	}
	if err := w.Check(c.Mem, p); err == nil {
		t.Error("corrupted output passed the golden check")
	} else if !strings.Contains(err.Error(), "differ") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"mmul", "sor", "ej", "fft", "tri", "lu"} {
		w, err := ByName(name)
		if err != nil || w.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, w, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestFillDefaults(t *testing.T) {
	w := MMul()
	p := w.Fill(Params{})
	if p.N != 100 || p.Iters != 1 {
		t.Errorf("defaults = %+v", p)
	}
	p = w.Fill(Params{N: 4})
	if p.N != 4 || p.Iters != 1 {
		t.Errorf("partial fill = %+v", p)
	}
}

func TestSourcesHaveLoops(t *testing.T) {
	// Every kernel must contain at least one backward branch — the hot
	// loop the paper's technique targets.
	for _, w := range append(All(), Extras()...) {
		src := w.Source(w.TestParams)
		if !strings.Contains(src, "syscall") {
			t.Errorf("%s: no exit syscall", w.Name)
		}
		obj, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(obj.TextWords) < 10 {
			t.Errorf("%s: suspiciously small kernel (%d words)", w.Name, len(obj.TextWords))
		}
	}
}

func TestLCGDeterminism(t *testing.T) {
	a, b := newLCG(7), newLCG(7)
	for i := 0; i < 100; i++ {
		x, y := a.nextFloat(), b.nextFloat()
		if x != y {
			t.Fatal("lcg not deterministic")
		}
		if x < 0 || x >= 1 {
			t.Fatalf("lcg out of range: %v", x)
		}
	}
}

// TestInstsBoundsRuns checks each kernel's instruction bound against real
// runs: never below the executed count, and within 5% plus a prologue of
// it, so the cap boundary Validate draws sits where the runs do.
func TestInstsBoundsRuns(t *testing.T) {
	for _, w := range append(All(), Extras()...) {
		for _, n := range []int{w.MinN, 4, 8, w.TestParams.N} {
			for iters := 1; iters <= 3; iters++ {
				p := Params{N: n, Iters: iters}
				if err := w.Validate(p); err != nil {
					t.Fatalf("%s %+v: %v", w.Name, p, err)
				}
				got := float64(execute(t, w, p).InstCount)
				if bound := w.Insts(p); bound < got || bound > 1.05*got+40 {
					t.Errorf("%s %+v: bound %.0f for %.0f executed instructions", w.Name, p, bound, got)
				}
			}
		}
	}
}

// TestBytesBoundsRuns checks each kernel's data bound against real runs:
// every page set-up and the run touch, and every word the run loads or
// stores, lies in [mem.DataBase, mem.DataBase+bound), and the run's last
// access ends within one grid row (4n+4 bytes) of the bound, so the cap
// Validate draws sits where the runs' memory does.
func TestBytesBoundsRuns(t *testing.T) {
	for _, w := range append(All(), Extras()...) {
		for _, n := range []int{w.MinN, 4, 8, w.TestParams.N} {
			for iters := 1; iters <= 3; iters++ {
				p := Params{N: n, Iters: iters}
				end := uint64(mem.DataBase) + uint64(w.Bytes(p))
				lo, hi := end, uint64(0)
				c, err := runCapped(w, p, 0, func(addr, _ uint32, _ bool) {
					lo, hi = min(lo, uint64(addr)), max(hi, uint64(addr)+4)
				})
				if err != nil {
					t.Fatalf("%s %+v: %v", w.Name, p, err)
				}
				if lo < uint64(mem.DataBase) || hi > end || end-hi > 4*uint64(n)+4 {
					t.Errorf("%s %+v: run accessed [%#x, %#x), bound [%#x, %#x)", w.Name, p, lo, hi, mem.DataBase, end)
				}
				for _, pg := range c.Mem.TouchedPages() {
					if pg < mem.DataBase || uint64(pg) >= end {
						t.Errorf("%s %+v: page %#x touched outside [%#x, %#x)", w.Name, p, pg, mem.DataBase, end)
					}
				}
			}
		}
	}
}

// TestDataCapRefusesEJ pins the gap the data cap closes: ej at n = 10500
// with one sweep runs under the instruction cap but lays out 0.88 GB.
func TestDataCapRefusesEJ(t *testing.T) {
	w, p := EJ(), Params{N: 10500, Iters: 1}
	if insts := w.Insts(p); insts > cpu.DefaultMaxInstructions {
		t.Fatalf("ej %+v runs %.4g instructions; the case no longer isolates the data cap", p, insts)
	}
	if err := w.Validate(p); err == nil || !strings.Contains(err.Error(), "bytes of data") {
		t.Errorf("ej %+v: err = %v, want the data cap", p, err)
	}
}

// TestDomainBoundaries pins each kernel's scale domain by its boundary
// pairs: the last rejected and first accepted n at the small end, and the
// last accepted and first rejected n at the instruction cap with the
// default iteration count. Zero n or iters takes the default.
func TestDomainBoundaries(t *testing.T) {
	cases := []struct {
		name                   string
		lowReject, lowAccept   int
		highAccept, highReject int
	}{
		{"mmul", -1, 1, 629, 630},
		{"sor", 2, 3, 6264, 6265},
		{"ej", 2, 3, 1362, 1363},
		{"fft", 1, 2, 1 << 22, 1 << 23},
		{"tri", 1, 2, 135135, 135136},
		{"lu", -1, 1, 873, 874},
		{"crc32", -1, 1, 9090908, 9090909},
		{"iir", -1, 1, 19607842, 19607843},
		{"conv2d", 2, 3, 2674, 2675},
	}
	for _, tc := range cases {
		w, err := ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{tc.lowAccept, tc.highAccept, 0} {
			if err := w.Validate(Params{N: n}); err != nil {
				t.Errorf("%s n=%d rejected: %v", tc.name, n, err)
			}
		}
		for _, n := range []int{tc.lowReject, tc.highReject, -1 << 40, 1 << 40} {
			if w.Validate(Params{N: n}) == nil {
				t.Errorf("%s n=%d accepted", tc.name, n)
			}
		}
		if err := w.Validate(Params{Iters: 1}); err != nil {
			t.Errorf("%s iters=1 rejected: %v", tc.name, err)
		}
		if w.Validate(Params{Iters: -1}) == nil {
			t.Errorf("%s iters=-1 accepted", tc.name)
		}
	}
	fft := FFT()
	for _, n := range []int{3, 6, 100, 1<<20 + 1} {
		if err := fft.Validate(Params{N: n}); err == nil || !strings.Contains(err.Error(), "power of two") {
			t.Errorf("fft n=%d: err = %v, want a power-of-two error", n, err)
		}
	}
	for _, n := range []int{4, 1024, 1 << 20} {
		if err := fft.Validate(Params{N: n}); err != nil {
			t.Errorf("fft n=%d rejected: %v", n, err)
		}
	}
}

// TestDomainFloorIsTight runs every kernel at both sides of its smallest
// size: the first accepted n passes its golden check, and the last
// rejected positive n either spins to a small instruction cap or fails
// the check, so the floor is neither too low nor higher than it must be.
func TestDomainFloorIsTight(t *testing.T) {
	for _, w := range append(All(), Extras()...) {
		c := execute(t, w, Params{N: w.MinN, Iters: 1})
		if err := w.Check(c.Mem, w.Fill(Params{N: w.MinN, Iters: 1})); err != nil {
			t.Errorf("%s at n=%d: %v", w.Name, w.MinN, err)
		}
		n := w.MinN - 1
		if n < 1 {
			continue // zero is the default size, and negative sizes fail setup
		}
		p := Params{N: n, Iters: 1}
		if c, err := runCapped(w, p, 5_000_000, nil); err == nil && w.Check(c.Mem, p) == nil {
			t.Errorf("%s runs cleanly at n=%d, below its floor %d", w.Name, n, w.MinN)
		}
	}
}
