package replay_test

import (
	"reflect"
	"testing"

	"imtrans"
	"imtrans/internal/asm"
	"imtrans/internal/cpu"
	"imtrans/internal/mem"
	"imtrans/internal/replay"
	"imtrans/internal/workloads"
)

// TestCaptureRunMatchesNaiveFold profiles all nine kernels through the
// facade, whose capture folds the CPU's straight-line spans with the
// Builder's loop-body cursor, and requires each trace to equal the naive
// fold of the same run fed fetch by fetch from OnFetch. The paper
// kernels run at the root tests' scales, the extra kernels at their test
// scales. The test sits here, outside the root package, because the
// naive fold is part of this package's tests; TraceText is the facade's
// view of the capture.
func TestCaptureRunMatchesNaiveFold(t *testing.T) {
	scales := map[string]workloads.Params{
		"mmul": {N: 24}, "sor": {N: 32, Iters: 2}, "ej": {N: 24, Iters: 4},
		"fft": {N: 64}, "tri": {N: 32, Iters: 10}, "lu": {N: 24},
	}
	for _, w := range append(workloads.All(), workloads.Extras()...) {
		p, ok := scales[w.Name]
		if !ok {
			p = w.TestParams
		}
		p = w.Fill(p)
		prog, err := imtrans.Assemble(w.Source(p))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		// The memory image the facade lays out: the data segment, then
		// the kernel's setup.
		image := mem.New()
		for i, b := range prog.Data {
			image.StoreByte(prog.DataBase+uint32(i), b)
		}
		if err := w.Setup(image, p); err != nil {
			t.Fatalf("%s: setup: %v", w.Name, err)
		}
		const pageWords = 1024
		setup := func(m imtrans.Memory) error {
			for _, page := range image.TouchedPages() {
				ws, err := image.LoadWords(page, pageWords)
				if err == nil {
					err = m.StoreWords(page, ws)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}
		text, err := imtrans.TraceText(prog, setup)
		if err != nil {
			t.Fatalf("%s: capture: %v", w.Name, err)
		}
		got, err := replay.ParseTrace(text)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}

		c, err := cpu.New(cpu.Program{Base: prog.TextBase, Words: prog.Text}, image)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		naive := replay.NewNaiveBuilder()
		c.OnFetch = func(pc, _ uint32) { naive.Add(int(pc-prog.TextBase) / 4) }
		if err := c.Run(); err != nil {
			t.Fatalf("%s: run: %v", w.Name, err)
		}
		if err := w.Check(c.Mem, p); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if want := naive.Trace(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s %+v: captured trace (%d ops) differs from the naive fold (%d ops)",
				w.Name, p, got.NumOps(), want.NumOps())
		}
	}
}

// branchySource is a loop whose 32-bit xorshift state picks one of two
// paths on every iteration, as cmd/imtrans/testdata/branchy.s does: its
// taken branches follow no fixed period, so its spans rarely repeat the
// span before them.
const branchySource = `
	li   $t0, 20000
	li   $t1, 2463534242
	li   $t2, 0
	li   $t3, 0
loop:
	sll  $t4, $t1, 13
	xor  $t1, $t1, $t4
	srl  $t4, $t1, 17
	xor  $t1, $t1, $t4
	sll  $t4, $t1, 5
	xor  $t1, $t1, $t4
	andi $t5, $t1, 1
	beqz $t5, even
	addu $t2, $t2, $t1
	srl  $t6, $t1, 3
	xor  $t2, $t2, $t6
	b    next
even:
	subu $t3, $t3, $t1
	sll  $t6, $t1, 2
	or   $t3, $t3, $t6
next:
	addiu $t0, $t0, -1
	bgtz $t0, loop
	li $v0, 10
	syscall
`

// recordSpans runs a program and returns the text-index spans its OnSpan
// hook reports.
func recordSpans(b *testing.B, src string, setup func(*mem.Memory) error) [][2]int {
	obj, err := asm.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	m := mem.New()
	for i, v := range obj.Data {
		m.StoreByte(obj.DataBase+uint32(i), v)
	}
	if err := setup(m); err != nil {
		b.Fatal(err)
	}
	c, err := cpu.New(cpu.Program{Base: obj.TextBase, Words: obj.TextWords}, m)
	if err != nil {
		b.Fatal(err)
	}
	var spans [][2]int
	c.OnSpan = func(first, last uint32) {
		spans = append(spans, [2]int{int(first-obj.TextBase) / 4, int(last-obj.TextBase) / 4})
	}
	if err := c.Run(); err != nil {
		b.Fatal(err)
	}
	return spans
}

// BenchmarkBuilderSpans times the fold on its own, in ns/span per stream:
// the straight-line spans of mmul and lu at the root tests' scales, whose
// inner loops are one span each, and of branchySource, whose spans follow
// no period. Each stream is recorded once, and each iteration folds it
// through a fresh Builder, as a capture's OnSpan hook does.
func BenchmarkBuilderSpans(b *testing.B) {
	for _, name := range []string{"mmul", "lu", "branchy"} {
		var spans [][2]int
		if name == "branchy" {
			spans = recordSpans(b, branchySource, func(*mem.Memory) error { return nil })
		} else {
			w, err := workloads.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			p := w.Fill(workloads.Params{N: 24})
			spans = recordSpans(b, w.Source(p), func(m *mem.Memory) error { return w.Setup(m, p) })
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fold := replay.NewBuilder()
				for _, s := range spans {
					fold.Span(s[0], s[1])
				}
				fold.Trace()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(spans)), "ns/span")
		})
	}
}
