package replay

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"imtrans/internal/code"
	"imtrans/internal/core"
	"imtrans/internal/transform"
)

// buildTrace compresses an index stream through the Builder, the same
// path captures take.
func buildTrace(idxs []int) *Trace {
	b := NewBuilder()
	for _, i := range idxs {
		b.Add(i)
	}
	return b.Trace()
}

func traceCases() [][]int {
	loop := []int{0}
	for it := 0; it < 50; it++ {
		for i := 1; i <= 7; i++ {
			loop = append(loop, i)
		}
		loop = append(loop, 1)
	}
	nested := []int{0}
	for o := 0; o < 6; o++ {
		for in := 0; in < 9; in++ {
			nested = append(nested, 1, 2, 3)
		}
		nested = append(nested, 10, 0)
	}
	// A loop of four tokens per iteration whose last iteration leaves
	// after three of them: the loop-body cursor breaks mid-body.
	var midBody []int
	for it := 0; it < 7; it++ {
		midBody = append(midBody, 10, 11, 12, 20, 21)
	}
	midBody = append(midBody, 30, 31, 32)
	// An outer loop around inner loops of 4, 4, 6, 4 and 4 trips: the
	// inner group's count reaches an earlier inner group's (a hazard),
	// once where the scan then folds the outer loop and once, in the
	// six-trip loop, where it finds nothing and the cursor carries on.
	hazard := []int{0}
	for _, trips := range []int{4, 4, 6, 4, 4} {
		for i := 0; i < trips; i++ {
			hazard = append(hazard, 3, 4, 5)
		}
		hazard = append(hazard, 9, 0)
	}
	cases := [][]int{
		{5},
		{0, 1, 2, 3, 4, 5, 6, 7},
		{3, 9, 2, 2, 2, 7, 1, 0, 4},
		loop,
		nested,
		midBody,
		hazard,
	}
	// Loops of one span S, as S×a X S×b X S×c Y S×a: the earlier loops'
	// groups are fold and extend partners of the later ones at every
	// count a Span-fed Builder could add in one step.
	spans := func(out []int, first, last, reps int) []int {
		for ; reps > 0; reps-- {
			for i := first; i <= last; i++ {
				out = append(out, i)
			}
		}
		return out
	}
	for a := 1; a <= 7; a++ {
		for b := 1; b <= 12; b++ {
			for c := 1; c <= 12; c++ {
				s := spans(nil, 10, 13, a)
				s = spans(s, 20, 21, 1)
				s = spans(s, 10, 13, b)
				s = spans(s, 20, 21, 1)
				s = spans(s, 10, 13, c)
				s = spans(s, 30, 32, 1)
				cases = append(cases, spans(s, 10, 13, a))
			}
		}
	}
	return cases
}

func TestTraceTextRoundTrip(t *testing.T) {
	for ci, idxs := range traceCases() {
		tr := buildTrace(idxs)
		text, err := tr.MarshalText()
		if err != nil {
			t.Fatalf("case %d: marshal: %v", ci, err)
		}
		back, err := ParseTrace(text)
		if err != nil {
			t.Fatalf("case %d: parse %q: %v", ci, text, err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Errorf("case %d: round trip mismatch\n  in:  %+v\n  out: %+v", ci, tr, back)
		}
		// The replayed index stream must be identical too.
		var a, b []int32
		tr.Indices(func(i int32) { a = append(a, i) })
		back.Indices(func(i int32) { b = append(b, i) })
		if !reflect.DeepEqual(a, b) {
			t.Errorf("case %d: replayed indices differ", ci)
		}
	}
}

func TestParseTraceRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"imtrans-trace",
		"imtrans-trace 1 0",
		"wrong-magic 1 0 1",
		"imtrans-trace 2 0 1",
		"imtrans-trace 1 -1 1",
		"imtrans-trace 1 0 0",
		"imtrans-trace 1 0 2 1x1 )",     // unmatched close
		"imtrans-trace 1 0 3 r2( 1x1",   // unterminated group
		"imtrans-trace 1 0 3 r2( )",     // empty group
		"imtrans-trace 1 0 2 bogus",     // bad token
		"imtrans-trace 1 0 2 1x0",       // zero count
		"imtrans-trace 1 0 2 1xbeef",    // bad count
		"imtrans-trace 1 0 99 1x1",      // fetch count mismatch
		"imtrans-trace 1 0 5 r0( 1x1 )", // zero repeat
		"imtrans-trace 1 0 18446744073709551615 r1152921504606846976( r1152921504606846976( 1x1 ) )", // overflow
	}
	for _, s := range bad {
		if tr, err := ParseTrace([]byte(s)); err == nil {
			t.Errorf("ParseTrace(%q) accepted: %+v", s, tr)
		}
	}
}

// FuzzParseTrace asserts the decoder is total: arbitrary input must
// return an error or a trace whose op list matches its declared fetch
// count — never panic, never loop unbounded.
func FuzzParseTrace(f *testing.F) {
	for _, idxs := range traceCases() {
		text, err := buildTrace(idxs).MarshalText()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	f.Add([]byte("imtrans-trace 1 0 3 r2( 1x1"))
	f.Add([]byte("imtrans-trace 1 0 4 r3( -7x1 ) 1x0"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseTrace(data)
		if err != nil {
			return
		}
		if tr.N == 0 {
			t.Fatal("empty trace accepted")
		}
		got, err := opsFetches(tr.Ops)
		if err != nil || got+1 != tr.N {
			t.Fatalf("inconsistent trace accepted: N=%d ops=%d err=%v", tr.N, got, err)
		}
		// Whatever parses must re-marshal and re-parse to the same trace.
		text, err := tr.MarshalText()
		if err != nil {
			t.Fatalf("marshal of parsed trace: %v", err)
		}
		back, err := ParseTrace(text)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatal("canonical form unstable")
		}
	})
}

// loopBodyOps is the instruction pool fuzzed loop bodies draw from, in
// order, wrapping around.
var loopBodyOps = []string{
	"addu $t2, $t2, $t1",
	"sll  $t3, $t2, 1",
	"xor  $t2, $t2, $t3",
	"srl  $t3, $t2, 3",
	"addu $t4, $t4, $t3",
	"or   $t5, $t4, $t2",
	"subu $t6, $t5, $t1",
	"andi $t3, $t6, 255",
}

// loopSource renders a two-level loop nest: outer trips of an inner loop
// of inner trips over a body of body instructions. With skip > 0 the body
// opens with a forward branch that jumps over its next skip instructions
// on even inner counts, so the fetch stream alternates between two paths.
func loopSource(outer, inner, body, skip int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\tli $t0, %d\n\tli $t4, 0\nouter:\n\tli $t1, %d\n\tli $t2, 1\ninner:\n", outer, inner)
	if skip > 0 {
		b.WriteString("\tandi $t7, $t1, 1\n\tbeq  $t7, $zero, skip\n")
	}
	for i := 0; i < body; i++ {
		if skip > 0 && i == skip {
			b.WriteString("skip:\n")
		}
		fmt.Fprintf(&b, "\t%s\n", loopBodyOps[i%len(loopBodyOps)])
	}
	if skip == body {
		b.WriteString("skip:\n")
	}
	b.WriteString("\taddiu $t1, $t1, -1\n\tbgtz $t1, inner\n\taddiu $t0, $t0, -1\n\tbgtz $t0, outer\n\tli $v0, 10\n\tsyscall\n")
	return b.String()
}

// FuzzReplayMatchesNaive replays small generated loop programs under
// generated encoder configurations and requires MeasureOpts — alone and
// through a MemoStore shared with a same-signature sibling configuration
// — to match the per-fetch walk in total and per line. MeasureBaseline
// must likewise match the raw bus driven on every fetch of the program's
// simulation, total and per line. The arguments pick
// the loop trip counts, the body length and an optional forward branch
// over part of the body, then the block size k (2..8), the TT and BBIT
// capacities (1..16 each), and flag bits for all 16 functions, exact
// chaining and knapsack selection.
func FuzzReplayMatchesNaive(f *testing.F) {
	f.Add(uint8(3), uint8(20), uint8(7), uint8(0), uint8(3), uint8(0xff), uint8(0))
	f.Add(uint8(2), uint8(9), uint8(12), uint8(4), uint8(2), uint8(0x33), uint8(7))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add(uint8(4), uint8(37), uint8(15), uint8(15), uint8(6), uint8(0x0f), uint8(6))
	f.Add(uint8(5), uint8(3), uint8(5), uint8(2), uint8(1), uint8(0xf0), uint8(2))
	f.Fuzz(func(t *testing.T, outer, inner, body, skip, k, capacity, flags uint8) {
		nBody := 1 + int(body%16)
		src := loopSource(1+int(outer%6), 1+int(inner%40), nBody, int(skip)%(nBody+1))
		cp := captureSource(t, src)
		raw, err := MeasureBaseline(nil, cp)
		if err != nil || !sameTotals(raw, Result{Encoded: cp.BaselineTotal, PerLineEncoded: cp.BaselinePerLine}) {
			t.Fatalf("baseline replay %d %v (err %v) != per-fetch bus %d %v\n%s",
				raw.Encoded, raw.PerLineEncoded, err, cp.BaselineTotal, cp.BaselinePerLine, src)
		}
		cfg := core.Config{
			BlockSize:   2 + int(k%7),
			TTEntries:   1 + int(capacity&15),
			BBITEntries: 1 + int(capacity>>4),
		}
		if flags&1 != 0 {
			cfg.Funcs = transform.Preferred()
		}
		if flags&2 != 0 {
			cfg.Strategy = code.Exact
		}
		if flags&4 != 0 {
			cfg.Selection = core.Knapsack
		}
		// The sibling shares cfg's per-block signature but not its
		// capacities or selection policy, so its memos are valid for cfg.
		sibling := cfg
		sibling.TTEntries, sibling.BBITEntries = 0, 0
		sibling.Selection = core.Knapsack
		if cfg.Selection == core.Knapsack {
			sibling.Selection = core.HeatGreedy
		}
		store := NewMemoStore()
		for _, c := range []core.Config{sibling, cfg} {
			want := naiveMeasure(t, cp, c)
			if got := measureWith(t, cp, c, Options{}); !sameTotals(got, want) {
				t.Fatalf("config %+v: replay %d %v != naive %d %v\n%s",
					c, got.Encoded, got.PerLineEncoded, want.Encoded, want.PerLineEncoded, src)
			}
			if got := measureWith(t, cp, c, Options{Shared: store}); !sameTotals(got, want) {
				t.Fatalf("config %+v: shared-store replay %d %v != naive %d %v\n%s",
					c, got.Encoded, got.PerLineEncoded, want.Encoded, want.PerLineEncoded, src)
			}
		}
	})
}
