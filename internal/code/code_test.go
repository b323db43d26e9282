package code

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"imtrans/internal/transform"
)

func randStream(rng *rand.Rand, n int) []uint8 {
	s := make([]uint8, n)
	for i := range s {
		s[i] = uint8(rng.Intn(2))
	}
	return s
}

func streamTransitions(s []uint8) int {
	n := 0
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			n++
		}
	}
	return n
}

func TestEncodeBlockIdentityAlwaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(6)
		orig := randStream(rng, k)
		res, ok := EncodeBlock(orig, orig[0], []transform.Func{transform.Identity})
		if !ok {
			t.Fatalf("identity-only encoding infeasible for %v", orig)
		}
		if !reflect.DeepEqual(res.Code, orig) {
			t.Fatalf("identity encoding altered %v -> %v", orig, res.Code)
		}
	}
}

func TestEncodeBlockNeverWorseThanOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		k := 2 + rng.Intn(6)
		orig := randStream(rng, k)
		res, ok := EncodeBlock(orig, orig[0], transform.Canonical8)
		if !ok {
			t.Fatalf("canonical encoding infeasible for %v", orig)
		}
		if res.Transitions > streamTransitions(orig) {
			t.Fatalf("encoding of %v has %d transitions, original %d",
				orig, res.Transitions, streamTransitions(orig))
		}
	}
}

func TestEncodeBlockDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		k := 2 + rng.Intn(6)
		orig := randStream(rng, k)
		res, ok := EncodeBlock(orig, orig[0], transform.Canonical8)
		if !ok {
			t.Fatal("infeasible")
		}
		got := DecodeBlock(res.Code, res.Tau, true, 0)
		if !reflect.DeepEqual(got, orig) {
			t.Fatalf("round trip %v -> %v -> %v (tau %s)", orig, res.Code, got, res.Tau)
		}
	}
}

func TestEncodeBlockChainedOverlap(t *testing.T) {
	// A chained block whose overlap code bit differs from the original
	// overlap bit must still decode correctly via the encoded history.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		k := 2 + rng.Intn(6)
		orig := randStream(rng, k)
		c0 := uint8(rng.Intn(2)) // arbitrary overlap code bit
		res, ok := EncodeBlock(orig, c0, transform.Canonical8)
		if !ok {
			// Possible only if no function maps; canonical set contains
			// NotX and X so bit 1 is always solvable; deeper conflicts
			// can occur. Skip infeasible draws.
			continue
		}
		if res.Code[0] != c0 {
			t.Fatalf("overlap code bit not preserved: %v vs %d", res.Code, c0)
		}
		got := DecodeBlock(res.Code, res.Tau, false, orig[0])
		if !reflect.DeepEqual(got, orig) {
			t.Fatalf("chained round trip %v (c0=%d) -> %v -> %v (tau %s)",
				orig, c0, res.Code, got, res.Tau)
		}
	}
}

func TestEncodeBlockDegenerate(t *testing.T) {
	if _, ok := EncodeBlock(nil, 0, transform.Canonical8); ok {
		t.Error("empty block reported feasible")
	}
	res, ok := EncodeBlock([]uint8{1}, 1, transform.Canonical8)
	if !ok || res.Code[0] != 1 || res.Transitions != 0 {
		t.Errorf("single-bit block: %+v ok=%v", res, ok)
	}
	long := make([]uint8, MaxBlockSize+1)
	if _, ok := EncodeBlock(long, 0, transform.Canonical8); ok {
		t.Error("oversize block reported feasible")
	}
}

// TestCandidateOrderMatchesDefinition pins the counting-built search
// orders to their definition: every word of width k with the fixed low
// bits, sorted by (transitions, value) and packed as candTable entries.
// It covers the whole h=1 table and the h=2 orders Reduction2 searches.
func TestCandidateOrderMatchesDefinition(t *testing.T) {
	byDefinition := func(k, fixed int, low uint32) []uint32 {
		var want []uint32
		for v := uint32(0); v < 1<<uint(k); v++ {
			if v&(1<<uint(fixed)-1) == low {
				want = append(want, v)
			}
		}
		slices.SortFunc(want, func(a, b uint32) int {
			if c := cmp.Compare(transitionsOf(a, k), transitionsOf(b, k)); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		for i, v := range want {
			want[i] = v | uint32(transitionsOf(v, k))<<candTransShift
		}
		return want
	}
	check := func(k, fixed int, low uint32, got []uint32) {
		t.Helper()
		want := byDefinition(k, fixed, low)
		if len(got) != len(want) {
			t.Fatalf("k=%d low bits %0*b: %d words, want %d", k, fixed, low, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d low bits %0*b: entry %d is %#x, want %#x", k, fixed, low, i, got[i], want[i])
			}
		}
	}
	for k := 1; k <= MaxBlockSize; k++ {
		for b0 := uint8(0); b0 < 2; b0++ {
			check(k, 1, uint32(b0), candidateOrder(k, b0))
		}
	}
	for k := 3; k <= MaxTableBlockSize; k++ {
		for low := uint32(0); low < 4; low++ {
			check(k, 2, low, countingOrder(k, 2, low))
		}
	}
}

// TestFigure2 checks the exact published table for three-bit blocks.
func TestFigure2(t *testing.T) {
	want := []struct {
		word, code string
		tau        transform.Func
		tx, txe    int
	}{
		{"000", "000", transform.X, 0, 0},
		{"001", "111", transform.NotX, 1, 0},
		{"010", "000", transform.NotY, 2, 0},
		{"011", "011", transform.X, 1, 1},
		{"100", "100", transform.X, 1, 1},
		{"101", "111", transform.NotY, 2, 0},
		{"110", "000", transform.NotX, 1, 0},
		{"111", "111", transform.X, 0, 0},
	}
	rows, err := OptimalTable(3, transform.Preferred())
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		r := rows[i]
		if r.Word != w.word || r.CodeWord != w.code || r.Tau != w.tau ||
			r.Transitions != w.tx || r.CodeTrans != w.txe {
			t.Errorf("row %s: got (%s, %s, Tx=%d, Tx~=%d), want (%s, %s, Tx=%d, Tx~=%d)",
				w.word, r.CodeWord, r.Tau, r.Transitions, r.CodeTrans,
				w.code, w.tau, w.tx, w.txe)
		}
	}
}

// TestFigure4 checks the exact published table for five-bit blocks under
// the 8-function restriction (first half; the second half follows by the
// inversion symmetry, which TestFigure4Symmetry verifies).
func TestFigure4(t *testing.T) {
	want := []struct {
		word, code string
		tau        transform.Func
		tx, txe    int
	}{
		{"00000", "00000", transform.X, 0, 0},
		{"00001", "11111", transform.NotX, 1, 0},
		{"00010", "11100", transform.NotX, 2, 1},
		{"00011", "00011", transform.X, 1, 1},
		{"00100", "00100", transform.X, 2, 2},
		{"00101", "01111", transform.XOR, 3, 1},
		{"00110", "11000", transform.NotX, 2, 1},
		{"00111", "00111", transform.X, 1, 1},
		{"01000", "11000", transform.XOR, 2, 1},
		{"01001", "00111", transform.NOR, 3, 1},
		{"01010", "00000", transform.NotY, 4, 0},
		{"01011", "00011", transform.XNOR, 3, 1},
		{"01100", "01100", transform.X, 2, 2},
		{"01101", "10011", transform.NotX, 3, 2},
		{"01110", "10000", transform.NotX, 2, 1},
		{"01111", "01111", transform.X, 1, 1},
	}
	rows, err := OptimalTable(5, transform.Canonical8)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		r := rows[i]
		if r.Word != w.word || r.CodeWord != w.code || r.Tau != w.tau ||
			r.Transitions != w.tx || r.CodeTrans != w.txe {
			t.Errorf("row %s: got (%s, %s, Tx=%d, Tx~=%d), want (%s, %s, Tx=%d, Tx~=%d)",
				w.word, r.CodeWord, r.Tau, r.Transitions, r.CodeTrans,
				w.code, w.tau, w.tx, w.txe)
		}
	}
}

// TestFigure4Symmetry verifies the paper's symmetry argument: the second
// half of the five-bit table is the bitwise complement of the first half
// with conjugated transformations and identical transition counts.
func TestFigure4Symmetry(t *testing.T) {
	rows, err := OptimalTable(5, transform.Canonical8)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 16; v++ {
		lo, hi := rows[v], rows[31-v] // complement of v within 5 bits
		if lo.Transitions != hi.Transitions || lo.CodeTrans != hi.CodeTrans {
			t.Errorf("symmetry broken for %s / %s: transitions (%d,%d) vs (%d,%d)",
				lo.Word, hi.Word, lo.Transitions, lo.CodeTrans, hi.Transitions, hi.CodeTrans)
		}
	}
}

// TestFigure3 checks the theoretical reduction numbers. The paper's
// size-6 entry (TTN 320, RTN 180) is exactly double the true count and its
// size-7 RTN (234) is below the exhaustive optimum (236); the improvement
// percentages are what the paper's text relies on, and they match for
// every size except 7 (39.1 printed vs 38.5 exact). See EXPERIMENTS.md.
func TestFigure3(t *testing.T) {
	want := []Reduction{
		{K: 2, TTN: 2, RTN: 0, Improvement: 100.0},
		{K: 3, TTN: 8, RTN: 2, Improvement: 75.0},
		{K: 4, TTN: 24, RTN: 10, Improvement: 58.3},
		{K: 5, TTN: 64, RTN: 32, Improvement: 50.0},
		{K: 6, TTN: 160, RTN: 90, Improvement: 43.8},
		{K: 7, TTN: 384, RTN: 236, Improvement: 38.5},
	}
	for _, w := range want {
		got, err := TheoreticalReduction(w.K, transform.All())
		if err != nil {
			t.Fatal(err)
		}
		if got.TTN != w.TTN || got.RTN != w.RTN {
			t.Errorf("k=%d: got TTN=%d RTN=%d, want TTN=%d RTN=%d",
				w.K, got.TTN, got.RTN, w.TTN, w.RTN)
		}
		if diff := got.Improvement - w.Improvement; diff > 0.05 || diff < -0.05 {
			t.Errorf("k=%d: improvement %.2f, want %.1f", w.K, got.Improvement, w.Improvement)
		}
	}
}

// TestRestrictionDoesNotHurt is the paper's Section 5.2 headline: the
// 8-function restriction achieves the unrestricted optimum at every block
// size up to seven.
func TestRestrictionDoesNotHurt(t *testing.T) {
	for k := 2; k <= 7; k++ {
		full, err := TheoreticalReduction(k, transform.All())
		if err != nil {
			t.Fatal(err)
		}
		restricted, err := TheoreticalReduction(k, transform.Canonical8)
		if err != nil {
			t.Fatal(err)
		}
		if restricted.RTN != full.RTN {
			t.Errorf("k=%d: restricted RTN %d != full RTN %d", k, restricted.RTN, full.RTN)
		}
	}
}

// TestEightFunctionSufficiency reproduces (and sharpens) the Section 5.2
// subset search. The paper reports that a unique subset of 8
// transformations suffices for global optimality at all block sizes 2..7;
// exhaustive search confirms the 8-set is sufficient (see
// TestRestrictionDoesNotHurt) but shows the unique *minimal* sufficient
// subset has only 6 elements — {x, ~x, x^y, ~(x^y), ~(x|y), ~(x&y)} — a
// strict subset of the paper's set (y and ~y are redundant: XNOR/XOR reach
// every zero-transition code the history projections reach). The set is
// closed under the inversion symmetry, as the paper's argument requires.
func TestEightFunctionSufficiency(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive subset search")
	}
	rep, err := MinimalSufficientSet([]int{2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MinSize != 6 {
		t.Fatalf("minimal sufficient subset size = %d, want 6", rep.MinSize)
	}
	if len(rep.Subsets) != 1 {
		t.Fatalf("minimal sufficient subset not unique: %v", rep.Subsets)
	}
	got := map[transform.Func]bool{}
	for _, f := range rep.Subsets[0] {
		got[f] = true
	}
	want := []transform.Func{transform.X, transform.NotX, transform.XOR,
		transform.XNOR, transform.NOR, transform.NAND}
	if len(got) != len(want) {
		t.Fatalf("subset = %v", rep.Subsets[0])
	}
	canonical := map[transform.Func]bool{}
	for _, f := range transform.Canonical8 {
		canonical[f] = true
	}
	for _, f := range want {
		if !got[f] {
			t.Errorf("minimal subset missing %s: %v", f, rep.Subsets[0])
		}
	}
	for f := range got {
		if !canonical[f] {
			t.Errorf("minimal subset member %s outside the paper's 8-set", f)
		}
		if !got[f.Conjugate()] {
			t.Errorf("minimal subset not closed under conjugation at %s", f)
		}
	}
}

func TestNumBlocks(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{0, 5, 0}, {1, 5, 0}, {2, 5, 1}, {5, 5, 1}, {6, 5, 2},
		{9, 5, 2}, {10, 5, 3}, {100, 5, 25}, {7, 4, 2}, {8, 4, 3},
		{2, 2, 1}, {3, 2, 2},
	}
	for _, c := range cases {
		if got := NumBlocks(c.n, c.k); got != c.want {
			t.Errorf("NumBlocks(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestEncodeChainRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(80)
		k := 2 + rng.Intn(6)
		stream := randStream(rng, n)
		for _, strat := range []Strategy{Greedy, Exact} {
			ch, err := EncodeChain(stream, k, transform.Canonical8, strat)
			if err != nil {
				t.Fatalf("%v: %v", strat, err)
			}
			if got := ch.Decode(); !reflect.DeepEqual(got, stream) && !(len(stream) == 0 && len(got) == 0) {
				t.Fatalf("%v round trip failed: %v -> %v -> %v", strat, stream, ch.Code, got)
			}
			if want := NumBlocks(n, k); len(ch.Taus) != want {
				t.Fatalf("%v: %d taus, want %d (n=%d k=%d)", strat, len(ch.Taus), want, n, k)
			}
		}
	}
}

func TestEncodeChainNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(100)
		k := 2 + rng.Intn(6)
		stream := randStream(rng, n)
		ch, err := EncodeChain(stream, k, transform.Canonical8, Greedy)
		if err != nil {
			t.Fatal(err)
		}
		if ch.Transitions() > streamTransitions(stream) {
			t.Fatalf("greedy chain worse than original: %d > %d (k=%d)",
				ch.Transitions(), streamTransitions(stream), k)
		}
	}
}

func TestExactNeverWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(120)
		k := 2 + rng.Intn(6)
		stream := randStream(rng, n)
		g, err := EncodeChain(stream, k, transform.Canonical8, Greedy)
		if err != nil {
			t.Fatal(err)
		}
		e, err := EncodeChain(stream, k, transform.Canonical8, Exact)
		if err != nil {
			t.Fatal(err)
		}
		if e.Transitions() > g.Transitions() {
			t.Fatalf("exact (%d) worse than greedy (%d) on %v k=%d",
				e.Transitions(), g.Transitions(), stream, k)
		}
	}
}

func TestEncodeChainQuickProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	err := quick.Check(func(raw []byte, kRaw uint8) bool {
		k := 2 + int(kRaw%6)
		stream := make([]uint8, len(raw))
		for i, b := range raw {
			stream[i] = b & 1
		}
		ch, err := EncodeChain(stream, k, transform.Canonical8, Greedy)
		if err != nil {
			return false
		}
		dec := ch.Decode()
		if len(dec) != len(stream) {
			return false
		}
		for i := range dec {
			if dec[i] != stream[i] {
				return false
			}
		}
		return ch.Transitions() <= streamTransitions(stream)
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestEncodeChainErrors(t *testing.T) {
	if _, err := EncodeChain([]uint8{0, 1}, 1, transform.Canonical8, Greedy); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := EncodeChain([]uint8{0, 1}, MaxBlockSize+1, transform.Canonical8, Greedy); err == nil {
		t.Error("oversized k accepted")
	}
	if _, err := EncodeChain([]uint8{0, 1}, 4, transform.Canonical8, Strategy(99)); err == nil {
		t.Error("unknown strategy accepted")
	}
	// Infeasible set: Y alone cannot track an alternating stream.
	if _, err := EncodeChain([]uint8{0, 1, 1}, 3, []transform.Func{transform.Y}, Greedy); err == nil {
		t.Error("infeasible function set accepted")
	}
}

func TestEncodeChainShortStreams(t *testing.T) {
	for _, stream := range [][]uint8{nil, {1}, {0, 1}} {
		ch, err := EncodeChain(stream, 5, transform.Canonical8, Greedy)
		if err != nil {
			t.Fatal(err)
		}
		if got := ch.Decode(); !reflect.DeepEqual(got, ch.Code) && len(stream) < 2 {
			t.Errorf("short stream decode mismatch: %v vs %v", got, ch.Code)
		}
		if dec := ch.Decode(); len(dec) != len(stream) {
			t.Errorf("length changed: %d vs %d", len(dec), len(stream))
		}
	}
}

func TestRandomExperimentSection6(t *testing.T) {
	res, err := RandomExperiment(100, 1000, 5, Greedy, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Expected != 50.0 {
		t.Errorf("expected reduction for k=5 = %.1f, want 50.0", res.Expected)
	}
	// Paper: within 1%% of the expected 50%% — holds for the mean over
	// many streams; individual 1000-bit streams scatter a few points.
	if res.MeanReduction < 49.0 || res.MeanReduction > 51.0 {
		t.Errorf("mean reduction %.2f%% outside 50±1%%", res.MeanReduction)
	}
	if res.MinReduction > res.MeanReduction || res.MaxReduction < res.MeanReduction {
		t.Errorf("min/mean/max inconsistent: %+v", res)
	}
}

func TestStrategyString(t *testing.T) {
	if Greedy.String() != "greedy" || Exact.String() != "exact" {
		t.Error("strategy names changed")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy must render")
	}
}

func TestMinimalSufficientSetErrors(t *testing.T) {
	if _, err := MinimalSufficientSet([]int{1}); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := MinimalSufficientSet([]int{13}); err == nil {
		t.Error("k=13 accepted")
	}
}
