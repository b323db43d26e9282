package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"imtrans/internal/cfg"
	"imtrans/internal/code"
	"imtrans/internal/transform"
)

// naiveKnapsack is the full-table reference for selectKnapsack: one value
// row per item, so the walk back compares each row with the one before.
func naiveKnapsack(cands []Plan, c Config) ([]bool, error) {
	n := len(cands)
	w := c.TTEntries
	m := c.BBITEntries
	if m > n {
		m = n
	}
	cells := (w + 1) * (m + 1)
	if n*cells > 50_000_000 {
		return nil, fmt.Errorf("core: knapsack instance too large (%d blocks, TT %d, BBIT %d)", n, w, m)
	}
	dp := make([][]float64, n+1)
	dp[0] = make([]float64, cells)
	for i := 1; i <= n; i++ {
		dp[i] = make([]float64, cells)
		copy(dp[i], dp[i-1])
		wi := cands[i-1].TTCount
		vi := knapsackValue(&cands[i-1])
		for j := wi; j <= w; j++ {
			for b := 1; b <= m; b++ {
				if cand := dp[i-1][(j-wi)*(m+1)+b-1] + vi; cand > dp[i][j*(m+1)+b] {
					dp[i][j*(m+1)+b] = cand
				}
			}
		}
	}
	bestJ, bestB := 0, 0
	for j := 0; j <= w; j++ {
		for b := 0; b <= m; b++ {
			if dp[n][j*(m+1)+b] > dp[n][bestJ*(m+1)+bestB] {
				bestJ, bestB = j, b
			}
		}
	}
	chosen := make([]bool, n)
	j, b := bestJ, bestB
	for i := n; i >= 1; i-- {
		if dp[i][j*(m+1)+b] == dp[i-1][j*(m+1)+b] {
			continue
		}
		chosen[i-1] = true
		j -= cands[i-1].TTCount
		b--
	}
	return chosen, nil
}

// knapsackInstance decodes a knapsack instance from bytes: four per item
// (TT entries, block length, heat, and original/encoded transitions packed
// into one byte, so a block may lose transitions as well as save them),
// with small ranges so equal values and ties are common.
func knapsackInstance(data []byte, tt, bbit byte) ([]Plan, Config) {
	var cands []Plan
	for len(data) >= 4 && len(cands) < 24 {
		cands = append(cands, Plan{
			TTCount:         1 + int(data[0]%4),
			Count:           2 + int(data[1]%6),
			Heat:            uint64(data[2] % 32),
			OrigTransitions: int(data[3] % 16),
			CodeTransitions: int(data[3] >> 4),
		})
		data = data[4:]
	}
	return cands, Config{TTEntries: 1 + int(tt%24), BBITEntries: 1 + int(bbit%12)}
}

// TestKnapsackMatchesNaive checks the two-row selection against the
// full-table reference on random instances, ties and negative savings
// included.
func TestKnapsackMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 5000; iter++ {
		data := make([]byte, 4*rng.Intn(20))
		rng.Read(data)
		cands, c := knapsackInstance(data, byte(rng.Intn(256)), byte(rng.Intn(256)))
		got, err := selectKnapsack(cands, c)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := naiveKnapsack(cands, c)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("instance %d (TT %d, BBIT %d, %d blocks): chose %v, reference %v",
				iter, c.TTEntries, c.BBITEntries, len(cands), got, want)
		}
	}
	// Both refuse the same oversized instance with the same error.
	big := make([]Plan, 100)
	for i := range big {
		big[i] = Plan{TTCount: 1, Count: 2}
	}
	c := Config{TTEntries: 5000, BBITEntries: 100}
	_, gotErr := selectKnapsack(big, c)
	_, wantErr := naiveKnapsack(big, c)
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Errorf("oversized instance: error %v, reference %v", gotErr, wantErr)
	}
}

func FuzzKnapsackMatchesNaive(f *testing.F) {
	f.Add([]byte{}, byte(4), byte(4))
	f.Add([]byte{1, 3, 7, 0x21, 0, 2, 7, 0x21, 2, 5, 30, 0xf0}, byte(3), byte(2))
	f.Add([]byte{3, 3, 3, 0x0f, 3, 3, 3, 0x0f, 3, 3, 3, 0x0f}, byte(7), byte(1))
	f.Fuzz(func(t *testing.T, data []byte, tt, bbit byte) {
		cands, c := knapsackInstance(data, tt, bbit)
		got, err := selectKnapsack(cands, c)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := naiveKnapsack(cands, c)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TT %d, BBIT %d, %d blocks: chose %v, reference %v",
				c.TTEntries, c.BBITEntries, len(cands), got, want)
		}
	})
}

// chainSrc generates a straight-line program of n four-instruction basic
// blocks, each closed by a taken branch to the next, then the exit block.
func chainSrc(n int) string {
	var b strings.Builder
	b.WriteString("\tli $t0, 1\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "b%d:\n\taddiu $t1, $t1, %d\n\txor $t2, $t1, $t0\n\tsll $t3, $t2, %d\n\tbne $t0, $zero, b%d\n",
			i, 3*i+1, i%31, i+1)
	}
	fmt.Fprintf(&b, "b%d:\n\tli $v0, 10\n\tsyscall\n", n)
	return b.String()
}

// TestKnapsackEncodeBytes bounds the memory of a knapsack encode at the
// largest instance the selection accepts: 108 candidate blocks against a
// 4096-entry TT and BBIT. Keeping one value row per block cost ~380 MB.
func TestKnapsackEncodeBytes(t *testing.T) {
	g, prof := buildAndProfile(t, chainSrc(107))
	n := 0
	for _, bi := range g.HotBlocks(prof) {
		if g.Blocks[bi].Count >= 2 {
			n++
		}
	}
	if n != 108 {
		t.Fatalf("generated program has %d candidate blocks, want 108", n)
	}
	c := Config{TTEntries: 4096, BBITEntries: 4096, Selection: Knapsack}
	if _, err := Encode(g, prof, c); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	enc, err := Encode(g, prof, c)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.Plans) != 108 {
		t.Errorf("%d blocks covered, want all 108", len(enc.Plans))
	}
	const budget = 32 << 20
	b := after.TotalAlloc - before.TotalAlloc
	t.Logf("knapsack encode allocated %.1f MB", float64(b)/(1<<20))
	if b > budget {
		t.Errorf("knapsack encode allocated %d MB, budget %d MB", b>>20, budget>>20)
	}
}

// TestCandidateSetCancelledBuild checks a cancelled build returns the
// context's error unwrapped and leaves the set empty for the next encode.
func TestCandidateSetCancelledBuild(t *testing.T) {
	g, prof := buildAndProfile(t, manyBlocksSrc)
	set := new(CandidateSet)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EncodeCtxOpts(ctx, g, prof, Config{}, EncodeOpts{Candidates: set}); err != context.Canceled {
		t.Fatalf("cancelled build returned %v, want context.Canceled", err)
	}
	if set.Built() {
		t.Fatal("a cancelled build left a candidate list")
	}
	got, err := EncodeCtxOpts(context.Background(), g, prof, Config{}, EncodeOpts{Candidates: set})
	if err != nil {
		t.Fatal(err)
	}
	if !set.Built() {
		t.Fatal("the encode after a cancelled build built no list")
	}
	want, err := Encode(g, prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("encode through a rebuilt set differs from a private encode")
	}
}

// TestCandidateSetRefusesMismatch checks a built set serves any capacity
// or selection policy but refuses another graph, another profile and
// every other per-block signature.
func TestCandidateSetRefusesMismatch(t *testing.T) {
	g, prof := buildAndProfile(t, loopSrc)
	other, otherProf := buildAndProfile(t, manyBlocksSrc)
	set := new(CandidateSet)
	encode := func(g *cfg.Graph, prof []uint64, c Config) error {
		_, err := EncodeCtxOpts(context.Background(), g, prof, c, EncodeOpts{Candidates: set})
		return err
	}
	for _, c := range []Config{
		{BlockSize: 5},
		{BlockSize: 5, TTEntries: 2},
		{BlockSize: 5, BBITEntries: 1, Selection: Knapsack},
	} {
		if err := encode(g, prof, c); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
	swapped := append([]transform.Func{transform.Canonical8[1], transform.Canonical8[0]}, transform.Canonical8[2:]...)
	for _, tc := range []struct {
		name string
		g    *cfg.Graph
		prof []uint64
		c    Config
	}{
		{"graph", other, otherProf, Config{BlockSize: 5}},
		{"profile", g, append([]uint64(nil), prof...), Config{BlockSize: 5}},
		{"block size", g, prof, Config{BlockSize: 4}},
		{"functions", g, prof, Config{BlockSize: 5, Funcs: transform.Preferred()}},
		{"function order", g, prof, Config{BlockSize: 5, Funcs: swapped}},
		{"strategy", g, prof, Config{BlockSize: 5, Strategy: code.Exact}},
		{"bus width", g, prof, Config{BlockSize: 5, BusWidth: 16}},
	} {
		if err := encode(tc.g, tc.prof, tc.c); err == nil || !strings.Contains(err.Error(), "candidate set") {
			t.Errorf("%s mismatch: error %v, want a candidate-set refusal", tc.name, err)
		}
	}
}

// TestCandidateSetConcurrentEncodes runs encodes of every capacity and
// selection variant through one set from several goroutines at once (CI
// runs it under -race); each must equal its private encode.
func TestCandidateSetConcurrentEncodes(t *testing.T) {
	g, prof := buildAndProfile(t, manyBlocksSrc)
	var cfgs []Config
	for _, tt := range []int{1, 2, 3, 4, 8, 16} {
		for _, sel := range []Selection{HeatGreedy, Knapsack} {
			cfgs = append(cfgs, Config{BlockSize: 4, TTEntries: tt, BBITEntries: 1 + tt%3, Selection: sel})
		}
	}
	want := make([]*Encoding, len(cfgs))
	for i, c := range cfgs {
		enc, err := Encode(g, prof, c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = enc
	}
	set := new(CandidateSet)
	got := make([]*Encoding, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, c := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = EncodeCtxOpts(context.Background(), g, prof, c, EncodeOpts{Candidates: set})
		}()
	}
	wg.Wait()
	for i, c := range cfgs {
		if errs[i] != nil {
			t.Fatalf("%+v: %v", c, errs[i])
		}
		if err := got[i].Verify(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%+v: encode through the shared set differs from a private encode", c)
		}
	}
}
