package core

import (
	"testing"

	"imtrans/internal/asm"
	"imtrans/internal/bitline"
	"imtrans/internal/cfg"
	"imtrans/internal/code"
	"imtrans/internal/cpu"
	"imtrans/internal/transform"
)

// loopSrc is a small kernel with one hot loop and cold prologue/epilogue.
const loopSrc = `
	li   $t0, 200
	li   $t1, 0
loop:
	addu $t1, $t1, $t0
	sll  $t2, $t0, 2
	xor  $t3, $t1, $t2
	addiu $t0, $t0, -1
	bgtz $t0, loop
	li $v0, 10
	syscall
`

// buildAndProfile assembles src, runs it, and returns the CFG and profile.
func buildAndProfile(t *testing.T, src string) (*cfg.Graph, []uint64) {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c, err := cpu.New(cpu.Program{Base: obj.TextBase, Words: obj.TextWords}, nil)
	if err != nil {
		t.Fatalf("cpu: %v", err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	g, err := cfg.Build(obj.TextBase, obj.TextWords)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return g, c.Profile()
}

func TestEncodeCoversHotLoop(t *testing.T) {
	g, prof := buildAndProfile(t, loopSrc)
	enc, err := Encode(g, prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.Plans) == 0 {
		t.Fatal("nothing covered")
	}
	// The hottest plan must be the loop body block.
	hottest := enc.Plans[0]
	loops := g.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("loops = %+v", loops)
	}
	if hottest.Block != loops[0].Head {
		t.Errorf("hottest covered block %d, loop head %d", hottest.Block, loops[0].Head)
	}
	if enc.Coverage() < 90 {
		t.Errorf("coverage = %.1f%%, want >90%% for a tight loop", enc.Coverage())
	}
	if enc.TTUsed > enc.Config.TTEntries {
		t.Errorf("TT overcommitted: %d > %d", enc.TTUsed, enc.Config.TTEntries)
	}
}

func TestEncodeVerifyRoundTrip(t *testing.T) {
	g, prof := buildAndProfile(t, loopSrc)
	for _, k := range []int{2, 3, 4, 5, 6, 7} {
		for _, strat := range []code.Strategy{code.Greedy, code.Exact} {
			enc, err := Encode(g, prof, Config{BlockSize: k, Strategy: strat})
			if err != nil {
				t.Fatalf("k=%d %v: %v", k, strat, err)
			}
			if err := enc.Verify(); err != nil {
				t.Errorf("k=%d %v: %v", k, strat, err)
			}
		}
	}
}

func TestEncodeReducesStaticTransitions(t *testing.T) {
	g, prof := buildAndProfile(t, loopSrc)
	enc, err := Encode(g, prof, Config{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if enc.StaticEncoded > enc.StaticOriginal {
		t.Errorf("encoding increased transitions: %d > %d", enc.StaticEncoded, enc.StaticOriginal)
	}
	if enc.StaticReduction() <= 0 {
		t.Errorf("no static reduction: %+v", enc)
	}
}

func TestEncodedImageDiffersOnlyInCoveredBlocks(t *testing.T) {
	g, prof := buildAndProfile(t, loopSrc)
	enc, err := Encode(g, prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]bool, len(g.Words))
	for _, p := range enc.Plans {
		start := int(p.StartPC-g.Base) / 4
		for i := 0; i < p.Count; i++ {
			covered[start+i] = true
		}
	}
	for i := range g.Words {
		if !covered[i] && enc.EncodedWords[i] != g.Words[i] {
			t.Errorf("uncovered word %d modified", i)
		}
	}
}

func TestFirstInstructionOfCoveredBlockUnchanged(t *testing.T) {
	g, prof := buildAndProfile(t, loopSrc)
	enc, err := Encode(g, prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range enc.Plans {
		orig := g.Instructions(p.Block)
		if p.Encoded[0] != orig[0] {
			t.Errorf("block %d: first word changed %#x -> %#x (must be passthrough)",
				p.Block, orig[0], p.Encoded[0])
		}
	}
}

func TestTTBudgetRespected(t *testing.T) {
	g, prof := buildAndProfile(t, loopSrc)
	enc, err := Encode(g, prof, Config{TTEntries: 1, BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if enc.TTUsed > 1 {
		t.Errorf("TTUsed = %d with budget 1", enc.TTUsed)
	}
	// The 5-instruction loop body needs exactly 1 entry at k=5, so it fits;
	// larger blocks must have been skipped.
	if len(enc.Plans) == 0 {
		t.Error("budget of one entry should still cover the 5-instruction loop at k=5")
	}
}

func TestBBITBudgetRespected(t *testing.T) {
	g, prof := buildAndProfile(t, loopSrc)
	enc, err := Encode(g, prof, Config{BBITEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.Plans) != 1 {
		t.Errorf("%d plans with BBIT budget 1", len(enc.Plans))
	}
	if enc.SkippedByBBIT == 0 {
		t.Error("expected skipped blocks to be recorded")
	}
}

func TestTailCTRange(t *testing.T) {
	g, prof := buildAndProfile(t, loopSrc)
	for k := 2; k <= 7; k++ {
		enc, err := Encode(g, prof, Config{BlockSize: k, TTEntries: 64})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range enc.Plans {
			if p.TailCT < 1 || p.TailCT > k-1 {
				t.Errorf("k=%d block %d: TailCT=%d out of [1,%d]", k, p.Block, p.TailCT, k-1)
			}
			want := (p.Count - 1) - (p.TTCount-1)*(k-1)
			if p.TailCT != want {
				t.Errorf("k=%d block %d: TailCT=%d, want %d", k, p.Block, p.TailCT, want)
			}
		}
	}
}

func TestNarrowBusPreservesHighBits(t *testing.T) {
	g, prof := buildAndProfile(t, loopSrc)
	enc, err := Encode(g, prof, Config{BusWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, p := range enc.Plans {
		orig := g.Instructions(p.Block)
		for i := range orig {
			if p.Encoded[i]>>8 != orig[i]>>8 {
				t.Errorf("high bits of word %d modified on 8-bit bus", i)
			}
		}
	}
}

func TestPlanLookup(t *testing.T) {
	g, prof := buildAndProfile(t, loopSrc)
	enc, err := Encode(g, prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := enc.Plans[0]
	got, ok := enc.PlanForPC(p.StartPC)
	if !ok || got.Block != p.Block {
		t.Errorf("PlanForPC(%#x) = %+v, %v", p.StartPC, got, ok)
	}
	if _, ok := enc.PlanForPC(0xdeadbeec); ok {
		t.Error("bogus PC matched a plan")
	}
}

func TestEncodeConfigErrors(t *testing.T) {
	g, prof := buildAndProfile(t, loopSrc)
	bad := []Config{
		{BlockSize: 1},
		{BlockSize: code.MaxBlockSize + 1},
		{TTEntries: -1},
		{BBITEntries: -1},
		{BusWidth: 33},
		{Funcs: []transform.Func{}},
	}
	// Funcs: empty non-nil slice must be rejected (nil means default).
	for i, c := range bad {
		if i == 5 {
			c.Funcs = []transform.Func{}
		}
		if _, err := Encode(g, prof, c); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	if _, err := Encode(g, prof[:1], Config{}); err == nil {
		t.Error("short profile accepted")
	}
}

func TestExactStrategyNeverWorseStatically(t *testing.T) {
	g, prof := buildAndProfile(t, loopSrc)
	for k := 3; k <= 7; k++ {
		greedy, err := Encode(g, prof, Config{BlockSize: k, Strategy: code.Greedy})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := Encode(g, prof, Config{BlockSize: k, Strategy: code.Exact})
		if err != nil {
			t.Fatal(err)
		}
		if exact.StaticEncoded > greedy.StaticEncoded {
			t.Errorf("k=%d: exact %d worse than greedy %d", k, exact.StaticEncoded, greedy.StaticEncoded)
		}
	}
}

// manyBlocksSrc has several warm blocks of different sizes and heats so
// that selection policies can disagree under tight budgets.
const manyBlocksSrc = `
	li   $t0, 300
outer:
	li   $t1, 4
inner1:
	xor  $t2, $t2, $t0
	sll  $t3, $t0, 3
	addu $t2, $t2, $t3
	srl  $t4, $t2, 2
	or   $t5, $t4, $t0
	and  $t6, $t5, $t3
	addiu $t1, $t1, -1
	bgtz $t1, inner1
	li   $t1, 2
inner2:
	subu $t7, $t0, $t1
	nor  $t8, $t7, $t2
	addiu $t1, $t1, -1
	bgtz $t1, inner2
	addiu $t0, $t0, -1
	bgtz $t0, outer
	li $v0, 10
	syscall
`

func TestKnapsackSelection(t *testing.T) {
	g, prof := buildAndProfile(t, manyBlocksSrc)
	for _, tt := range []int{1, 2, 3, 4, 6} {
		greedy, err := Encode(g, prof, Config{BlockSize: 5, TTEntries: tt, Selection: HeatGreedy})
		if err != nil {
			t.Fatal(err)
		}
		knap, err := Encode(g, prof, Config{BlockSize: 5, TTEntries: tt, Selection: Knapsack})
		if err != nil {
			t.Fatal(err)
		}
		if err := knap.Verify(); err != nil {
			t.Fatal(err)
		}
		if knap.TTUsed > tt {
			t.Errorf("TT=%d: knapsack overcommitted %d entries", tt, knap.TTUsed)
		}
		// The knapsack objective (estimated dynamic savings) must be at
		// least the greedy selection's.
		objective := func(e *Encoding) float64 {
			v := 0.0
			for _, p := range e.Plans {
				v += float64(p.Heat) / float64(p.Count) * float64(p.OrigTransitions-p.CodeTransitions)
			}
			return v
		}
		if objective(knap)+1e-9 < objective(greedy) {
			t.Errorf("TT=%d: knapsack objective %.1f below greedy %.1f",
				tt, objective(knap), objective(greedy))
		}
	}
}

func TestKnapsackRespectsBBIT(t *testing.T) {
	g, prof := buildAndProfile(t, manyBlocksSrc)
	enc, err := Encode(g, prof, Config{BlockSize: 4, TTEntries: 64, BBITEntries: 2, Selection: Knapsack})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.Plans) > 2 {
		t.Errorf("knapsack ignored BBIT: %d plans", len(enc.Plans))
	}
}

func TestSelectionString(t *testing.T) {
	if HeatGreedy.String() != "heat-greedy" || Knapsack.String() != "knapsack" {
		t.Error("selection names changed")
	}
	if Selection(9).String() == "" {
		t.Error("unknown selection must render")
	}
}

func TestUnknownSelectionRejected(t *testing.T) {
	g, prof := buildAndProfile(t, loopSrc)
	if _, err := Encode(g, prof, Config{Selection: Selection(9)}); err == nil {
		t.Error("unknown selection accepted")
	}
}

func TestVerticalStreamsMatchWords(t *testing.T) {
	// Sanity link between core's view and bitline: reassembled encoded
	// streams must equal the plan's encoded words.
	g, prof := buildAndProfile(t, loopSrc)
	enc, err := Encode(g, prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range enc.Plans {
		streams := bitline.ExtractAll(p.Encoded, 32)
		back := bitline.Assemble(streams)
		for i := range back {
			if back[i] != p.Encoded[i] {
				t.Fatalf("roundtrip mismatch")
			}
		}
	}
}

// TestEncodeWarmAllocs pins the pooled-scratch contract of the packed
// encoder: once the scratch pool is primed, a whole Encode allocates only
// its outputs (plans, tau tables, encoded image, block table), bounded by
// a small fixed budget.
func TestEncodeWarmAllocs(t *testing.T) {
	g, profile := buildAndProfile(t, loopSrc)
	if _, err := Encode(g, profile, Config{}); err != nil {
		t.Fatal(err) // prime the scratch pool
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Encode(g, profile, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 60
	if allocs > budget {
		t.Errorf("warm Encode: %.0f allocs/op, budget %d", allocs, budget)
	}
}
