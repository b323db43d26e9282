package imtrans

import (
	"context"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"testing"

	"imtrans/internal/baseline"
	"imtrans/internal/cfg"
	"imtrans/internal/core"
	"imtrans/internal/hw"
	"imtrans/internal/icache"
	"imtrans/internal/isa"
	"imtrans/internal/power"
	"imtrans/internal/rtl"
	"imtrans/internal/trace"
)

// simulatedIndices runs the program once through the CPU with a per-fetch
// hook and returns the text index of every fetch in order: the
// independent reference stream the study differentials below derive
// their expected numbers from.
func simulatedIndices(t *testing.T, p *Program, setup func(Memory) error) []int32 {
	t.Helper()
	m, err := newMachine(p, setup)
	if err != nil {
		t.Fatal(err)
	}
	var idx []int32
	m.OnFetch = func(pc, word uint32) { idx = append(idx, int32(pc-p.TextBase)/4) }
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return idx
}

// profileOf counts the executions of every text index in a fetch stream.
func profileOf(p *Program, idx []int32) []uint64 {
	profile := make([]uint64, len(p.Text))
	for _, i := range idx {
		profile[i]++
	}
	return profile
}

// studyConfigs are the encoding configurations the study differentials
// run: two block sizes, a tight table budget and knapsack selection.
var studyConfigs = []Config{
	{BlockSize: 4},
	{BlockSize: 5},
	{BlockSize: 7, TTEntries: 4},
	{BlockSize: 5, Knapsack: true},
}

// TestStudiesMatchSimulation derives the address-bus, cached-system,
// annotated-trace and RTL-testbench studies of all nine kernels from one
// per-fetch simulation each, with naive per-word models, and requires
// every study to report exactly those values.
func TestStudiesMatchSimulation(t *testing.T) {
	for _, b := range append(Benchmarks(), ExtraBenchmarks()...) {
		b := testScale(b)
		t.Run(b.Name, func(t *testing.T) {
			p, err := b.Program()
			if err != nil {
				t.Fatal(err)
			}
			idx := simulatedIndices(t, p, b.setup)
			checkAddressBusStudy(t, b, p, idx)
			checkCacheStudy(t, b, p, idx)
			checkTraceStudy(t, b, p, idx)
			checkTestbenchStudy(t, b, p, idx)
		})
	}
}

func checkAddressBusStudy(t *testing.T, b Benchmark, p *Program, idx []int32) {
	t.Helper()
	bus := baseline.NewAddrBus(32, 4)
	for _, i := range idx {
		bus.Transfer(p.TextBase + uint32(i)*4)
	}
	want := AddressBusReport{
		Fetches:     bus.Words(),
		Binary:      bus.Binary(),
		Gray:        bus.Gray(),
		T0:          bus.T0(),
		GrayPercent: power.Reduction(bus.Binary(), bus.Gray()),
		T0Percent:   power.Reduction(bus.Binary(), bus.T0()),
	}
	bare, err := MeasureAddressBus(p, b.setup)
	if err != nil {
		t.Fatal(err)
	}
	viaBench, err := b.MeasureAddressBus()
	if err != nil {
		t.Fatal(err)
	}
	if *bare != want || *viaBench != want {
		t.Errorf("address bus: bare %+v, benchmark %+v, want %+v", *bare, *viaBench, want)
	}
}

func checkCacheStudy(t *testing.T, b Benchmark, p *Program, idx []int32) {
	t.Helper()
	ms, err := MeasureProgram(p, b.setup, studyConfigs...)
	if err != nil {
		t.Fatal(err)
	}
	profile := profileOf(p, idx)
	images := make([][]uint32, len(studyConfigs))
	for ci, c := range studyConfigs {
		rep, err := EncodeProgram(p, profile, c)
		if err != nil {
			t.Fatal(err)
		}
		images[ci] = rep.EncodedText
	}
	// wordAt reads a line word from an image, zero past the text segment.
	wordAt := func(img []uint32, addr uint32) uint32 {
		if i := int(addr-p.TextBase) / 4; addr >= p.TextBase && i < len(img) {
			return img[i]
		}
		return 0
	}
	for _, cc := range []CacheConfig{{}, {LineWords: 2, Sets: 2, Ways: 1}, {LineWords: 8, Sets: 4, Ways: 4}} {
		geom := cc.internal()
		cache, err := icache.New(geom)
		if err != nil {
			t.Fatal(err)
		}
		var lines []uint32
		cache.OnRefill = func(lineAddr uint32) { lines = append(lines, lineAddr) }
		for _, i := range idx {
			cache.Access(p.TextBase + uint32(i)*4)
		}
		for ci, c := range studyConfigs {
			refillBase, refillEnc := trace.NewBus(32), trace.NewBus(32)
			for _, line := range lines {
				for w := 0; w < geom.LineWords; w++ {
					refillBase.Transfer(wordAt(p.Text, line+uint32(4*w)))
					refillEnc.Transfer(wordAt(images[ci], line+uint32(4*w)))
				}
			}
			want := CacheMeasurement{
				Cache:          cc,
				Encoding:       c,
				Fetches:        uint64(len(idx)),
				HitRatePercent: cache.HitRate(),
				RefillWords:    uint64(len(lines) * geom.LineWords),
				CoreBaseline:   ms[ci].Baseline,
				CoreEncoded:    ms[ci].Encoded,
				CorePercent:    ms[ci].Percent,
				RefillBaseline: refillBase.Total(),
				RefillEncoded:  refillEnc.Total(),
				RefillPercent:  power.Reduction(refillBase.Total(), refillEnc.Total()),
			}
			got, err := b.MeasureWithCache(cc, c)
			if err != nil {
				t.Fatal(err)
			}
			if *got != want {
				t.Errorf("cache %+v, %v:\n got %+v\nwant %+v", cc, c, *got, want)
			}
		}
	}
}

func checkTraceStudy(t *testing.T, b Benchmark, p *Program, idx []int32) {
	t.Helper()
	g, err := cfg.Build(p.TextBase, p.Text)
	if err != nil {
		t.Fatal(err)
	}
	profile := profileOf(p, idx)
	for _, c := range []Config{{BlockSize: 4}, {BlockSize: 7, TTEntries: 4}} {
		enc, err := core.Encode(g, profile, c.coreConfig())
		if err != nil {
			t.Fatal(err)
		}
		dec, err := hw.NewDecoder(enc)
		if err != nil {
			t.Fatal(err)
		}
		dec.Strict = true
		var want []TraceEntry
		var last uint32
		for n, i := range idx[:min(500, len(idx))] {
			pc, word, busWord := p.TextBase+uint32(i)*4, p.Text[i], enc.EncodedWords[i]
			restored, err := dec.OnFetch(pc, busWord)
			if err != nil || restored != word {
				t.Fatalf("%v: oracle decoder restored %#08x at pc %#x, want %#08x (%v)", c, restored, pc, word, err)
			}
			flips := 0
			if n > 0 {
				flips = bits.OnesCount32(busWord ^ last)
			}
			want = append(want, TraceEntry{
				PC:            pc,
				Instruction:   isa.Disassemble(word),
				Original:      word,
				Bus:           busWord,
				Flips:         flips,
				DecoderActive: dec.Active() || busWord != word,
			})
			last = busWord
		}
		got, err := TraceProgram(p, b.setup, c, 500)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%v: trace differs from the per-fetch decoder walk", c)
		}
	}
}

func checkTestbenchStudy(t *testing.T, b Benchmark, p *Program, idx []int32) {
	t.Helper()
	profile := profileOf(p, idx)
	for _, c := range []Config{{BlockSize: 4}, {BlockSize: 7, TTEntries: 4}} {
		d, err := BuildDeployment(p, profile, c)
		if err != nil {
			t.Fatal(err)
		}
		var vectors []rtl.Vector
		for _, i := range idx[:min(500, len(idx))] {
			vectors = append(vectors, rtl.Vector{PC: p.TextBase + uint32(i)*4, Bus: d.Encoded[i], Want: p.Text[i]})
		}
		want, err := rtl.Testbench("dec", d.BusWidth, vectors)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.VerilogTestbench(p, b.setup, "dec", 500)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%v: testbench differs from the one over simulated vectors", c)
		}
	}
}

// TestMeasurePhasedPinned pins every field of the phase-switched study on
// the two hand-written multi-loop programs.
func TestMeasurePhasedPinned(t *testing.T) {
	cases := []struct {
		src  string
		c    Config
		want PhasedMeasurement
	}{
		{sequentialLoopsSrc, Config{BlockSize: 5, TTEntries: 2}, PhasedMeasurement{
			Phases: 2, Instructions: 72004, Baseline: 640033, Encoded: 440027,
			SinglePercent: 17.49878521888715, Switches: 1, UploadWords: 16, TTEntriesMax: 2,
		}},
		{twoPhaseSrc, Config{BlockSize: 5}, PhasedMeasurement{
			Phases: 1, Instructions: 28163, Baseline: 273529, Encoded: 129931,
			SinglePercent: 52.500100537785755, Switches: 0, UploadWords: 20, TTEntriesMax: 5,
		}},
	}
	for _, tc := range cases {
		p, err := Assemble(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MeasurePhased(p, nil, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		want := tc.want
		want.Config = tc.c
		want.Percent = power.Reduction(want.Baseline, want.Encoded)
		if *got != want {
			t.Errorf("%v:\n got %+v\nwant %+v", tc.c, *got, want)
		}
	}
}

// TestStudiesShareOneCapture requires the cached-system, phased,
// address-bus, annotated-trace and testbench studies of one program to
// read the capture TraceText made, without profiling it again. They run
// at once, so -race sees them share it.
func TestStudiesShareOneCapture(t *testing.T) {
	p, err := Assemble(sequentialLoopsSrc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildDeploymentStatic(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ClearCaptureCache()
	if _, err := TraceText(p, nil); err != nil {
		t.Fatal(err)
	}
	studies := map[string]func() error{
		"MeasureWithCache": func() error {
			_, err := MeasureWithCache(p, nil, CacheConfig{}, Config{})
			return err
		},
		"MeasurePhased": func() error {
			_, err := MeasurePhased(p, nil, Config{BlockSize: 5, TTEntries: 2})
			return err
		},
		"MeasureAddressBus": func() error {
			_, err := MeasureAddressBus(p, nil)
			return err
		},
		"TraceProgram": func() error {
			_, err := TraceProgram(p, nil, Config{}, 50)
			return err
		},
		"VerilogTestbench": func() error {
			_, err := d.VerilogTestbench(p, nil, "dec", 50)
			return err
		},
	}
	var wg sync.WaitGroup
	for name, run := range studies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	wg.Wait()
	if hits, misses := CaptureCacheStats(); misses != 1 || hits < uint64(len(studies)) {
		t.Errorf("capture cache: %d misses and %d hits, want 1 miss and at least %d hits", misses, hits, len(studies))
	}
}

// TestBenchmarkConfigRefusedBeforeProfiling requires every Benchmark
// method that takes a Config to refuse one outside the paper ConfigSpace,
// naming the knob, before it profiles the kernel.
func TestBenchmarkConfigRefusedBeforeProfiling(t *testing.T) {
	b := testScale(mustBench(t, "tri"))
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	bad := Config{TTEntries: 5000}
	ctx := context.Background()
	methods := map[string]func() error{
		"Measure": func() error {
			_, err := b.Measure(bad)
			return err
		},
		"MeasureCtx": func() error {
			_, err := b.MeasureCtx(ctx, bad)
			return err
		},
		"MeasureModified": func() error {
			_, err := b.MeasureModified(p, bad)
			return err
		},
		"EncodeCtx": func() error {
			_, err := b.EncodeCtx(ctx, bad)
			return err
		},
		"DeploymentCtx": func() error {
			_, err := b.DeploymentCtx(ctx, bad)
			return err
		},
		"MeasureWithCache": func() error {
			_, err := b.MeasureWithCache(CacheConfig{}, bad)
			return err
		},
		"FaultCampaign": func() error {
			_, _, err := b.FaultCampaign(bad, FaultCampaignConfig{})
			return err
		},
	}
	for name, run := range methods {
		ClearCaptureCache()
		err := run()
		if err == nil || !strings.Contains(err.Error(), "tt_entries") {
			t.Errorf("%s: got %v, want an error naming tt_entries", name, err)
		}
		if _, misses := CaptureCacheStats(); misses != 0 {
			t.Errorf("%s: profiled the kernel %d times before refusing", name, misses)
		}
	}
}
