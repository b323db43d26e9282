package imtrans

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"imtrans/internal/replay"
	"imtrans/internal/scheme"
)

const testLoop = `
	li   $t0, 100
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

func TestAssembleAndDisassemble(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	if p.Instructions() != 9 {
		t.Errorf("%d instructions", p.Instructions())
	}
	dis := p.Disassemble()
	if len(dis) != 9 || !strings.Contains(dis[2], "addu $t1, $t1, $t0") {
		t.Errorf("disassembly = %v", dis)
	}
	if _, err := Assemble("bogus $t0"); err == nil {
		t.Error("bad source accepted")
	}
}

func TestMachineRun(t *testing.T) {
	p, err := Assemble(`
		.data
	msg:	.asciiz "hi"
		.text
		la $a0, msg
		li $v0, 4
		syscall
		li $v0, 10
		syscall
	`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "hi" || res.ExitCode != 0 {
		t.Errorf("output=%q exit=%d", res.Output, res.ExitCode)
	}
	if res.Instructions == 0 || res.Transitions == 0 {
		t.Errorf("stats: %+v", res)
	}
	if len(res.PerLine) != 32 {
		t.Errorf("per-line: %d", len(res.PerLine))
	}
	var sum uint64
	for _, n := range res.PerLine {
		sum += n
	}
	if sum != res.Transitions {
		t.Error("per-line sum != total")
	}
	if _, err := m.Run(); err == nil {
		t.Error("second Run accepted")
	}
}

func TestMachineMemoryAccess(t *testing.T) {
	p, err := Assemble(`
		li  $t0, 0x10010000
		lw  $t1, 0($t0)
		addiu $t1, $t1, 1
		sw  $t1, 4($t0)
		li $v0, 10
		syscall
	`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Memory().StoreWord(DataBase, 41); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := m.Memory().LoadWord(DataBase + 4)
	if err != nil || got != 42 {
		t.Errorf("result = %d, %v", got, err)
	}
}

func TestMemoryFloatAndByteHelpers(t *testing.T) {
	p, _ := Assemble("li $v0, 10\nsyscall")
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	mm := m.Memory()
	if err := mm.StoreFloats(DataBase, []float32{1.5, -2}); err != nil {
		t.Fatal(err)
	}
	fs, err := mm.LoadFloats(DataBase, 2)
	if err != nil || fs[0] != 1.5 || fs[1] != -2 {
		t.Errorf("floats = %v, %v", fs, err)
	}
	if err := mm.StoreWords(DataBase+64, []uint32{7, 8}); err != nil {
		t.Fatal(err)
	}
	ws, err := mm.LoadWords(DataBase+64, 2)
	if err != nil || !reflect.DeepEqual(ws, []uint32{7, 8}) {
		t.Errorf("words = %v, %v", ws, err)
	}
	mm.StoreByte(DataBase+100, 9)
	if mm.LoadByte(DataBase+100) != 9 {
		t.Error("byte helper broken")
	}
}

func TestMeasureProgramReduces(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := MeasureProgram(p, nil, Config{BlockSize: 4}, Config{BlockSize: 5, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("%d measurements", len(ms))
	}
	for _, m := range ms {
		if m.Encoded >= m.Baseline {
			t.Errorf("%v: no reduction (%d >= %d)", m.Config, m.Encoded, m.Baseline)
		}
		if m.Percent <= 0 || m.Percent != m.ReductionPercent() {
			t.Errorf("%v: percent %v", m.Config, m.Percent)
		}
		if m.CoveragePercent <= 50 {
			t.Errorf("%v: coverage %.1f", m.Config, m.CoveragePercent)
		}
		if m.EnergySavedOnChipJ <= 0 || m.EnergySavedOffChipJ <= m.EnergySavedOnChipJ {
			t.Errorf("%v: energy %g / %g", m.Config, m.EnergySavedOnChipJ, m.EnergySavedOffChipJ)
		}
		if m.OverheadBits <= 0 {
			t.Errorf("%v: overhead %d", m.Config, m.OverheadBits)
		}
	}
}

func TestMeasurementComparatorsPopulated(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := MeasureProgram(p, nil, Config{BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	if m.BusInvert == 0 || m.Dictionary == 0 {
		t.Errorf("comparators empty: %+v", m)
	}
	if m.DictionaryBits <= 0 || m.DictionaryBits%32 != 0 {
		t.Errorf("dictionary table bits = %d", m.DictionaryBits)
	}
	// A tight loop is the dictionary's best case: it must beat raw.
	if m.Dictionary >= m.Baseline {
		t.Errorf("dictionary %d vs baseline %d", m.Dictionary, m.Baseline)
	}
	if m.DictionaryPercent <= 0 {
		t.Errorf("dictionary percent = %v", m.DictionaryPercent)
	}
}

func TestMeasureProgramDefaultConfig(t *testing.T) {
	p, _ := Assemble(testLoop)
	ms, err := MeasureProgram(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("%d measurements", len(ms))
	}
	if got := ms[0].Config.String(); got != "k=5 TT=16" {
		t.Errorf("config = %q", got)
	}
}

func TestMeasureProgramDetectsNondeterministicSetup(t *testing.T) {
	// The two pipeline runs must see identical inputs; a setup that
	// writes different data on each call changes the loop trip count and
	// must be reported rather than silently producing skewed numbers.
	p, err := Assemble(`
		li  $t0, 0x10010000
		lw  $t1, 0($t0)
	loop:
		addiu $t1, $t1, -1
		bgtz $t1, loop
		li $v0, 10
		syscall
	`)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	setup := func(m Memory) error {
		calls++
		return m.StoreWord(DataBase, uint32(100*calls))
	}
	_, err = MeasureProgram(p, setup, Config{})
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Errorf("err = %v, want divergence report", err)
	}
}

func TestMeasurementPerLineConsistency(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := MeasureProgram(p, nil, Config{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	var sumB, sumE uint64
	for line := 0; line < 32; line++ {
		sumB += m.PerLineBaseline[line]
		sumE += m.PerLineEncoded[line]
	}
	if sumB != m.Baseline || sumE != m.Encoded {
		t.Errorf("per-line sums (%d,%d) != totals (%d,%d)", sumB, sumE, m.Baseline, m.Encoded)
	}
}

func TestMeasureProgramBadConfig(t *testing.T) {
	p, _ := Assemble(testLoop)
	if _, err := MeasureProgram(p, nil, Config{BlockSize: 1}); err == nil {
		t.Error("bad block size accepted")
	}
}

// TestConfigOutsidePaperSpaceRefused walks the paper scheme's
// ConfigSpace: for every integer knob, the value just below its range
// (when that is not 0, which means the default) and just above it must be
// refused by each root path that hands a Config to core, with an error
// naming the knob. The grid, replay and study paths must refuse it
// before they profile anything. The boolean knobs span 0..1, so a Config cannot leave
// their range.
func TestConfigOutsidePaperSpaceRefused(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	profile := make([]uint64, len(p.Text))
	set := map[string]func(*Config, int){
		"block_size":   func(c *Config, v int) { c.BlockSize = v },
		"tt_entries":   func(c *Config, v int) { c.TTEntries = v },
		"bbit_entries": func(c *Config, v int) { c.BBITEntries = v },
		"bus_width":    func(c *Config, v int) { c.BusWidth = v },
	}
	paths := map[string]func(Config) error{
		"SweepMeasureCtx": func(c Config) error {
			_, err := SweepMeasureCtx(context.Background(), []Benchmark{testScale(mustBench(t, "tri"))}, []Config{{}, c}, SweepOptions{})
			return err
		},
		"ReplayMeasure": func(c Config) error {
			_, err := ReplayMeasure(p, nil, c)
			return err
		},
		"EncodeProgram": func(c Config) error {
			_, err := EncodeProgram(p, profile, c)
			return err
		},
		"BuildDeployment": func(c Config) error {
			_, err := BuildDeployment(p, profile, c)
			return err
		},
		"BuildDeploymentStatic": func(c Config) error {
			_, err := BuildDeploymentStatic(p, c)
			return err
		},
		"MeasureProgram": func(c Config) error {
			_, err := MeasureProgram(p, nil, c)
			return err
		},
		"MeasureWithCache": func(c Config) error {
			_, err := MeasureWithCache(p, nil, CacheConfig{}, c)
			return err
		},
		"MeasurePhased": func(c Config) error {
			_, err := MeasurePhased(p, nil, c)
			return err
		},
		"TraceProgram": func(c Config) error {
			_, err := TraceProgram(p, nil, c, 0)
			return err
		},
	}
	paper, err := scheme.Get("paper")
	if err != nil {
		t.Fatal(err)
	}
	ClearCaptureCache()
	for _, k := range paper.ConfigSpace() {
		setter, ok := set[k.Name]
		if !ok {
			if k.Min != 0 || k.Max != 1 {
				t.Errorf("knob %s [%d, %d] has no Config setter in this test", k.Name, k.Min, k.Max)
			}
			continue
		}
		bad := []int{k.Max + 1}
		if k.Min-1 != 0 {
			bad = append(bad, k.Min-1)
		}
		for _, v := range bad {
			var c Config
			setter(&c, v)
			for name, run := range paths {
				err := run(c)
				if err == nil || !strings.Contains(err.Error(), k.Name) {
					t.Errorf("%s with %s %d: got %v, want an error naming the knob", name, k.Name, v, err)
				}
			}
		}
	}
	if _, misses := CaptureCacheStats(); misses != 0 {
		t.Errorf("refused configs still profiled %d programs", misses)
	}
}

func TestEncodeProgramReport(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := EncodeProgram(p, res.Profile, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Plans) == 0 || rep.TTEntriesUsed == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.SelectorBits != 3 || rep.GatesPerLine != 8 {
		t.Errorf("hardware: sel=%d gates=%d", rep.SelectorBits, rep.GatesPerLine)
	}
	if rep.OverheadBits != rep.TTBits+rep.BBITBits {
		t.Error("overhead inconsistent")
	}
	if len(rep.EncodedText) != len(p.Text) {
		t.Error("encoded image length mismatch")
	}
	plan := rep.Plans[0]
	if len(plan.Transformations) != plan.TTEntries {
		t.Errorf("plan taus = %d, entries = %d", len(plan.Transformations), plan.TTEntries)
	}
	if len(plan.Transformations[0]) != 32 {
		t.Errorf("per-line taus = %d", len(plan.Transformations[0]))
	}
}

func TestCodeTableFigures(t *testing.T) {
	rows, err := CodeTable(3, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	// Spot-check the published Figure 2 rows.
	if rows[2].Word != "010" || rows[2].CodeWord != "000" || rows[2].Tau != "~y" {
		t.Errorf("row 010 = %+v", rows[2])
	}
	rows5, err := CodeTable(5, true)
	if err != nil {
		t.Fatal(err)
	}
	if rows5[9].CodeWord != "00111" || rows5[9].Tau != "~(x|y)" {
		t.Errorf("row 01001 = %+v", rows5[9])
	}
	if _, err := CodeTable(0, false); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestTransitionTableFigure3(t *testing.T) {
	rows, err := TransitionTable(7, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []TheoryRow{
		{2, 2, 0, 100}, {3, 8, 2, 75}, {4, 24, 10, 58.3},
		{5, 64, 32, 50}, {6, 160, 90, 43.8}, {7, 384, 236, 38.5},
	}
	for i, w := range want {
		r := rows[i]
		if r.K != w.K || r.TTN != w.TTN || r.RTN != w.RTN {
			t.Errorf("k=%d: %+v, want %+v", w.K, r, w)
		}
	}
	if _, err := TransitionTable(99, false); err == nil {
		t.Error("k=99 accepted")
	}
}

func TestEncodeDecodeBitStream(t *testing.T) {
	stream := []uint8{1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1}
	se, err := EncodeBitStream(stream, 5)
	if err != nil {
		t.Fatal(err)
	}
	if se.After > se.Before {
		t.Errorf("encoding made it worse: %d > %d", se.After, se.Before)
	}
	back, err := DecodeBitStream(se.Code, 5, se.Taus)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, stream) {
		t.Errorf("round trip: %v -> %v", stream, back)
	}
	if _, err := DecodeBitStream(se.Code, 5, []string{"nope"}); err == nil {
		t.Error("unknown tau accepted")
	}
	if _, err := EncodeBitStream(stream, 1); err == nil {
		t.Error("k=1 accepted")
	}
}

func TestRandomStreamExperimentFacade(t *testing.T) {
	r, err := RandomStreamExperiment(30, 1000, 5, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.ExpectedPercent != 50 {
		t.Errorf("expected = %v", r.ExpectedPercent)
	}
	if r.MeanPercent < 45 || r.MeanPercent > 55 {
		t.Errorf("mean = %v", r.MeanPercent)
	}
	if _, err := RandomStreamExperiment(1, 10, 1, false, 7); err == nil {
		t.Error("k=1 accepted")
	}
}

func TestMinimalTransformationSetFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search")
	}
	ms, err := MinimalTransformationSet()
	if err != nil {
		t.Fatal(err)
	}
	if ms.Size != 6 || len(ms.Subsets) != 1 {
		t.Errorf("minimal set = %+v", ms)
	}
}

func TestTransformationNames(t *testing.T) {
	names := TransformationNames()
	if len(names) != 8 || names[0] != "x" || names[1] != "~x" {
		t.Errorf("names = %v", names)
	}
}

func TestBenchmarksRegistry(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 6 {
		t.Fatalf("%d benchmarks", len(bs))
	}
	order := []string{"mmul", "sor", "ej", "fft", "tri", "lu"}
	for i, b := range bs {
		if b.Name != order[i] {
			t.Errorf("benchmark %d = %s, want %s", i, b.Name, order[i])
		}
	}
	if _, err := BenchmarkByName("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := (Benchmark{}).Program(); err == nil {
		t.Error("zero Benchmark accepted")
	}
}

// TestBenchmarkScaleOutsideDomain drives the facade at scales a kernel
// cannot run: each must fail fast with an error, before assembly or
// setup, instead of panicking in setup, passing a golden check it never
// computed, exhausting memory or spinning to the instruction cap.
func TestBenchmarkScaleOutsideDomain(t *testing.T) {
	cases := []struct {
		name     string
		n, iters int
	}{
		{"mmul", 1 << 20, 0}, // three n² input matrices exhaust memory
		{"fft", 3, 0},        // not a power of two: spins to the cap
		{"fft", -1, 0},       // makeslice panic in setup
		{"tri", 1, 0},
		{"tri", -1, 0},
		{"sor", 2, 0},
		{"ej", 2, 0},
		{"ej", 0, -1}, // runs one sweep and passes its golden check
		{"conv2d", 2, 0},
		{"crc32", -1, 0},
		{"iir", -1, 0},
		{"iir", 0, -1},
		{"mmul", -5, 0},
	}
	for _, tc := range cases {
		b := mustBench(t, tc.name).WithScale(tc.n, tc.iters)
		start := time.Now()
		if _, err := b.Run(); err == nil {
			t.Errorf("%s n=%d iters=%d: Run succeeded", tc.name, tc.n, tc.iters)
		}
		if _, err := b.Measure(Config{}); err == nil {
			t.Errorf("%s n=%d iters=%d: Measure succeeded", tc.name, tc.n, tc.iters)
		}
		if _, err := b.Program(); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s n=%d iters=%d: Program err = %v, want a domain error naming the kernel", tc.name, tc.n, tc.iters, err)
		}
		if el := time.Since(start); el > time.Second {
			t.Errorf("%s n=%d iters=%d: took %v to fail", tc.name, tc.n, tc.iters, el)
		}
	}
}

func TestBenchmarkRunAndMeasureSmall(t *testing.T) {
	b, err := BenchmarkByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	b = b.WithScale(16, 0)
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 {
		t.Error("no instructions")
	}
	ms, err := b.Measure(Config{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].Encoded >= ms[0].Baseline {
		t.Errorf("fft: no reduction: %+v", ms[0])
	}
}

func TestTraceProgram(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := TraceProgram(p, nil, Config{BlockSize: 4}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 20 {
		t.Fatalf("%d entries", len(entries))
	}
	if entries[0].PC != p.TextBase || entries[0].Flips != 0 {
		t.Errorf("first entry = %+v", entries[0])
	}
	sawDecoded := false
	for _, e := range entries {
		if e.Instruction == "" {
			t.Error("missing disassembly")
		}
		if e.Bus != e.Original {
			sawDecoded = true
		}
	}
	if !sawDecoded {
		t.Error("no encoded words appeared in a hot-loop trace")
	}
	// Default cap applies when maxFetches <= 0.
	entries, err = TraceProgram(p, nil, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 100 {
		t.Errorf("default cap gave %d entries", len(entries))
	}
}

// TestLeadingFetchesIsIndicesPrefix requires the early-stopping walk
// behind TraceProgram and VerilogTestbench to return exactly the first n
// indices of the full expansion, for n up to and past the end of the run.
func TestLeadingFetchesIsIndicesPrefix(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	cap, err := captureProgram(context.Background(), target{p: p})
	if err != nil {
		t.Fatal(err)
	}
	var all []int32
	cap.Trace.Indices(func(idx int32) { all = append(all, idx) })
	for _, n := range []int{0, 1, 2, 7, len(all) - 1, len(all), len(all) + 5} {
		if got := leadingFetches(cap.Trace, n); !slices.Equal(got, all[:min(n, len(all))]) {
			t.Errorf("n=%d: %d indices differ from the expansion's prefix", n, len(got))
		}
	}
}

func TestTraceText(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	text, err := TraceText(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(text), "imtrans-trace 1 ") {
		t.Fatalf("missing canonical envelope: %q", text)
	}
	tr, err := replay.ParseTrace(text)
	if err != nil {
		t.Fatalf("canonical form failed to re-parse: %v", err)
	}
	res, err := MeasureProgram(p, nil, Config{BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tr.N != res[0].Instructions {
		t.Errorf("trace describes %d fetches, run executed %d", tr.N, res[0].Instructions)
	}
}

func TestNewMachineEmpty(t *testing.T) {
	if _, err := NewMachine(nil); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := NewMachine(&Program{}); err == nil {
		t.Error("empty program accepted")
	}
}
