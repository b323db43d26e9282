package imtrans

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"imtrans/internal/baseline"
	"imtrans/internal/power"
	"imtrans/internal/stats"
	"imtrans/internal/trace"
)

// testdata/golden.json pins the paper's numbers. The bit-identity tests
// compare replay with simulation, but both share the encoder and the
// capture, so a change that shifts every path alike passes them. The
// golden file is generated only from the naive oracles — two-run
// simulation for paper cells, the internal/baseline per-word coders and
// the fleet's scalar path for the other schemes — and TestGolden compares
// the production grid runners with it exactly. Regenerate it with
//
//	go test -run TestGolden . -update
//
// and explain every diff.
var updateGolden = flag.Bool("update", false, "regenerate testdata/golden.json from the naive oracles")

const goldenPath = "testdata/golden.json"

type golden struct {
	Figure6 goldenFigure6 `json:"figure6"`
	Compare goldenCompare `json:"compare"`
}

// goldenFigure6 is Figures 6 and 7: the six kernels at paper scale.
type goldenFigure6 struct {
	BlockSizes []int          `json:"block_sizes"`
	TTEntries  int            `json:"tt_entries"`
	Kernels    []goldenKernel `json:"kernels"`
}

// goldenKernel is one kernel's row; Encoded and EncodedPerLine hold one
// entry per block size.
type goldenKernel struct {
	Name            string     `json:"name"`
	N               int        `json:"n"`
	Iters           int        `json:"iters"`
	Instructions    uint64     `json:"instructions"`
	Baseline        uint64     `json:"baseline"`
	BaselinePerLine []uint64   `json:"baseline_per_line"`
	BusInvert       uint64     `json:"bus_invert"`
	Dictionary      uint64     `json:"dictionary"`
	Encoded         []uint64   `json:"encoded"`
	EncodedPerLine  [][]uint64 `json:"encoded_per_line"`
}

// goldenCompare is the seven-scheme compare grid: every registered scheme
// at its default knobs over the six kernels at test scale.
type goldenCompare struct {
	Schemes []string           `json:"schemes"`
	Kernels []goldenCompareRow `json:"kernels"`
}

// goldenCompareRow holds one kernel's cells, one per scheme.
type goldenCompareRow struct {
	Name        string   `json:"name"`
	N           int      `json:"n"`
	Iters       int      `json:"iters"`
	Baseline    []uint64 `json:"baseline"`
	Transitions []uint64 `json:"transitions"`
}

var goldenBlockSizes = []int{4, 5, 6, 7}

const goldenTTEntries = 16

func goldenConfigs() []Config {
	cfgs := make([]Config, len(goldenBlockSizes))
	for i, k := range goldenBlockSizes {
		cfgs[i] = Config{BlockSize: k, TTEntries: goldenTTEntries}
	}
	return cfgs
}

func goldenCompareBenches() []Benchmark {
	bs := Benchmarks()
	for i := range bs {
		bs[i] = testScale(bs[i])
	}
	return bs
}

func goldenSpecs() []SchemeSpec {
	var specs []SchemeSpec
	for _, s := range Schemes() {
		specs = append(specs, SchemeSpec{Name: s.Name})
	}
	return specs
}

// figure6Kernel records one kernel's measurements, one per block size;
// the per-kernel fields come from the first.
func figure6Kernel(b Benchmark, ms []Measurement) goldenKernel {
	k := goldenKernel{
		Name: b.Name, N: b.N, Iters: b.Iters,
		Instructions:    ms[0].Instructions,
		Baseline:        ms[0].Baseline,
		BaselinePerLine: ms[0].PerLineBaseline,
		BusInvert:       ms[0].BusInvert,
		Dictionary:      ms[0].Dictionary,
	}
	for _, m := range ms {
		k.Encoded = append(k.Encoded, m.Encoded)
		k.EncodedPerLine = append(k.EncodedPerLine, m.PerLineEncoded)
	}
	return k
}

func compareRow(b Benchmark, cells []SchemeMeasurement) goldenCompareRow {
	r := goldenCompareRow{Name: b.Name, N: b.N, Iters: b.Iters}
	for _, c := range cells {
		r.Baseline = append(r.Baseline, c.Baseline)
		r.Transitions = append(r.Transitions, c.Transitions)
	}
	return r
}

// generateGolden measures both grids through the naive oracles only.
func generateGolden(t *testing.T) golden {
	g := golden{Figure6: goldenFigure6{BlockSizes: goldenBlockSizes, TTEntries: goldenTTEntries}}
	for _, b := range Benchmarks() {
		ms, err := b.SimulateMeasure(goldenConfigs()...)
		if err != nil {
			t.Fatal(err)
		}
		g.Figure6.Kernels = append(g.Figure6.Kernels, figure6Kernel(b, ms))
	}

	specs := goldenSpecs()
	benches := goldenCompareBenches()
	// The codebook and limited-weight codes have no per-word coder in
	// internal/baseline; their reference is the fleet's scalar path.
	var scalarSpecs []SchemeSpec
	for _, sp := range specs {
		if sp.Name == "codebook" || sp.Name == "lwc" {
			scalarSpecs = append(scalarSpecs, sp)
		}
	}
	prev := SetFleetBatchReplay(false)
	scalar, err := CompareMeasureCtx(context.Background(), benches, scalarSpecs, SweepOptions{Parallelism: 1})
	SetFleetBatchReplay(prev)
	if err == nil {
		err = scalar.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		g.Compare.Schemes = append(g.Compare.Schemes, sp.Label())
	}
	for bi, b := range benches {
		o, err := perWordOracle(b)
		if err != nil {
			t.Fatal(err)
		}
		cells := make([]SchemeMeasurement, len(specs))
		si := 0
		for i, sp := range specs {
			c := &cells[i]
			switch sp.Name {
			case "paper":
				c.Baseline, c.Transitions = o.paper.Baseline, o.paper.Encoded
			case "businvert":
				c.Baseline, c.Transitions = o.data, o.busInvert
			case "dictionary":
				c.Baseline, c.Transitions = o.data, o.dictionary
			case "gray":
				c.Baseline, c.Transitions = o.addr.Binary(), o.addr.Gray()
			case "t0":
				c.Baseline, c.Transitions = o.addr.Binary(), o.addr.T0()
			case "codebook", "lwc":
				*c = scalar.Results[bi][si]
				si++
			default:
				t.Fatalf("scheme %q has no golden oracle", sp.Name)
			}
		}
		g.Compare.Kernels = append(g.Compare.Kernels, compareRow(b, cells))
	}
	return g
}

// wordOracle holds one kernel's per-word reference measurements at the
// compare grid's default knobs (32 lines, 256 dictionary entries).
type wordOracle struct {
	paper      Measurement // SimulateMeasure at the paper scheme's defaults
	data       uint64      // raw data-bus transitions
	busInvert  uint64
	dictionary uint64
	addr       *baseline.AddrBus
}

// perWordOracle simulates b once, driving the raw data bus, Bus-Invert and
// the address-bus codes fetch by fetch. The dictionary is built from the
// run's profile, so it replays the recorded fetch words afterwards.
func perWordOracle(b Benchmark) (wordOracle, error) {
	var o wordOracle
	ms, err := b.SimulateMeasure(Config{})
	if err != nil {
		return o, err
	}
	o.paper = ms[0]
	p, err := b.Program()
	if err != nil {
		return o, err
	}
	m, err := newMachine(p, b.setup)
	if err != nil {
		return o, err
	}
	bus := trace.NewBus(32)
	bi := baseline.NewBusInvert(32)
	o.addr = baseline.NewAddrBus(32, 4)
	var fetched []uint32
	m.OnFetch = func(pc, word uint32) {
		bus.Transfer(word)
		bi.Transfer(word)
		o.addr.Transfer(pc)
		fetched = append(fetched, word)
	}
	if err := m.Run(); err != nil {
		return o, err
	}
	dict := baseline.BuildDictionary(p.Text, m.Profile(), 256)
	for _, w := range fetched {
		dict.Transfer(w)
	}
	o.data, o.busInvert, o.dictionary = bus.Total(), bi.Total(), dict.Transitions()
	return o, nil
}

func loadGolden(t *testing.T) golden {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(generateGolden(t), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g golden
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return g
}

// TestGolden runs both grids through the production path and compares
// them with the golden file exactly, then checks that the committed
// Figure 6 references and tables say the same at their printed precision.
func TestGolden(t *testing.T) {
	g := loadGolden(t)
	t.Run("figure6", func(t *testing.T) {
		benches := Benchmarks()
		res, err := SweepMeasureCtx(context.Background(), benches, goldenConfigs(), SweepOptions{})
		if err == nil {
			err = res.Err()
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(benches) != len(g.Figure6.Kernels) {
			t.Fatalf("%d kernels, golden has %d", len(benches), len(g.Figure6.Kernels))
		}
		for i, b := range benches {
			// Compare every cell in full, per-kernel fields included.
			for j, m := range res.Measurements[i] {
				got, want := figure6Kernel(b, []Measurement{m}), g.Figure6.Kernels[i]
				want.Encoded, want.EncodedPerLine = want.Encoded[j:j+1], want.EncodedPerLine[j:j+1]
				if d := fieldDiff(got, want); d != "" {
					t.Errorf("%s k=%d: sweep diverged from the golden file:%s", b.Name, goldenBlockSizes[j], d)
				}
			}
		}
	})
	t.Run("compare", func(t *testing.T) {
		benches, specs := goldenCompareBenches(), goldenSpecs()
		res, err := CompareMeasureCtx(context.Background(), benches, specs, SweepOptions{})
		if err == nil {
			err = res.Err()
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Schemes, g.Compare.Schemes) {
			t.Fatalf("schemes %v, golden has %v", res.Schemes, g.Compare.Schemes)
		}
		if len(benches) != len(g.Compare.Kernels) {
			t.Fatalf("%d kernels, golden has %d", len(benches), len(g.Compare.Kernels))
		}
		for i, b := range benches {
			got, want := compareRow(b, res.Results[i]), g.Compare.Kernels[i]
			if d := fieldDiff(got, want); d != "" {
				t.Errorf("%s: compare diverged from the golden file:%s", b.Name, d)
			}
		}
	})
	t.Run("fig6_ref", func(t *testing.T) { checkFig6Ref(t, g.Figure6) })
	t.Run("docs", func(t *testing.T) { checkFigure6Docs(t, g.Figure6) })
}

// checkFig6Ref compares grid 1 with the benchmark's committed Figure 6
// reference counts.
func checkFig6Ref(t *testing.T, f goldenFigure6) {
	data, err := os.ReadFile("perfbench/testdata/fig6_ref.json")
	if err != nil {
		t.Fatal(err)
	}
	var ref struct {
		BlockSizes []int `json:"block_sizes"`
		Kernels    []struct {
			Name         string   `json:"name"`
			Instructions uint64   `json:"instructions"`
			Baseline     uint64   `json:"baseline"`
			Encoded      []uint64 `json:"encoded"`
		} `json:"kernels"`
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.BlockSizes, f.BlockSizes) || len(ref.Kernels) != len(f.Kernels) {
		t.Fatalf("fig6_ref.json covers block sizes %v and %d kernels, golden %v and %d",
			ref.BlockSizes, len(ref.Kernels), f.BlockSizes, len(f.Kernels))
	}
	for i, r := range ref.Kernels {
		k := f.Kernels[i]
		if r.Name != k.Name || r.Instructions != k.Instructions || r.Baseline != k.Baseline ||
			!reflect.DeepEqual(r.Encoded, k.Encoded) {
			t.Errorf("fig6_ref.json %s: (%d, %d, %v), golden %s: (%d, %d, %v)",
				r.Name, r.Instructions, r.Baseline, r.Encoded, k.Name, k.Instructions, k.Baseline, k.Encoded)
		}
	}
}

// checkFigure6Docs checks the Figure 6 "Ours" table and the Figure 7
// means in EXPERIMENTS.md, and the Figure 6 block of
// reproduce_paper_scale.txt, against grid 1 at their printed precision.
func checkFigure6Docs(t *testing.T, f goldenFigure6) {
	var names, tr []string
	for _, k := range f.Kernels {
		names, tr = append(names, k.Name), append(tr, stats.Millions(k.Baseline))
	}
	enc := make([][]string, len(f.BlockSizes))
	pct := make([][]string, len(f.BlockSizes))
	means := make([]string, len(f.BlockSizes))
	for ki := range f.BlockSizes {
		var sum float64
		for _, k := range f.Kernels {
			p := power.Reduction(k.Baseline, k.Encoded[ki])
			enc[ki] = append(enc[ki], stats.Millions(k.Encoded[ki]))
			pct[ki] = append(pct[ki], fmt.Sprintf("%.1f", p))
			sum += p
		}
		means[ki] = fmt.Sprintf("%.1f", sum/float64(len(f.Kernels)))
	}
	mdRow := func(cells ...string) string { return "| " + strings.Join(cells, " | ") + " |" }

	doc := readDoc(t, "EXPERIMENTS.md")
	want := []string{
		"| " + mdRow(names...),
		"|" + strings.Repeat("---|", len(names)+1),
		mdRow(append([]string{"#TR (M)"}, tr...)...),
	}
	for ki, k := range f.BlockSizes {
		want = append(want, mdRow(append([]string{fmt.Sprintf("k=%d", k)}, pct[ki]...)...))
	}
	got := tableAfter(t, doc, "Ours (paper problem sizes")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("EXPERIMENTS.md Figure 6 \"Ours\" table:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	fig7 := section(t, doc, "## Figure 7", "\n## ")
	m := regexp.MustCompile(`k=(\d+) mean\s+\*\*([0-9.]+)%\*\*`).FindAllStringSubmatch(fig7, -1)
	if len(m) != len(f.BlockSizes) {
		t.Fatalf("EXPERIMENTS.md Figure 7: %d means, want %d", len(m), len(f.BlockSizes))
	}
	for ki, k := range f.BlockSizes {
		if m[ki][1] != fmt.Sprint(k) || m[ki][2] != means[ki] {
			t.Errorf("EXPERIMENTS.md Figure 7: k=%s mean %s%%, want k=%d mean %s%%", m[ki][1], m[ki][2], k, means[ki])
		}
	}

	block := section(t, readDoc(t, "reproduce_paper_scale.txt"), "== Figure 6: transition reduction results ==\n", "\n\n")
	var gotRows [][]string
	for _, l := range strings.Split(block, "\n")[1:] {
		if !strings.HasPrefix(l, "---") {
			gotRows = append(gotRows, strings.Fields(l))
		}
	}
	wantRows := [][]string{names, append([]string{"#TR"}, tr...)}
	for ki, k := range f.BlockSizes {
		wantRows = append(wantRows,
			append([]string{fmt.Sprintf("#%d-block", k)}, enc[ki]...),
			append([]string{"Reduction(%)"}, pct[ki]...))
	}
	if !reflect.DeepEqual(gotRows, wantRows) {
		t.Errorf("reproduce_paper_scale.txt Figure 6 block:\n%v\nwant:\n%v", gotRows, wantRows)
	}
}

// fieldDiff lists the fields in which two values of one struct type
// differ, or returns "" when they are equal.
func fieldDiff(got, want any) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	var b strings.Builder
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			fmt.Fprintf(&b, "\n  %s: got %v, want %v", g.Type().Field(i).Name, g.Field(i), w.Field(i))
		}
	}
	return b.String()
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// section returns the text of doc from start up to the next end.
func section(t *testing.T, doc, start, end string) string {
	t.Helper()
	i := strings.Index(doc, start)
	if i < 0 {
		t.Fatalf("no %q in the document", start)
	}
	doc = doc[i:]
	if j := strings.Index(doc[len(start):], end); j >= 0 {
		doc = doc[:len(start)+j]
	}
	return doc
}

// tableAfter returns the lines of the first markdown table after marker.
func tableAfter(t *testing.T, doc, marker string) []string {
	t.Helper()
	i := strings.Index(doc, marker)
	if i < 0 {
		t.Fatalf("no %q in the document", marker)
	}
	var rows []string
	for _, l := range strings.Split(doc[i:], "\n") {
		if strings.HasPrefix(l, "|") {
			rows = append(rows, l)
		} else if len(rows) > 0 {
			break
		}
	}
	return rows
}
