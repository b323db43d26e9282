package imtrans

import (
	"context"
	"io"
	"slices"
	"strings"
	"testing"
)

// gateLoop is a small hot loop: enough to plan and deploy an encoding.
const gateLoop = `
	li   $t0, 200
loop:
	addu $t1, $t1, $t0
	sll  $t3, $t0, 3
	xor  $t2, $t2, $t3
	addiu $t0, $t0, -1
	bgtz $t0, loop
	li $v0, 10
	syscall
`

// checkPrefixOnce fails unless msg carries the package prefix at most
// once and the kernel's "<name>: " at most once.
func checkPrefixOnce(t *testing.T, what, msg, kernel string) {
	t.Helper()
	if n := strings.Count(msg, "imtrans:"); n > 1 {
		t.Errorf("%s: %q holds %d package prefixes", what, msg, n)
	}
	if kernel != "" {
		if n := strings.Count(msg, kernel+": "); n > 1 {
			t.Errorf("%s: %q names %s %d times", what, msg, kernel, n)
		}
	}
}

// TestInputGate calls every exported root function that takes a
// *Program with nil and with an empty program, every Benchmark method on
// a zero Benchmark and on a scale outside fft's domain, the Benchmark
// facades with an out-of-range configuration, and the grids over a zero
// Benchmark. The calls are direct, not under recover: each must return
// an error, read as its one refusal, and none may profile anything.
func TestInputGate(t *testing.T) {
	ctx := context.Background()
	good, err := Assemble(gateLoop)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := ProfileProgram(ctx, good, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildDeployment(good, profile, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mmul := mustBench(t, "mmul").WithScale(8, 1)
	tri := testScale(mustBench(t, "tri"))
	triProgram, err := tri.Program()
	if err != nil {
		t.Fatal(err)
	}
	ClearCaptureCache()

	type call struct {
		name string
		run  func() error
	}
	err2 := func(_ any, err error) error { return err }
	err3 := func(_, _ any, err error) error { return err }
	programCalls := func(p *Program) []call {
		return []call{
			{"NewMachine", func() error { return err2(NewMachine(p)) }},
			{"ProfileProgram", func() error { return err2(ProfileProgram(ctx, p, nil)) }},
			{"EncodeProgram", func() error { return err2(EncodeProgram(p, profile, Config{})) }},
			{"BuildDeployment", func() error { return err2(BuildDeployment(p, profile, Config{})) }},
			{"BuildDeploymentStatic", func() error { return err2(BuildDeploymentStatic(p, Config{})) }},
			{"MeasureProgram", func() error { return err2(MeasureProgram(p, nil)) }},
			{"ReplayMeasure", func() error { return err2(ReplayMeasure(p, nil)) }},
			{"ReplayMeasureCtx", func() error { return err2(ReplayMeasureCtx(ctx, p, nil)) }},
			{"MeasureAddressBus", func() error { return err2(MeasureAddressBus(p, nil)) }},
			{"MeasureWithCache", func() error { return err2(MeasureWithCache(p, nil, CacheConfig{}, Config{})) }},
			{"MeasurePhased", func() error { return err2(MeasurePhased(p, nil, Config{})) }},
			{"MeasureDataBus", func() error { return err2(MeasureDataBus(p, nil)) }},
			{"TraceText", func() error { return err2(TraceText(p, nil)) }},
			{"TraceProgram", func() error { return err2(TraceProgram(p, nil, Config{}, 10)) }},
			{"RescheduleProgram", func() error { return err3(RescheduleProgram(p)) }},
			{"Program.Save", func() error { return p.Save(io.Discard) }},
			{"Deployment.Verify", func() error { return d.Verify(p, nil) }},
			{"Deployment.VerifyCtx", func() error { return d.VerifyCtx(ctx, p, nil) }},
			{"Deployment.VerilogTestbench", func() error { return err2(d.VerilogTestbench(p, nil, "", 0)) }},
			{"Deployment.FaultCampaign", func() error { return err2(d.FaultCampaign(p, nil, FaultCampaignConfig{})) }},
		}
	}
	for _, tc := range []struct {
		name string
		p    *Program
	}{{"nil", nil}, {"empty", &Program{}}} {
		for _, c := range programCalls(tc.p) {
			if err := c.run(); err == nil || err.Error() != "imtrans: empty program" {
				t.Errorf("%s(%s program): got %v, want imtrans: empty program", c.name, tc.name, err)
			}
		}
		// A Benchmark method names its kernel in front of the refusal.
		if _, err := mmul.MeasureModified(tc.p); err == nil || err.Error() != "imtrans: mmul: empty program" {
			t.Errorf("MeasureModified(%s program): got %v, want imtrans: mmul: empty program", tc.name, err)
		}
	}

	benchCalls := func(b Benchmark, c Config) []call {
		return []call{
			{"Program", func() error { return err2(b.Program()) }},
			{"Run", func() error { return err2(b.Run()) }},
			{"Measure", func() error { return err2(b.Measure(c)) }},
			{"MeasureCtx", func() error { return err2(b.MeasureCtx(ctx, c)) }},
			{"SimulateMeasure", func() error { return err2(b.SimulateMeasure(c)) }},
			{"MeasureModified", func() error { return err2(b.MeasureModified(triProgram, c)) }},
			{"MeasureWithCache", func() error { return err2(b.MeasureWithCache(CacheConfig{}, c)) }},
			{"Encode", func() error { return err2(b.Encode(c)) }},
			{"EncodeCtx", func() error { return err2(b.EncodeCtx(ctx, c)) }},
			{"Deployment", func() error { return err2(b.Deployment(c)) }},
			{"DeploymentCtx", func() error { return err2(b.DeploymentCtx(ctx, c)) }},
			{"VerifyDeployment", func() error { return b.VerifyDeployment(d) }},
			{"VerifyDeploymentCtx", func() error { return b.VerifyDeploymentCtx(ctx, d) }},
			{"MeasureAddressBus", func() error { return err2(b.MeasureAddressBus()) }},
			{"MeasureDataBus", func() error { return err2(b.MeasureDataBus()) }},
			{"FaultCampaign", func() error { return err3(b.FaultCampaign(c, FaultCampaignConfig{})) }},
		}
	}
	fft3 := mustBench(t, "fft").WithScale(3, 0)
	for _, tc := range []struct {
		name string
		b    Benchmark
		want string
	}{
		{"zero", Benchmark{}, "imtrans: use Benchmarks or BenchmarkByName to obtain benchmarks"},
		{"fft n=3", fft3, "imtrans: fft: n 3 is not a power of two"},
	} {
		for _, c := range benchCalls(tc.b, Config{}) {
			if err := c.run(); err == nil || err.Error() != tc.want {
				t.Errorf("%s Benchmark.%s: got %v, want %s", tc.name, c.name, err, tc.want)
			}
		}
	}
	// A configuration outside the paper ConfigSpace: the methods that take
	// one refuse it, naming the knob.
	for _, c := range benchCalls(tri, Config{TTEntries: 5000}) {
		switch c.name {
		case "Program", "Run", "VerifyDeployment", "VerifyDeploymentCtx", "MeasureAddressBus", "MeasureDataBus":
			continue
		}
		err := c.run()
		if err == nil || !strings.Contains(err.Error(), "tt_entries 5000 out of range") {
			t.Errorf("tri Benchmark.%s(TTEntries 5000): got %v, want the tt_entries refusal", c.name, err)
			continue
		}
		checkPrefixOnce(t, "tri Benchmark."+c.name, err.Error(), "tri")
	}

	// A zero Benchmark in a grid fails its row's capture.
	zero := []Benchmark{{}}
	sw, err := SweepMeasureCtx(ctx, zero, nil, SweepOptions{})
	if err == nil {
		err = sw.Err()
	}
	const zeroCapture = " capture stage: use Benchmarks or BenchmarkByName to obtain benchmarks"
	if err == nil || err.Error() != "imtrans: sweep"+zeroCapture {
		t.Errorf("SweepMeasureCtx(zero Benchmark): got %v", err)
	}
	cmp, err := CompareMeasureCtx(ctx, zero, []SchemeSpec{{Name: "paper"}}, SweepOptions{})
	if err == nil {
		err = cmp.Err()
	}
	if err == nil || err.Error() != "imtrans: compare"+zeroCapture {
		t.Errorf("CompareMeasureCtx(zero Benchmark): got %v", err)
	}
	if _, err := SweepMeasure(zero, nil, 1); err == nil || err.Error() != "imtrans: sweep"+zeroCapture {
		t.Errorf("SweepMeasure(zero Benchmark): got %v", err)
	}

	if hits, misses := CaptureCacheStats(); hits+misses != 0 {
		t.Errorf("refusals reached the capture cache: %d hits, %d misses", hits, misses)
	}
}

// TestErrorPrefixOnce checks the errors a grid's capture stage reports
// and the error of a run that fails: each carries the package prefix and
// the kernel's name once.
func TestErrorPrefixOnce(t *testing.T) {
	ctx := context.Background()
	fft3 := mustBench(t, "fft").WithScale(3, 0)
	bogus := Benchmark{Name: "bogus"}
	sw, err := SweepMeasureCtx(ctx, []Benchmark{fft3, bogus}, []Config{{}, {BlockSize: 4}}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := CompareMeasureCtx(ctx, []Benchmark{fft3, bogus}, []SchemeSpec{{Name: "paper"}, {Name: "gray"}}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for i := range sw.Errors {
		msgs = append(msgs, sw.Errors[i].Error())
	}
	for i := range cmp.Errors {
		msgs = append(msgs, cmp.Errors[i].Error())
	}
	want := []string{
		"imtrans: sweep capture stage, fft: n 3 is not a power of two",
		"imtrans: sweep capture stage, bogus: use Benchmarks or BenchmarkByName to obtain benchmarks",
		"imtrans: compare capture stage, fft: n 3 is not a power of two",
		"imtrans: compare capture stage, bogus: use Benchmarks or BenchmarkByName to obtain benchmarks",
	}
	if !slices.Equal(msgs, want) {
		t.Errorf("grid capture errors:\n got %q\nwant %q", msgs, want)
	}

	// An mmul variant whose first load is unaligned fails its profiling
	// run.
	b := mustBench(t, "mmul").WithScale(8, 1)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	lw, err := Assemble("lw $t0, 1($zero)")
	if err != nil {
		t.Fatal(err)
	}
	variant := *p
	variant.Text = slices.Clone(p.Text)
	variant.Text[0] = lw.Text[0]
	_, err = b.MeasureModified(&variant)
	if err == nil || !strings.HasPrefix(err.Error(), "imtrans: mmul: profiling run: ") {
		t.Fatalf("MeasureModified(unaligned variant): got %v, want a profiling-run error naming mmul", err)
	}
	checkPrefixOnce(t, "MeasureModified(unaligned variant)", err.Error(), "mmul")
}

// TestBitStreamInputRefused feeds the theory facades inputs
// EncodeBitStream could never produce or accept: each is an error, never
// a panic or a silent pass-through.
func TestBitStreamInputRefused(t *testing.T) {
	stream := []uint8{1, 0, 1, 1, 0, 0, 1, 0, 1}
	se, err := EncodeBitStream(stream, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(se.Taus) != 4 {
		t.Fatalf("%d taus, want 4", len(se.Taus))
	}
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"decode k=1", func() error { _, err := DecodeBitStream(se.Code, 1, se.Taus); return err },
			"imtrans: block size 1 out of range [2, 16]"},
		{"decode k=0", func() error { _, err := DecodeBitStream(se.Code[:3], 0, se.Taus[:1]); return err },
			"imtrans: block size 0 out of range [2, 16]"},
		{"decode k=17", func() error { _, err := DecodeBitStream(se.Code, 17, se.Taus[:1]); return err },
			"imtrans: block size 17 out of range [2, 16]"},
		{"decode three taus", func() error { _, err := DecodeBitStream(se.Code, 3, se.Taus[:3]); return err },
			"imtrans: 3 transformations for 4 blocks"},
		{"decode no taus", func() error { _, err := DecodeBitStream(se.Code, 3, nil); return err },
			"imtrans: 0 transformations for 4 blocks"},
		{"decode bit 2", func() error {
			_, err := DecodeBitStream([]uint8{0, 2, 1}, 3, se.Taus[:1])
			return err
		}, "imtrans: stream bit 1 is 2, want 0 or 1"},
		{"encode bits 2 and 3", func() error { _, err := EncodeBitStream([]uint8{2, 0, 1, 3}, 3); return err },
			"imtrans: stream bit 0 is 2, want 0 or 1"},
		{"encode k=17", func() error { _, err := EncodeBitStream(stream, 17); return err },
			"imtrans: block size 17 out of range [2, 16]"},
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: got %v, want %s", tc.name, err, tc.want)
		}
	}
	back, err := DecodeBitStream(se.Code, 3, se.Taus)
	if err != nil || !slices.Equal(back, stream) {
		t.Errorf("round trip: got %v, %v; want %v", back, err, stream)
	}
}
