package imtrans

import (
	"strings"
	"testing"
)

func buildTestDeployment(t *testing.T) (*Program, *Deployment) {
	t.Helper()
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildDeployment(p, run.Profile, Config{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	return p, d
}

func TestFaultCampaignProtectedGuarantee(t *testing.T) {
	p, d := buildTestDeployment(t)
	rep, err := d.FaultCampaign(p, nil, FaultCampaignConfig{Seed: 2, PerSite: 8, Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SingleBitTableSDC() != 0 {
		t.Fatalf("protected decoder leaked %d single-bit table faults as SDC\n%s",
			rep.SingleBitTableSDC(), rep)
	}
	detected := 0
	for _, s := range rep.Sites {
		if s.TableSite {
			detected += s.Detected
		}
	}
	if detected == 0 {
		t.Errorf("protection never fired:\n%s", rep)
	}
	out := rep.String()
	for _, want := range []string{"protected decoder", "site", "tt.sel", "bbit.pc", "artifact"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestFaultCampaignUnprotectedExposure(t *testing.T) {
	p, d := buildTestDeployment(t)
	rep, err := d.FaultCampaign(p, nil, FaultCampaignConfig{Seed: 2, PerSite: 8})
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, s := range rep.Sites {
		if s.TableSite {
			bad += s.SDC + s.Crash
		}
	}
	if bad == 0 {
		t.Errorf("unprotected campaign shows no table-fault corruption:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "unprotected decoder") {
		t.Errorf("report does not name the mode:\n%s", rep)
	}
}

func TestFaultCampaignRejectsLayoutMismatch(t *testing.T) {
	p, d := buildTestDeployment(t)
	other, err := Assemble("nop\nli $v0, 10\nsyscall")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.FaultCampaign(other, nil, FaultCampaignConfig{}); err == nil {
		t.Error("layout mismatch accepted")
	}
	_ = p
}

func TestBenchmarkFaultCampaign(t *testing.T) {
	b, err := BenchmarkByName("tri")
	if err != nil {
		t.Fatal(err)
	}
	b = b.WithScale(8, 1)
	rep, d, err := b.FaultCampaign(Config{BlockSize: 4}, FaultCampaignConfig{Seed: 3, PerSite: 2, Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.TTEntries() == 0 {
		t.Fatal("no deployment returned")
	}
	if rep.SingleBitTableSDC() != 0 {
		t.Errorf("benchmark campaign leaked SDC:\n%s", rep)
	}
	if rep.Faults() == 0 || rep.Fetches == 0 {
		t.Errorf("empty campaign: %+v", rep)
	}
}

// TestBenchmarkFaultCampaignReadsCapture requires a benchmark's fault
// campaign to plan from the benchmark's one checked capture: on a
// cleared cache it takes the capture miss, and a following Measure takes
// none.
func TestBenchmarkFaultCampaignReadsCapture(t *testing.T) {
	b := mustBench(t, "tri").WithScale(8, 1)
	ClearCaptureCache()
	if _, _, err := b.FaultCampaign(Config{BlockSize: 4}, FaultCampaignConfig{Seed: 3, PerSite: 1}); err != nil {
		t.Fatal(err)
	}
	if _, misses := CaptureCacheStats(); misses != 1 {
		t.Errorf("campaign: %d capture misses, want 1", misses)
	}
	if _, err := b.Measure(Config{BlockSize: 4}); err != nil {
		t.Fatal(err)
	}
	if _, misses := CaptureCacheStats(); misses != 1 {
		t.Errorf("Measure after the campaign: %d capture misses in all, want 1", misses)
	}
}
