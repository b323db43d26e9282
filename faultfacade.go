package imtrans

import (
	"fmt"
	"strings"

	"imtrans/internal/fault"
	"imtrans/internal/mem"
	"imtrans/internal/stats"
)

// FaultCampaignConfig parameterises a fault-injection campaign over a
// deployment. The campaign is deterministic: the same seed, deployment and
// workload reproduce the same faults and the same outcomes.
type FaultCampaignConfig struct {
	Seed            int64
	PerSite         int // faults injected per site; 0 means 16
	Protected       bool
	MaxInstructions uint64 // per-run instruction cap; 0 keeps the default
}

// FaultSiteSummary is one row of a campaign report: the outcomes of every
// fault injected at one site.
type FaultSiteSummary struct {
	Site      string
	TableSite bool // inside the parity protection domain (TT/BBIT SRAM)
	Total     int
	Masked    int
	Detected  int
	SDC       int
	Crash     int
	// SingleBitTableSDC counts single-bit parity-domain faults that ended
	// in silent corruption — the hardened decoder guarantees zero.
	SingleBitTableSDC int
}

// FaultReport is a completed fault-injection campaign over one deployment
// and workload.
type FaultReport struct {
	Protected bool
	Fetches   uint64 // dynamic fetches per run (golden-run count)
	Sites     []FaultSiteSummary
}

// Faults returns the total number of faults injected.
func (r *FaultReport) Faults() int {
	n := 0
	for _, s := range r.Sites {
		n += s.Total
	}
	return n
}

// SingleBitTableSDC counts single-bit TT/BBIT faults that silently
// corrupted the stream; zero is the protected decoder's guarantee.
func (r *FaultReport) SingleBitTableSDC() int {
	n := 0
	for _, s := range r.Sites {
		n += s.SingleBitTableSDC
	}
	return n
}

// String renders the report as a per-site outcome table.
func (r *FaultReport) String() string {
	mode := "unprotected"
	if r.Protected {
		mode = "protected"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fault campaign (%s decoder, %d faults, %d fetches/run)\n",
		mode, r.Faults(), r.Fetches)
	var t stats.Table
	t.AddRow("site", "faults", "masked", "detected", "sdc", "crash", "det%", "sdc%")
	for _, s := range r.Sites {
		t.AddRowf(s.Site, s.Total, s.Masked, s.Detected, s.SDC, s.Crash,
			fmt.Sprintf("%.1f", stats.Percent(uint64(s.Detected), uint64(s.Total))),
			fmt.Sprintf("%.1f", stats.Percent(uint64(s.SDC), uint64(s.Total))))
	}
	b.WriteString(t.String())
	return b.String()
}

// FaultCampaign injects a deterministic set of faults — encoded-image bits,
// TT selectors and delimiters, BBIT tags and indices, decoder history
// flip-flops, and the serialised artifact at rest — running the workload
// once per fault and classifying each outcome as masked, detected, silent
// data corruption, or crash. With Protected set, the decoder's parity,
// scrub and identity-fallback machinery is armed, and every single-bit
// TT/BBIT fault must be detected with execution degrading to the recovery
// image instead of corrupting.
func (d *Deployment) FaultCampaign(p *Program, setup func(Memory) error, c FaultCampaignConfig) (*FaultReport, error) {
	if d.TextBase != p.TextBase || len(d.Encoded) != len(p.Text) {
		return nil, fmt.Errorf("imtrans: deployment does not match program layout")
	}
	perSite := c.PerSite
	if perSite <= 0 {
		perSite = 16
	}
	t := &fault.Target{
		TextBase:        p.TextBase,
		Text:            p.Text,
		DataBase:        p.DataBase,
		Data:            p.Data,
		MaxInstructions: c.MaxInstructions,
		Encoded:         d.Encoded,
		TT:              d.tt,
		BBIT:            d.bbit,
		BlockSize:       d.BlockSize,
		BusWidth:        d.BusWidth,
		Protected:       c.Protected,
	}
	if setup != nil {
		t.Setup = func(m *mem.Memory) error { return setup(Memory{m: m}) }
	}
	sp, err := t.Spec()
	if err != nil {
		return nil, err
	}
	rep, err := t.Run(fault.Plan(sp, c.Seed, perSite))
	if err != nil {
		return nil, err
	}
	out := &FaultReport{Protected: c.Protected, Fetches: sp.Fetches}
	for _, s := range rep.Summaries() {
		out.Sites = append(out.Sites, FaultSiteSummary{
			Site:              s.Site.String(),
			TableSite:         s.Site.TableSite(),
			Total:             s.Total,
			Masked:            s.Masked,
			Detected:          s.Detected,
			SDC:               s.SDC,
			Crash:             s.Crash,
			SingleBitTableSDC: s.SingleBitTableSDC,
		})
	}
	return out, nil
}

// FaultCampaign profiles and encodes the benchmark, then runs a fault
// campaign over the resulting deployment with the benchmark's memory
// setup. It returns the report together with the deployment it stressed.
func (b Benchmark) FaultCampaign(cfg Config, fc FaultCampaignConfig) (*FaultReport, *Deployment, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	p, err := b.Program()
	if err != nil {
		return nil, nil, err
	}
	run, err := b.Run()
	if err != nil {
		return nil, nil, err
	}
	d, err := BuildDeployment(p, run.Profile, cfg)
	if err != nil {
		return nil, nil, err
	}
	rep, err := d.FaultCampaign(p, b.setup, fc)
	if err != nil {
		return nil, nil, fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	return rep, d, nil
}
