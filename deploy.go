package imtrans

import (
	"context"
	"fmt"
	"io"

	"imtrans/internal/hw"
	"imtrans/internal/objfile"
	"imtrans/internal/transform"
)

// Save serialises the program (text, data, symbols) as a versioned JSON
// artifact readable by LoadProgram and the CLI.
func (p *Program) Save(w io.Writer) error {
	return objfile.SaveProgram(w, &objfile.Program{
		TextBase: p.TextBase,
		Text:     p.Text,
		DataBase: p.DataBase,
		Data:     p.Data,
		Symbols:  p.Symbols,
	})
}

// LoadProgram reads a program artifact written by Program.Save.
func LoadProgram(r io.Reader) (*Program, error) {
	f, err := objfile.LoadProgram(r)
	if err != nil {
		return nil, err
	}
	return &Program{
		TextBase: f.TextBase,
		Text:     f.Text,
		DataBase: f.DataBase,
		Data:     f.Data,
		Symbols:  f.Symbols,
	}, nil
}

// Deployment is everything a target system needs to run an encoded
// program: the encoded text image (flashed into the instruction memory)
// and the TT/BBIT contents (uploaded to the fetch-side decoder at load
// time or by the firmware before entering the hot spot).
type Deployment struct {
	BlockSize int
	BusWidth  int
	TextBase  uint32
	Encoded   []uint32
	tt        []hw.TTEntry
	bbit      []hw.BBITEntry
}

// TTEntries returns the number of Transformation Table rows in use.
func (d *Deployment) TTEntries() int { return len(d.tt) }

// CoveredBlocks returns the number of basic blocks the deployment encodes.
func (d *Deployment) CoveredBlocks() int { return len(d.bbit) }

// BuildDeployment plans an encoding from a profile (see ProfileProgram)
// and packages it for a target system.
func BuildDeployment(p *Program, profile []uint64, c Config) (*Deployment, error) {
	enc, dec, err := planProgram(p, profile, c)
	if err != nil {
		return nil, err
	}
	return &Deployment{
		BlockSize: enc.Config.BlockSize,
		BusWidth:  enc.Config.BusWidth,
		TextBase:  p.TextBase,
		Encoded:   enc.EncodedWords,
		tt:        dec.TT(),
		bbit:      dec.BBIT(),
	}, nil
}

// BuildDeploymentStatic plans an encoding without any profile — the
// paper's firmware scenario, where the tables are loaded together with the
// application code rather than tuned per hot spot. Every instruction is
// weighted equally, so selection favours the largest basic blocks; with
// Knapsack set it maximises the static transition savings under the table
// budgets.
func BuildDeploymentStatic(p *Program, c Config) (*Deployment, error) {
	profile := make([]uint64, len(p.Text))
	for i := range profile {
		profile[i] = 1
	}
	return BuildDeployment(p, profile, c)
}

// Deployment profiles the benchmark (through the shared capture cache —
// one simulation per kernel and scale process-wide) and packages the
// resulting encoding for a target system.
func (b Benchmark) Deployment(c Config) (*Deployment, error) {
	return b.DeploymentCtx(context.Background(), c)
}

// DeploymentCtx is Deployment with cooperative cancellation: a profiling
// run it has to make polls ctx, and a cancelled one returns ctx.Err()
// wrapped.
func (b Benchmark) DeploymentCtx(ctx context.Context, c Config) (*Deployment, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	p, err := b.Program()
	if err != nil {
		return nil, fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	cap, err := captureProgram(ctx, p, b.setup, b.captureSalt())
	if err != nil {
		return nil, fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	d, err := BuildDeployment(p, cap.Profile, c)
	if err != nil {
		return nil, fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	return d, nil
}

// VerifyDeployment re-runs the benchmark fetching from the deployment's
// encoded image through a decoder programmed with its tables, checking
// every restored instruction word — the benchmark-suite form of
// Deployment.Verify.
func (b Benchmark) VerifyDeployment(d *Deployment) error {
	return b.VerifyDeploymentCtx(context.Background(), d)
}

// VerifyDeploymentCtx is VerifyDeployment with cooperative cancellation
// of its verification run.
func (b Benchmark) VerifyDeploymentCtx(ctx context.Context, d *Deployment) error {
	p, err := b.Program()
	if err != nil {
		return fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	if err := d.VerifyCtx(ctx, p, b.setup); err != nil {
		return fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	return nil
}

// Save serialises the deployment as a versioned JSON artifact.
func (d *Deployment) Save(w io.Writer) error {
	f := &objfile.Deployment{
		BlockSize: d.BlockSize,
		BusWidth:  d.BusWidth,
		TextBase:  d.TextBase,
		Encoded:   d.Encoded,
	}
	for _, e := range d.tt {
		fe := objfile.TTEntry{Sel: make([]uint16, d.BusWidth), E: e.E, CT: e.CT}
		for line := 0; line < d.BusWidth; line++ {
			fe.Sel[line] = uint16(e.Sel[line])
		}
		f.TT = append(f.TT, fe)
	}
	for _, e := range d.bbit {
		f.BBIT = append(f.BBIT, objfile.BBITEntry{PC: e.PC, TTIndex: e.TTIndex})
	}
	return objfile.SaveDeployment(w, f)
}

// LoadDeployment reads a deployment artifact written by Deployment.Save.
func LoadDeployment(r io.Reader) (*Deployment, error) {
	f, err := objfile.LoadDeployment(r)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		BlockSize: f.BlockSize,
		BusWidth:  f.BusWidth,
		TextBase:  f.TextBase,
		Encoded:   f.Encoded,
	}
	if f.BusWidth < 1 || f.BusWidth > 32 {
		return nil, fmt.Errorf("imtrans: deployment bus width %d out of range [1, 32]", f.BusWidth)
	}
	for i, e := range f.TT {
		// objfile validates these on load; re-check here so a Deployment
		// can never be built from a malformed table, whatever the source.
		if len(e.Sel) != f.BusWidth {
			return nil, fmt.Errorf("imtrans: TT entry %d has %d selectors, want bus width %d", i, len(e.Sel), f.BusWidth)
		}
		var he hw.TTEntry
		for line := range he.Sel {
			he.Sel[line] = transform.Identity
		}
		for line := 0; line < f.BusWidth; line++ {
			fn := transform.Func(e.Sel[line])
			if !fn.Valid() {
				return nil, fmt.Errorf("imtrans: TT entry %d line %d has invalid selector %d", i, line, e.Sel[line])
			}
			he.Sel[line] = fn
		}
		he.E, he.CT = e.E, e.CT
		d.tt = append(d.tt, he)
	}
	for _, e := range f.BBIT {
		d.bbit = append(d.bbit, hw.BBITEntry{PC: e.PC, TTIndex: e.TTIndex})
	}
	return d, nil
}

// Verify executes the original program while fetching from the
// deployment's encoded image through a decoder programmed with the
// deployment's tables, checking every restored word — the end-to-end
// acceptance test a firmware build would run before shipping the artifact.
func (d *Deployment) Verify(p *Program, setup func(Memory) error) error {
	return d.VerifyCtx(context.Background(), p, setup)
}

// VerifyCtx is Verify with cooperative cancellation: the verification
// run polls ctx between bounded chunks of instructions.
func (d *Deployment) VerifyCtx(ctx context.Context, p *Program, setup func(Memory) error) error {
	if d.TextBase != p.TextBase || len(d.Encoded) != len(p.Text) {
		return fmt.Errorf("imtrans: deployment does not match program layout")
	}
	dec, err := hw.NewDecoderFromTables(d.tt, d.bbit, d.BlockSize, d.BusWidth)
	if err != nil {
		return err
	}
	dec.Strict = true
	m, err := newMachine(p, setup)
	if err != nil {
		return err
	}
	// Keep verifying after the first failure: the mismatch count separates
	// a single flipped table bit (every covered fetch corrupt) from a
	// localised image defect, which is diagnostic gold for a firmware
	// build pipeline.
	var mismatches uint64
	var firstErr error
	m.OnFetch = func(pc, word uint32) {
		busWord := d.Encoded[int(pc-d.TextBase)/4]
		restored, err := dec.OnFetch(pc, busWord)
		if err != nil {
			mismatches++
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		if restored != word {
			mismatches++
			if firstErr == nil {
				firstErr = fmt.Errorf("imtrans: deployment restored %#08x at pc %#x, want %#08x",
					restored, pc, word)
			}
		}
	}
	if err := m.RunCtx(ctx); err != nil {
		return fmt.Errorf("imtrans: deployment verification run: %w", err)
	}
	if mismatches > 0 {
		return fmt.Errorf("imtrans: deployment verification: %d corrupted fetches (first: %w)", mismatches, firstErr)
	}
	return nil
}
