package imtrans

import (
	"context"
	"fmt"

	"imtrans/internal/rtl"
)

// Verilog renders the deployment's fetch-side decoder as a synthesizable
// Verilog module: the TT and BBIT as ROMs, the per-line gate mux, the
// history registers and the E/CT sequencing FSM. moduleName defaults to
// "imtrans_decoder".
func (d *Deployment) Verilog(moduleName string) (string, error) {
	return rtl.Decoder(d.tt, d.bbit, d.BlockSize, d.BusWidth, rtl.Options{ModuleName: moduleName})
}

// VerilogTestbench renders a self-checking testbench for the deployment's
// decoder. Test vectors — fetch address, encoded bus word, expected
// restored instruction — are the program's first fetches (capped at
// maxVectors; 0 means 1000), read from the shared capture (see
// ReplayMeasure, whose setup contract applies), so a Verilog simulator
// reproduces exactly the behaviour measured by this library.
func (d *Deployment) VerilogTestbench(p *Program, setup func(Memory) error, moduleName string, maxVectors int) (string, error) {
	if d.TextBase != p.TextBase || len(d.Encoded) != len(p.Text) {
		return "", fmt.Errorf("imtrans: deployment does not match program layout")
	}
	if maxVectors <= 0 {
		maxVectors = 1000
	}
	cap, err := captureProgram(context.Background(), p, setup, "")
	if err != nil {
		return "", err
	}
	var vectors []rtl.Vector
	for _, idx := range leadingFetches(cap.Trace, maxVectors) {
		vectors = append(vectors, rtl.Vector{PC: cap.Base + uint32(idx)*4, Bus: d.Encoded[idx], Want: cap.Words[idx]})
	}
	return rtl.Testbench(moduleName, d.BusWidth, vectors)
}
