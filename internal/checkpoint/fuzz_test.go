package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRead asserts total robustness of the journal decoder: arbitrary
// bytes must produce an error or a fully validated checkpoint, never a
// panic — the same property internal/objfile's loaders guarantee.
func FuzzRead(f *testing.F) {
	path := filepath.Join(f.TempDir(), "ck.jsonl")
	j, _, err := Open(path, "cafef00dcafef00d", []string{"mmul", "sor"}, []string{"k=4 TT=16", "k=5 TT=16"})
	if err != nil {
		f.Fatal(err)
	}
	for i, c := range [][2]int{{0, 0}, {1, 1}, {0, 1}} {
		if err := j.Record(c[0], c[1], json.RawMessage(fmt.Sprintf(`{"Encoded":%d}`, 123+i))); err != nil {
			f.Fatal(err)
		}
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(valid, []byte{'\n'}) // header, 3 cells, ""
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[len(lines[0])+len(lines[1])+len(lines[2])/2] ^= 0x10 // inside the middle cell line
	f.Add(flipped)
	f.Add(bytes.Join([][]byte{lines[0], lines[2], lines[1], lines[3]}, nil)) // spliced lines
	f.Add([]byte(`{
 "magic": "imtrans-checkpoint",
 "version": 1,
 "grid": "x",
 "benchmarks": ["a"],
 "configs": ["c"],
 "cells": [{"bench": 0, "config": 0, "measurement": {}}],
 "crc32": 0
}
`)) // a version-1 whole document
	f.Add([]byte(`{"magic":"wrong"}`))
	f.Add([]byte("{"))
	f.Add([]byte("null"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever loads must satisfy the journal invariants.
		if ck.Magic != Magic || ck.Version != Version || ck.Grid == "" {
			t.Fatalf("invalid envelope accepted: %+v", ck)
		}
		if Checksum(ck) != ck.Checksum {
			t.Fatal("checksum mismatch accepted")
		}
		for _, c := range ck.Cells {
			if c.Bench < 0 || c.Bench >= len(ck.Benchmarks) ||
				c.Config < 0 || c.Config >= len(ck.Configs) {
				t.Fatalf("out-of-grid cell accepted: %+v", c)
			}
			if !json.Valid(c.Payload) {
				t.Fatal("malformed payload accepted")
			}
		}
	})
}
