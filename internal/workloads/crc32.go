package workloads

import (
	"fmt"

	"imtrans/internal/mem"
)

// CRC32 is a table-driven CRC-32 (IEEE polynomial) over a byte buffer — an
// integer-only kernel that complements the paper's FP-heavy suite with a
// different opcode mix (byte loads, logical ops, table indexing). The
// 256-entry lookup table is precomputed by the host, as embedded firmware
// would hold it in ROM. Iters repeats the whole checksum to scale the
// dynamic instruction count.
func CRC32() *Workload {
	w := &Workload{
		Name:        "crc32",
		Description: "table-driven CRC-32 (IEEE) over a byte buffer",
		Defaults:    Params{N: 65536, Iters: 20},
		TestParams:  Params{N: 256, Iters: 2},
		MinN:        1,
		// 11 instructions per byte, per repetition.
		Insts: func(p Params) float64 {
			return float64(p.Iters)*(11*float64(p.N)+6) + 32
		},
		// The 256-word table, the buffer padded to a word, the result.
		Bytes: func(p Params) float64 {
			return 4*256 + float64((p.N+3)&^3) + 4
		},
	}
	w.Source = func(p Params) string {
		p = w.Fill(p)
		tbl := uint32(dataBase)
		buf := tbl + 4*256
		out := buf + uint32(p.N+3)&^3
		return fmt.Sprintf(`
# crc32: %d bytes, %d repetitions
	li $s0, %d          # table
	li $s1, %d          # buffer
	li $s2, %d          # length
	li $s3, %d          # output address
	li $s7, %d          # repetitions
rep:
	li $t0, -1          # crc = 0xFFFFFFFF
	li $t9, 0           # i
loop:
	addu $t1, $s1, $t9
	lbu  $t2, 0($t1)
	xor  $t3, $t0, $t2
	andi $t3, $t3, 0xff
	sll  $t3, $t3, 2
	addu $t3, $s0, $t3
	lw   $t4, 0($t3)
	srl  $t0, $t0, 8
	xor  $t0, $t0, $t4
	addiu $t9, $t9, 1
	bne  $t9, $s2, loop
	not  $t0, $t0       # final xor
	sw   $t0, 0($s3)
	addiu $s7, $s7, -1
	bgtz $s7, rep
`+exitSeq, p.N, p.Iters, tbl, buf, p.N, out, p.Iters)
	}
	w.Setup = func(m *mem.Memory, p Params) error {
		p = w.Fill(p)
		if err := m.StoreWords(dataBase, crcTable()); err != nil {
			return err
		}
		for i, b := range crcInput(p.N) {
			m.StoreByte(dataBase+4*256+uint32(i), b)
		}
		return nil
	}
	w.Check = func(m *mem.Memory, p Params) error {
		p = w.Fill(p)
		out := dataBase + 4*256 + uint32(p.N+3)&^3
		got, err := m.LoadWord(out)
		if err != nil {
			return err
		}
		want := crcGolden(p.N)
		if got != want {
			return fmt.Errorf("workloads: crc32: got %#08x, want %#08x", got, want)
		}
		return nil
	}
	return w
}

// crcTable builds the standard IEEE CRC-32 lookup table.
func crcTable() []uint32 {
	const poly = 0xedb88320
	tbl := make([]uint32, 256)
	for i := range tbl {
		c := uint32(i)
		for b := 0; b < 8; b++ {
			if c&1 != 0 {
				c = c>>1 ^ poly
			} else {
				c >>= 1
			}
		}
		tbl[i] = c
	}
	return tbl
}

func crcInput(n int) []byte {
	rng := newLCG(0x77)
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(rng.next() >> 13)
	}
	return buf
}

// crcGolden mirrors the kernel's table-driven algorithm.
func crcGolden(n int) uint32 {
	tbl := crcTable()
	crc := ^uint32(0)
	for _, b := range crcInput(n) {
		crc = crc>>8 ^ tbl[(crc^uint32(b))&0xff]
	}
	return ^crc
}
