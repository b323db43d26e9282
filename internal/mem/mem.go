// Package mem provides the byte-addressable little-endian data memory used
// by the MR32 functional simulator. The address space is sparse (text,
// data and stack segments live far apart, following the SimpleScalar/SPIM
// layout), so storage is paged on demand.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Conventional segment bases, matching the SPIM/SimpleScalar layout the
// benchmarks assume.
const (
	TextBase  uint32 = 0x00400000
	DataBase  uint32 = 0x10010000
	StackBase uint32 = 0x7fffeffc
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1

	// A page number splits into a directory index (its top dirBits
	// bits) and an index into one page table (the rest).
	dirBits   = 10
	tableBits = 32 - pageShift - dirBits
)

// Memory is a sparse byte-addressable memory. The zero value is ready to
// use. Memory is not safe for concurrent mutation.
type Memory struct {
	// dir is a two-level page table over the whole 32-bit space: each
	// entry covers 4 MiB of addresses and points to the table of its
	// pages once one is touched. A lookup is two loads and no call, so
	// every access inlines it, and the word accessors inline into the
	// simulator: kernels walk several arrays at once, and a map lookup or
	// a call per access would cost more than the access.
	dir   [1 << dirBits]*pageTable
	pages int // allocated pages
}

// pageTable maps the pages of one directory entry.
type pageTable [1 << tableBits]*pageBytes

// pageBytes is the storage of one page.
type pageBytes [pageSize]byte

// New returns an empty memory.
func New() *Memory { return new(Memory) }

// page returns the page holding addr, allocating it (and its page table)
// on first touch. It works through the two slots' addresses, which the
// inliner charges less than indexing each slot twice.
func (m *Memory) page(addr uint32) *pageBytes {
	t := &m.dir[addr>>(32-dirBits)]
	if *t == nil {
		*t = new(pageTable)
	}
	p := &(*t)[addr>>pageShift&(1<<tableBits-1)]
	if *p == nil {
		*p = new(pageBytes)
		m.pages++
	}
	return *p
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint32) byte {
	return m.page(addr)[addr&pageMask]
}

// StoreByte writes the byte at addr.
func (m *Memory) StoreByte(addr uint32, v byte) {
	m.page(addr)[addr&pageMask] = v
}

// LoadHalf returns the little-endian 16-bit value at addr. addr must be
// 2-byte aligned.
func (m *Memory) LoadHalf(addr uint32) (uint16, error) {
	if addr&1 != 0 {
		return 0, fmt.Errorf("mem: unaligned halfword load at %#x", addr)
	}
	p := m.page(addr)
	off := addr & pageMask
	return uint16(p[off]) | uint16(p[off+1])<<8, nil
}

// StoreHalf writes the little-endian 16-bit value at addr. addr must be
// 2-byte aligned.
func (m *Memory) StoreHalf(addr uint32, v uint16) error {
	if addr&1 != 0 {
		return fmt.Errorf("mem: unaligned halfword store at %#x", addr)
	}
	p := m.page(addr)
	off := addr & pageMask
	p[off] = byte(v)
	p[off+1] = byte(v >> 8)
	return nil
}

// LoadWord returns the little-endian 32-bit value at addr. addr must be
// 4-byte aligned.
func (m *Memory) LoadWord(addr uint32) (uint32, error) {
	if addr&3 != 0 {
		return 0, wordLoadError(addr)
	}
	return binary.LittleEndian.Uint32(m.page(addr)[addr&pageMask:]), nil
}

// StoreWord writes the little-endian 32-bit value at addr. addr must be
// 4-byte aligned.
func (m *Memory) StoreWord(addr uint32, v uint32) error {
	if addr&3 != 0 {
		return wordStoreError(addr)
	}
	binary.LittleEndian.PutUint32(m.page(addr)[addr&pageMask:], v)
	return nil
}

// wordLoadError and wordStoreError are an unaligned word access at their
// address. LoadWord and StoreWord return them as plain values, which
// keeps both under the inliner's budget: the message is formatted only
// when it is read.
type (
	wordLoadError  uint32
	wordStoreError uint32
)

func (e wordLoadError) Error() string {
	return fmt.Sprintf("mem: unaligned word load at %#x", uint32(e))
}

func (e wordStoreError) Error() string {
	return fmt.Sprintf("mem: unaligned word store at %#x", uint32(e))
}

// LoadFloat returns the float32 stored at addr.
func (m *Memory) LoadFloat(addr uint32) (float32, error) {
	w, err := m.LoadWord(addr)
	return math.Float32frombits(w), err
}

// StoreFloat writes a float32 at addr.
func (m *Memory) StoreFloat(addr uint32, v float32) error {
	return m.StoreWord(addr, math.Float32bits(v))
}

// StoreWords writes a word slice starting at addr.
func (m *Memory) StoreWords(addr uint32, ws []uint32) error {
	for i, w := range ws {
		if err := m.StoreWord(addr+uint32(4*i), w); err != nil {
			return err
		}
	}
	return nil
}

// LoadWords reads n consecutive words starting at addr.
func (m *Memory) LoadWords(addr uint32, n int) ([]uint32, error) {
	out := make([]uint32, n)
	for i := range out {
		w, err := m.LoadWord(addr + uint32(4*i))
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// StoreFloats writes a float32 slice starting at addr.
func (m *Memory) StoreFloats(addr uint32, fs []float32) error {
	for i, f := range fs {
		if err := m.StoreFloat(addr+uint32(4*i), f); err != nil {
			return err
		}
	}
	return nil
}

// LoadFloats reads n consecutive float32 values starting at addr.
func (m *Memory) LoadFloats(addr uint32, n int) ([]float32, error) {
	out := make([]float32, n)
	for i := range out {
		f, err := m.LoadFloat(addr + uint32(4*i))
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// LoadString reads a NUL-terminated string starting at addr, capped at max
// bytes to bound the damage of a missing terminator.
func (m *Memory) LoadString(addr uint32, max int) string {
	var b []byte
	for i := 0; i < max; i++ {
		c := m.LoadByte(addr + uint32(i))
		if c == 0 {
			break
		}
		b = append(b, c)
	}
	return string(b)
}

// Footprint returns the number of distinct pages touched and the total
// bytes they occupy — a cheap capacity diagnostic.
func (m *Memory) Footprint() (pages int, bytes int) {
	return m.pages, m.pages * pageSize
}

// TouchedPages lists the base addresses of allocated pages in ascending
// order. Useful in tests and debug dumps.
func (m *Memory) TouchedPages() []uint32 {
	out := make([]uint32, 0, m.pages)
	for d, t := range m.dir {
		if t == nil {
			continue
		}
		for i, p := range t {
			if p != nil {
				out = append(out, uint32(d)<<(32-dirBits)|uint32(i)<<pageShift)
			}
		}
	}
	return out
}
