package mem

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestByteRoundTrip(t *testing.T) {
	m := New()
	m.StoreByte(0x10010000, 0xab)
	if got := m.LoadByte(0x10010000); got != 0xab {
		t.Errorf("byte = %#x", got)
	}
	if got := m.LoadByte(0x10010001); got != 0 {
		t.Errorf("untouched byte = %#x", got)
	}
}

func TestWordLittleEndian(t *testing.T) {
	m := New()
	if err := m.StoreWord(0x1000, 0x11223344); err != nil {
		t.Fatal(err)
	}
	if m.LoadByte(0x1000) != 0x44 || m.LoadByte(0x1003) != 0x11 {
		t.Error("word not little-endian")
	}
	w, err := m.LoadWord(0x1000)
	if err != nil || w != 0x11223344 {
		t.Errorf("LoadWord = %#x, %v", w, err)
	}
}

func TestHalfRoundTrip(t *testing.T) {
	m := New()
	if err := m.StoreHalf(0x2002, 0xbeef); err != nil {
		t.Fatal(err)
	}
	h, err := m.LoadHalf(0x2002)
	if err != nil || h != 0xbeef {
		t.Errorf("LoadHalf = %#x, %v", h, err)
	}
}

// TestAlignmentErrors pins the unaligned-access messages verbatim: the
// simulator's errors quote them.
func TestAlignmentErrors(t *testing.T) {
	m := New()
	_, lw := m.LoadWord(0x10010002)
	_, lf := m.LoadFloat(0x7fffeffe)
	_, lh := m.LoadHalf(1)
	for _, c := range []struct {
		err  error
		want string
	}{
		{lw, "mem: unaligned word load at 0x10010002"},
		{m.StoreWord(1, 0), "mem: unaligned word store at 0x1"},
		{lf, "mem: unaligned word load at 0x7fffeffe"},
		{m.StoreFloat(0xffffffff, 0), "mem: unaligned word store at 0xffffffff"},
		{lh, "mem: unaligned halfword load at 0x1"},
		{m.StoreHalf(3, 0), "mem: unaligned halfword store at 0x3"},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("err = %v, want %q", c.err, c.want)
		}
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	// A word whose bytes span a page boundary must still round-trip.
	addr := uint32(pageSize - 2)
	if err := m.StoreHalf(addr, 0x1234); err != nil {
		t.Fatal(err)
	}
	h, err := m.LoadHalf(addr)
	if err != nil || h != 0x1234 {
		t.Errorf("cross-boundary half = %#x", h)
	}
}

func TestFloatRoundTrip(t *testing.T) {
	m := New()
	vals := []float32{0, 1.5, -3.25, float32(math.Pi), float32(math.Inf(1))}
	for i, v := range vals {
		addr := DataBase + uint32(4*i)
		if err := m.StoreFloat(addr, v); err != nil {
			t.Fatal(err)
		}
		got, err := m.LoadFloat(addr)
		if err != nil || math.Float32bits(got) != math.Float32bits(v) {
			t.Errorf("float %v round-tripped to %v", v, got)
		}
	}
}

func TestSliceHelpers(t *testing.T) {
	m := New()
	ws := []uint32{1, 2, 3, 0xffffffff}
	if err := m.StoreWords(DataBase, ws); err != nil {
		t.Fatal(err)
	}
	got, err := m.LoadWords(DataBase, len(ws))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		if got[i] != ws[i] {
			t.Errorf("word %d = %#x", i, got[i])
		}
	}
	fs := []float32{1, 2.5, -4}
	if err := m.StoreFloats(DataBase+0x100, fs); err != nil {
		t.Fatal(err)
	}
	gf, err := m.LoadFloats(DataBase+0x100, len(fs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range fs {
		if gf[i] != fs[i] {
			t.Errorf("float %d = %v", i, gf[i])
		}
	}
	if err := m.StoreWords(1, ws); err == nil {
		t.Error("unaligned StoreWords accepted")
	}
	if _, err := m.LoadWords(2, 1); err == nil {
		t.Error("unaligned LoadWords accepted")
	}
	if _, err := m.LoadFloats(2, 1); err == nil {
		t.Error("unaligned LoadFloats accepted")
	}
	if err := m.StoreFloats(2, fs); err == nil {
		t.Error("unaligned StoreFloats accepted")
	}
}

func TestLoadString(t *testing.T) {
	m := New()
	for i, c := range []byte("hello") {
		m.StoreByte(DataBase+uint32(i), c)
	}
	if got := m.LoadString(DataBase, 100); got != "hello" {
		t.Errorf("LoadString = %q", got)
	}
	if got := m.LoadString(DataBase, 3); got != "hel" {
		t.Errorf("capped LoadString = %q", got)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var m Memory
	m.StoreByte(42, 7)
	if m.LoadByte(42) != 7 {
		t.Error("zero-value Memory unusable")
	}
}

func TestFootprintAndPages(t *testing.T) {
	m := New()
	m.StoreByte(0, 1)
	m.StoreByte(3*pageSize, 1)
	pages, bytes := m.Footprint()
	if pages != 2 || bytes != 2*pageSize {
		t.Errorf("footprint = %d pages %d bytes", pages, bytes)
	}
	tp := m.TouchedPages()
	if len(tp) != 2 || tp[0] != 0 || tp[1] != 3*pageSize {
		t.Errorf("touched = %v", tp)
	}
}

func TestWordQuickProperty(t *testing.T) {
	m := New()
	err := quick.Check(func(addr uint32, v uint32) bool {
		addr &^= 3
		if err := m.StoreWord(addr, v); err != nil {
			return false
		}
		got, err := m.LoadWord(addr)
		return err == nil && got == v
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestPageTablesMatchReference drives loads and stores across page edges
// of the two-level page table — the first and last page of a page table
// and the pages either side of a table boundary, at DataBase, at the end
// of the most data a kernel may lay out, below DataBase, on the stack and
// at the top of the address space — against a byte map. Every access
// touches its page, loads included, so Footprint and TouchedPages must
// list exactly the pages accessed.
func TestPageTablesMatchReference(t *testing.T) {
	m := New()
	ref := map[uint32]byte{}
	touched := map[uint32]bool{}
	access := func(addr uint32, n int) {
		for i := 0; i < n; i++ {
			touched[(addr+uint32(i))&^pageMask] = true
		}
	}
	const dataEnd = DataBase + 1<<28 // workloads.MaxDataBytes above DataBase
	const tableSpan = 1 << (32 - dirBits)
	edges := []uint32{
		0, 8 * pageSize, tableSpan - pageSize, tableSpan,
		DataBase - pageSize, DataBase, DataBase + pageSize, DataBase + 0x8000,
		DataBase&^(tableSpan-1) + tableSpan,
		dataEnd - 2*pageSize, dataEnd - pageSize, dataEnd, dataEnd + pageSize,
		StackBase&^pageMask - pageSize, StackBase &^ pageMask,
		0xffffe000, 0xfffff000,
	}
	v := uint32(0x9e3779b9)
	for _, edge := range edges {
		for _, off := range []int32{-8, -4, -2, -1, 0, 1, 2, 4, pageSize - 4} {
			addr := edge + uint32(off)
			v = v*1664525 + 1013904223
			m.StoreByte(addr, byte(v))
			ref[addr] = byte(v)
			access(addr, 1)
			h := addr &^ 1
			if err := m.StoreHalf(h, uint16(v>>8)); err != nil {
				t.Fatal(err)
			}
			ref[h], ref[h+1] = byte(v>>8), byte(v>>16)
			access(h, 2)
			w := addr&^3 + 4
			if err := m.StoreWord(w, v); err != nil {
				t.Fatal(err)
			}
			for i := uint32(0); i < 4; i++ {
				ref[w+i] = byte(v >> (8 * i))
			}
			access(w, 4)
		}
	}
	for addr, want := range ref {
		if got := m.LoadByte(addr); got != want {
			t.Errorf("byte at %#x = %#x, want %#x", addr, got, want)
		}
		access(addr, 1)
		a := addr &^ 3
		w, err := m.LoadWord(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint32(0); i < 4; i++ {
			if got := byte(w >> (8 * i)); got != ref[a+i] {
				t.Errorf("word at %#x byte %d = %#x, want %#x", a, i, got, ref[a+i])
			}
		}
		access(a, 4)
	}
	// A load of a page never stored to reads zero and still touches it.
	for _, addr := range []uint32{DataBase + 5*pageSize, dataEnd + 9*pageSize, StackBase - 64*pageSize} {
		if w, err := m.LoadWord(addr); err != nil || w != 0 {
			t.Errorf("untouched word at %#x = %#x, %v", addr, w, err)
		}
		access(addr, 4)
	}
	var want []uint32
	for p := range touched {
		want = append(want, p)
	}
	slices.Sort(want)
	if got := m.TouchedPages(); !slices.Equal(got, want) {
		t.Errorf("touched pages = %#x\nwant %#x", got, want)
	}
	if pages, bytes := m.Footprint(); pages != len(want) || bytes != len(want)*pageSize {
		t.Errorf("footprint = %d pages %d bytes, want %d pages", pages, bytes, len(want))
	}
}
