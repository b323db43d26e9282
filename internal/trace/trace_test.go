package trace

import (
	"math/rand"
	"testing"

	"imtrans/internal/bitline"
)

func TestBusCountsHammingDistance(t *testing.T) {
	b := NewBus(32)
	b.Transfer(0x0)
	b.Transfer(0xf) // 4 transitions
	b.Transfer(0x3) // 2 transitions
	if b.Total() != 6 {
		t.Errorf("total = %d", b.Total())
	}
	if b.Words() != 3 {
		t.Errorf("words = %d", b.Words())
	}
	last, ok := b.Last()
	if !ok || last != 3 {
		t.Errorf("last = %#x, %v", last, ok)
	}
}

func TestBusPerLine(t *testing.T) {
	b := NewBus(4)
	seq := []uint32{0b0000, 0b0001, 0b0011, 0b0001}
	for _, v := range seq {
		b.Transfer(v)
	}
	pl := b.PerLine()
	if pl[0] != 1 || pl[1] != 2 || pl[2] != 0 || pl[3] != 0 {
		t.Errorf("per line = %v", pl)
	}
	sum := uint64(0)
	for _, n := range pl {
		sum += n
	}
	if sum != b.Total() {
		t.Errorf("per-line sum %d != total %d", sum, b.Total())
	}
}

func TestBusWidthMasking(t *testing.T) {
	b := NewBus(8)
	b.Transfer(0x0000_0000)
	b.Transfer(0xffff_ff00) // all flips above the modelled width
	if b.Total() != 0 {
		t.Errorf("masked transitions = %d", b.Total())
	}
	if b.Width() != 8 {
		t.Errorf("width = %d", b.Width())
	}
}

func TestBusWidthClamping(t *testing.T) {
	if NewBus(0).Width() != 1 || NewBus(99).Width() != 32 {
		t.Error("width not clamped")
	}
}

func TestBusMatchesBitlineCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	words := make([]uint32, 500)
	for i := range words {
		words[i] = rng.Uint32()
	}
	b := NewBus(32)
	for _, w := range words {
		b.Transfer(w)
	}
	if int(b.Total()) != bitline.WordTransitions(words) {
		t.Errorf("bus %d != bitline %d", b.Total(), bitline.WordTransitions(words))
	}
}

func TestBusReset(t *testing.T) {
	b := NewBus(32)
	b.Transfer(1)
	b.Transfer(2)
	b.Reset()
	if b.Total() != 0 || b.Words() != 0 {
		t.Error("reset incomplete")
	}
	if _, ok := b.Last(); ok {
		t.Error("reset kept bus state")
	}
	b.Transfer(0xffffffff) // must not count against pre-reset state
	if b.Total() != 0 {
		t.Error("first transfer after reset counted transitions")
	}
}
