package code

import (
	"testing"

	"imtrans/internal/bitline"
	"imtrans/internal/transform"
)

// benchStream is a deterministic pseudo-random bit stream standing in for
// one vertical bus line of a hot block.
func benchStream(n int) []uint8 {
	s := make([]uint8, n)
	x := uint32(0x2003)
	for i := range s {
		x = x*1664525 + 1013904223
		s[i] = uint8(x >> 31)
	}
	return s
}

// candTableSink keeps BenchmarkCandidateOrders' result alive.
var candTableSink [MaxBlockSize + 1][2][]uint32

// BenchmarkCandidateOrders builds every h=1 candidate order up to
// MaxBlockSize, the whole of the package's initialisation work.
func BenchmarkCandidateOrders(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		candTableSink = buildCandTable()
	}
}

// BenchmarkEncodeBlock is the innermost hot path: choosing the optimal
// (code word, transformation) pair for one k=5 block.
func BenchmarkEncodeBlock(b *testing.B) {
	stream := benchStream(64)
	funcs := transform.Canonical8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orig := stream[(i*5)%32 : (i*5)%32+5]
		if _, ok := EncodeBlock(orig, uint8(i&1), funcs); !ok {
			b.Fatal("infeasible block")
		}
	}
}

func benchmarkChain(b *testing.B, strat Strategy) {
	stream := benchStream(256)
	funcs := transform.Canonical8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeChain(stream, 5, funcs, strat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeChainGreedy encodes a 256-bit line with the paper's
// greedy chaining.
func BenchmarkEncodeChainGreedy(b *testing.B) { benchmarkChain(b, Greedy) }

// BenchmarkEncodeChainExact encodes the same line with the exact-DP
// chaining, the per-last-bit sweep satellite optimisation's hot caller.
func BenchmarkEncodeChainExact(b *testing.B) { benchmarkChain(b, Exact) }

func benchmarkChainPacked(b *testing.B, strat Strategy) {
	stream := benchStream(256)
	src := bitline.PackStream(stream)
	dst := bitline.PackStream(stream)
	tauBuf := make([]transform.Func, 0, NumBlocks(len(stream), 5))
	funcs := transform.Canonical8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AppendChainPacked(dst, src, 5, funcs, strat, tauBuf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeChainPackedGreedy is the packed-word counterpart of
// BenchmarkEncodeChainGreedy: same 256-bit line, zero steady-state
// allocation.
func BenchmarkEncodeChainPackedGreedy(b *testing.B) { benchmarkChainPacked(b, Greedy) }

// BenchmarkEncodeChainPackedExact is the packed exact-DP chaining.
func BenchmarkEncodeChainPackedExact(b *testing.B) { benchmarkChainPacked(b, Exact) }
