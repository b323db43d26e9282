package imtrans

import (
	"context"

	"imtrans/internal/icache"
	"imtrans/internal/power"
	"imtrans/internal/trace"
)

// CacheConfig describes the instruction cache of MeasureWithCache. The
// zero value selects a 1 KB, 4-word-line, 2-way cache.
type CacheConfig struct {
	LineWords int // words per line (power of two)
	Sets      int // sets (power of two)
	Ways      int // associativity
}

func (c CacheConfig) internal() icache.Config {
	if c.LineWords == 0 && c.Sets == 0 && c.Ways == 0 {
		return icache.DefaultConfig
	}
	return icache.Config{LineWords: c.LineWords, Sets: c.Sets, Ways: c.Ways}
}

// CacheMeasurement reports the two instruction buses of a cached system:
// the core-side bus between the I-cache and the fetch unit (which the
// paper's technique targets — the cache stores the encoded image and the
// decoder sits in the processor), and the memory-side refill bus, which
// carries encoded lines too and therefore also benefits.
type CacheMeasurement struct {
	Cache    CacheConfig
	Encoding Config

	Fetches        uint64
	HitRatePercent float64
	RefillWords    uint64 // words transferred on the refill bus

	CoreBaseline uint64
	CoreEncoded  uint64
	CorePercent  float64

	RefillBaseline uint64
	RefillEncoded  uint64
	RefillPercent  float64
}

// MeasureWithCache measures the pipeline with an instruction cache
// between memory and core. It verifies the paper's storage-independence
// claim — the core-side reduction equals the uncached measurement,
// because the cache stores encoded words verbatim and models tags only —
// and quantifies the bonus reduction on the memory-side refill bus.
//
// It reads the shared capture (see ReplayMeasure, whose setup contract
// applies): the core-side totals are the capture's baseline and the paper
// replay's strict-decoder total, and one cache driven by the captured
// fetch addresses feeds both refill buses, since the miss sequence
// depends on the addresses alone.
func MeasureWithCache(p *Program, setup func(Memory) error, cacheCfg CacheConfig, encCfg Config) (*CacheMeasurement, error) {
	return measureWithCache(p, setup, "", cacheCfg, encCfg)
}

// measureWithCache is MeasureWithCache over the capture cached under salt.
func measureWithCache(p *Program, setup func(Memory) error, salt string, cacheCfg CacheConfig, encCfg Config) (*CacheMeasurement, error) {
	ic := cacheCfg.internal()
	cache, err := icache.New(ic)
	if err != nil {
		return nil, err
	}
	cap, out, err := capturePaper(context.Background(), p, setup, salt, encCfg)
	if err != nil {
		return nil, err
	}
	// wordAt reads an instruction word from an image, with nop padding
	// for line fragments beyond the text segment.
	wordAt := func(img []uint32, addr uint32) uint32 {
		if i := int(addr-cap.Base) / 4; addr >= cap.Base && i < len(img) {
			return img[i]
		}
		return 0
	}
	refillBase, refillEnc := trace.NewBus(32), trace.NewBus(32)
	cache.OnRefill = func(lineAddr uint32) {
		for w := 0; w < ic.LineWords; w++ {
			addr := lineAddr + uint32(4*w)
			refillBase.Transfer(wordAt(cap.Words, addr))
			refillEnc.Transfer(wordAt(out.Enc.EncodedWords, addr))
		}
	}
	cap.Trace.Indices(func(idx int32) { cache.Access(cap.Base + uint32(idx)*4) })

	return &CacheMeasurement{
		Cache:          cacheCfg,
		Encoding:       encCfg,
		Fetches:        cap.Instructions,
		HitRatePercent: cache.HitRate(),
		RefillWords:    cache.Misses * uint64(ic.LineWords),
		CoreBaseline:   cap.BaselineTotal,
		CoreEncoded:    out.Rep.Encoded,
		CorePercent:    power.Reduction(cap.BaselineTotal, out.Rep.Encoded),
		RefillBaseline: refillBase.Total(),
		RefillEncoded:  refillEnc.Total(),
		RefillPercent:  power.Reduction(refillBase.Total(), refillEnc.Total()),
	}, nil
}
