package imtrans

import (
	"fmt"

	"imtrans/internal/cfg"
	"imtrans/internal/core"
	"imtrans/internal/hw"
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

// MeasureWithCache runs the pipeline with an instruction cache between
// memory and core. It verifies the paper's storage-independence claim —
// the core-side reduction equals the uncached measurement, because the
// cache stores encoded words verbatim — and quantifies the bonus reduction
// on the memory-side refill bus.
func MeasureWithCache(p *Program, setup func(Memory) error, cacheCfg CacheConfig, encCfg Config) (*CacheMeasurement, error) {
	ic := cacheCfg.internal()
	if err := encCfg.validate(); err != nil {
		return nil, err
	}

	// wordAt reads an instruction word from an image, with nop padding
	// for line fragments beyond the text segment.
	wordAt := func(img []uint32, addr uint32) uint32 {
		if addr < p.TextBase {
			return 0
		}
		i := int(addr-p.TextBase) / 4
		if i >= len(img) {
			return 0
		}
		return img[i]
	}

	// Run 1: profile; baseline core and refill buses.
	m1, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	coreBase := trace.NewBus(32)
	refillBase := trace.NewBus(32)
	cache1, err := icache.New(ic)
	if err != nil {
		return nil, err
	}
	var refillWords uint64
	cache1.OnRefill = func(lineAddr uint32) {
		for w := 0; w < ic.LineWords; w++ {
			refillBase.Transfer(wordAt(p.Text, lineAddr+uint32(4*w)))
			refillWords++
		}
	}
	m1.OnFetch = func(pc, word uint32) {
		coreBase.Transfer(word)
		cache1.Access(pc)
	}
	if err := m1.Run(); err != nil {
		return nil, fmt.Errorf("imtrans: cached profiling run: %w", err)
	}

	// Encode from the profile.
	g, err := cfg.Build(p.TextBase, p.Text)
	if err != nil {
		return nil, err
	}
	enc, err := core.Encode(g, m1.Profile(), encCfg.coreConfig())
	if err != nil {
		return nil, err
	}
	if err := enc.Verify(); err != nil {
		return nil, err
	}
	dec, err := hw.NewDecoder(enc)
	if err != nil {
		return nil, err
	}
	dec.Strict = true

	// Run 2: encoded core and refill buses, decoder verified.
	m2, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	coreEnc := trace.NewBus(32)
	refillEnc := trace.NewBus(32)
	cache2, err := icache.New(ic)
	if err != nil {
		return nil, err
	}
	cache2.OnRefill = func(lineAddr uint32) {
		for w := 0; w < ic.LineWords; w++ {
			refillEnc.Transfer(wordAt(enc.EncodedWords, lineAddr+uint32(4*w)))
		}
	}
	var hookErr error
	m2.OnFetch = func(pc, word uint32) {
		busWord := enc.EncodedWords[int(pc-p.TextBase)/4]
		coreEnc.Transfer(busWord)
		cache2.Access(pc)
		restored, err := dec.OnFetch(pc, busWord)
		if err != nil && hookErr == nil {
			hookErr = err
		}
		if restored != word && hookErr == nil {
			hookErr = fmt.Errorf("imtrans: decoder restored %#08x at pc %#x, want %#08x", restored, pc, word)
		}
	}
	if err := m2.Run(); err != nil {
		return nil, fmt.Errorf("imtrans: cached measurement run: %w", err)
	}
	if hookErr != nil {
		return nil, hookErr
	}
	if cache1.Misses != cache2.Misses {
		return nil, fmt.Errorf("imtrans: cache behaviour diverged between runs (%d vs %d misses)",
			cache1.Misses, cache2.Misses)
	}

	return &CacheMeasurement{
		Cache:          cacheCfg,
		Encoding:       encCfg,
		Fetches:        m2.InstCount,
		HitRatePercent: cache1.HitRate(),
		RefillWords:    refillWords,
		CoreBaseline:   coreBase.Total(),
		CoreEncoded:    coreEnc.Total(),
		CorePercent:    power.Reduction(coreBase.Total(), coreEnc.Total()),
		RefillBaseline: refillBase.Total(),
		RefillEncoded:  refillEnc.Total(),
		RefillPercent:  power.Reduction(refillBase.Total(), refillEnc.Total()),
	}, nil
}
