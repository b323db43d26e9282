// Package scheme makes "an encoding scheme" a first-class value: a named
// backend that turns a captured fetch trace into a replay-measurable bus
// cost (transitions, decoder overhead, modelled energy), so sweeps,
// checkpoint-resume, the capture cache and the serving daemon work against
// any scheme, not just the paper's TT/BBIT pipeline. The paper scheme,
// the related-work baselines (Bus-Invert, dictionary compression, the
// Gray/T0 address codes) and the related-work encoder fleet (optimal
// memoryless codebook, limited-weight codes) register themselves here;
// cross-scheme comparison sweeps rank every registered backend per
// workload.
package scheme

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"imtrans/internal/core"
	"imtrans/internal/power"
	"imtrans/internal/replay"
)

// Params is the union of every registered scheme's tuning knobs. Each
// scheme reads only the fields its ConfigSpace lists and validates them;
// the zero value is every scheme's default operating point. Keeping one
// flat struct (instead of per-scheme opaque blobs) is what lets the grid
// machinery hash, journal and compare configurations uniformly.
type Params struct {
	// Paper TT/BBIT knobs, mirroring the root Config.
	BlockSize    int  // k (2..16); 0 means 5
	TTEntries    int  // transformation-table capacity; 0 means 16
	BBITEntries  int  // covered-basic-block capacity; 0 means 16
	AllFunctions bool // search all 16 transformations
	Exact        bool // exact DP chaining instead of greedy
	Knapsack     bool // exact TT allocation instead of hottest-first
	BusWidth     int  // bus lines modelled; 0 means 32

	// Related-work knobs.
	Entries    int // codebook / dictionary capacity; 0 means the scheme default
	ExtraLines int // limited-weight-code redundant bus lines; 0 means the scheme default
}

// Knob describes one Params field a scheme reads: its name, a one-line
// doc, and the inclusive value range (booleans are 0..1).
type Knob struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
	Min  int    `json:"min"`
	Max  int    `json:"max"`
}

// Workload is one captured benchmark plus the execution environment a
// measurement runs in: the streaming switch, the encoder fan-out bound,
// and the optional shared memo store and scratch arenas the sweep
// machinery threads through. Only the paper scheme uses the environment
// fields; trace-replay schemes read just the capture.
type Workload struct {
	Cap        *replay.Capture
	Streaming  bool
	EncWorkers int
	Shared     *replay.MemoStore
	EncArena   *core.Arena
	Scratch    *replay.Scratch

	// Stream is the capture's shared transition stream. Grid machinery
	// materialises it once per benchmark and attaches it to every fleet
	// cell; a nil (or mismatched) stream makes the measurement build a
	// private one.
	Stream *Stream

	// FleetShared shares repeat-group outcomes between fleet batch
	// measurements. Outcomes are exact only across equal-(scheme, spec)
	// cells of the same capture — the grid groups cells accordingly, the
	// way paper cells share a replay.MemoStore per memo signature.
	FleetShared *FleetMemo
}

// Result is one scheme's measurement of one workload. Baseline is the
// unencoded transition count of the bus the scheme drives — the 32-line
// instruction data bus for every scheme except the address-bus codes,
// which report the binary address bus (Detail carries the distinction).
type Result struct {
	Scheme string `json:"scheme"`
	Spec   string `json:"spec"` // human-readable parameter rendering

	Instructions uint64 `json:"instructions"`
	Baseline     uint64 `json:"baseline"`
	Transitions  uint64 `json:"transitions"`

	Percent float64 `json:"percent"` // reduction vs Baseline

	OverheadBits  int `json:"overhead_bits"`   // decoder-side storage
	ExtraBusLines int `json:"extra_bus_lines"` // redundant lines beyond the 32 data lines

	EnergySavedOnChipJ  float64 `json:"energy_saved_onchip_j"`
	EnergySavedOffChipJ float64 `json:"energy_saved_offchip_j"`

	// Detail carries scheme-specific diagnostics (coverage, hit rates,
	// code weights). Keys are stable per scheme.
	Detail map[string]float64 `json:"detail,omitempty"`

	// MemoHits is a fleet replay-path diagnostic: loop iterations and
	// repeat groups charged from a memo, plus derived tables served from
	// the stream cache. It feeds the compare grid's counters and is
	// deliberately excluded from the wire format.
	MemoHits uint64 `json:"-"`
}

// finish derives the reduction percentage and modelled energy savings
// from the Baseline/Transitions pair. Every scheme calls it last.
func (r *Result) finish() {
	r.Percent = power.Reduction(r.Baseline, r.Transitions)
	r.EnergySavedOnChipJ, _ = power.OnChip.Saved(r.Baseline, r.Transitions)
	r.EnergySavedOffChipJ, _ = power.OffChip.Saved(r.Baseline, r.Transitions)
}

// Scheme is one pluggable encoding backend: it names itself, describes
// its configuration space, validates a parameter set, and measures a
// captured workload under those parameters.
type Scheme interface {
	Name() string
	Description() string
	ConfigSpace() []Knob

	// Spec renders a parameter set compactly and deterministically — the
	// label grid machinery and checkpoint journals identify a (scheme,
	// params) column by. It must be a pure function of p.
	Spec(p Params) string

	Validate(p Params) error
	Measure(ctx context.Context, w *Workload, p Params) (*Result, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Scheme{}
)

// Register adds a scheme to the process-wide registry. Registering a
// duplicate or empty name panics: registration happens from init
// functions, where a collision is a programming error.
func Register(s Scheme) {
	name := s.Name()
	if name == "" {
		panic("scheme: registering a scheme with an empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("scheme: duplicate registration of " + name)
	}
	registry[name] = s
}

// Get returns the named scheme or an error listing what is registered.
func Get(name string) (Scheme, error) {
	regMu.RLock()
	s, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("scheme: unknown scheme %q (registered: %v)", name, Names())
	}
	return s, nil
}

// Names returns the registered scheme names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns every registered scheme in name order.
func All() []Scheme {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Scheme, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
