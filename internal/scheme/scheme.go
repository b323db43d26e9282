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
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"imtrans/internal/core"
	"imtrans/internal/power"
	"imtrans/internal/replay"
)

// Params is the union of every registered scheme's tuning knobs. Each
// scheme reads only the fields its ConfigSpace lists, and Validate
// refuses the rest; the zero value is every scheme's default operating
// point. Keeping one flat struct (instead of per-scheme opaque blobs) is
// what lets the grid machinery hash, journal and compare configurations
// uniformly.
type Params struct {
	// Paper TT/BBIT knobs, mirroring the root Config.
	BlockSize    int  // k; 0 means 5
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
// doc, and the inclusive value range (booleans are 0..1). Zero is always
// accepted as the scheme's default, whatever Min says.
type Knob struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
	Min  int    `json:"min"`
	Max  int    `json:"max"`
}

// knobNames names every Params field as a ConfigSpace lists it, in the
// order values returns them.
var knobNames = [...]string{
	"block_size", "tt_entries", "bbit_entries", "all_functions", "exact", "knapsack", "bus_width",
	"entries", "extra_lines",
}

// values returns p's fields in knobNames order, booleans as 0 or 1.
func (p *Params) values() [len(knobNames)]int {
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	return [...]int{
		p.BlockSize, p.TTEntries, p.BBITEntries, b(p.AllFunctions), b(p.Exact), b(p.Knapsack), p.BusWidth,
		p.Entries, p.ExtraLines,
	}
}

// ErrUnlisted marks a Validate failure for a nonzero Params field that
// the scheme's ConfigSpace does not list.
var ErrUnlisted = errors.New("not a knob the scheme reads")

// Validate checks p against the scheme's ConfigSpace, the one
// declaration of which knobs it reads and which values it accepts: a
// listed knob is 0 (the scheme's default) or inside [Min, Max], and every
// Params field the scheme does not list is 0. Range errors come first;
// an unlisted field's error wraps ErrUnlisted. It allocates nothing on
// success, so measurements call it once per cell.
func Validate(s Scheme, p Params) error {
	vals := p.values()
	for _, k := range s.ConfigSpace() {
		i := slices.Index(knobNames[:], k.Name)
		if v := vals[i]; v != 0 && (v < k.Min || v > k.Max) {
			return fmt.Errorf("scheme: %s: %s %d out of range [%d, %d]", s.Name(), k.Name, v, k.Min, k.Max)
		}
		vals[i] = 0
	}
	for i, v := range vals {
		if v != 0 {
			return fmt.Errorf("scheme: %s: %s: %w", s.Name(), knobNames[i], ErrUnlisted)
		}
	}
	return nil
}

// Workload is one captured benchmark plus the execution environment a
// measurement runs in: the optional shared memo store (which also carries
// its signature group's candidate list) and encoder arena the sweep
// machinery threads through. Only the paper scheme uses the environment
// fields; trace-replay schemes read just the capture.
type Workload struct {
	Cap *replay.Capture

	// Deprecated: Streaming is ignored. The paper replay has one image
	// model; the field stays for source compatibility.
	Streaming bool

	// Deprecated: EncWorkers is ignored. The encoder runs a block's bit
	// lines in one serial loop; the field stays for source compatibility.
	EncWorkers int

	Shared   *replay.MemoStore
	EncArena *core.Arena

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

// Scheme is one pluggable encoding backend: it names itself, declares
// its configuration space, and measures a captured workload under a
// parameter set that Validate accepted.
type Scheme interface {
	Name() string
	Description() string

	// ConfigSpace lists the Params fields the scheme reads with their
	// ranges; Validate derives every knob check from it. It returns the
	// same shared slice on every call, which callers must not modify.
	ConfigSpace() []Knob

	// Spec renders a parameter set compactly and deterministically — the
	// label grid machinery and checkpoint journals identify a (scheme,
	// params) column by. It must be a pure function of p.
	Spec(p Params) string

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
