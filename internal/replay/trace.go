// Package replay implements the fetch-trace capture/replay engine: the
// dynamic instruction fetch stream of a deterministic run is a pure
// function of the program, so it is simulated once, captured as a compact
// compressed text-index trace, and replayed — bit-identically — against
// any number of encoding configurations without touching the CPU or the
// memory model again.
//
// The trace records the sequence of text indices fetched, compressed in
// two stages. First, consecutive index deltas are run-length encoded:
// straight-line execution is a single (+1, n) run and every taken branch
// contributes one extra token, so the token stream is proportional to the
// number of taken branches, not to the instruction count. Second, tandem
// repeats in the token stream are collapsed into nested repeat groups: a
// hot loop iterating a million times is two tokens and a repeat count, and
// nested loops with fixed trip counts collapse recursively. Kernels spend
// nearly all of their time in such loops, so real traces compress from
// hundreds of millions of fetches to a few hundred ops.
package replay

// Op is one node of a compressed fetch-index trace. A leaf op is a run:
// Count consecutive fetches, each stepping Delta text indices from its
// predecessor. A group op (Repeat > 0) is Body replayed Repeat times;
// Delta and Count are unused there.
type Op struct {
	Delta  int32
	Count  int64
	Repeat int64
	Body   []Op
}

// leafEqual reports whether two ops are equal without descending into
// bodies — the cheap precheck of the tandem-repeat scan.
func leafEqual(a, b Op) bool {
	return a.Delta == b.Delta && a.Count == b.Count && a.Repeat == b.Repeat &&
		(a.Repeat == 0 || len(a.Body) == len(b.Body))
}

func opEqual(a, b Op) bool {
	if !leafEqual(a, b) {
		return false
	}
	if a.Repeat == 0 {
		return true
	}
	return opsEqual(a.Body, b.Body)
}

func opsEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !opEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Trace is a captured fetch-index stream: the index of the first fetch
// plus the compressed delta ops describing fetches 2..N.
type Trace struct {
	First int32  // text index of the first fetch
	N     uint64 // total fetches, including the first
	Ops   []Op
}

// Fetches returns the number of fetches the trace describes.
func (t *Trace) Fetches() uint64 { return t.N }

// NumOps returns the total op count, descending into repeat groups once —
// the in-memory size of the compressed trace.
func (t *Trace) NumOps() int { return countOps(t.Ops) }

func countOps(ops []Op) int {
	n := 0
	for i := range ops {
		n++
		if ops[i].Repeat > 0 {
			n += countOps(ops[i].Body)
		}
	}
	return n
}

// Runs calls fn for every delta run of the stream in order, with repeat
// groups expanded: fn(delta, count) stands for count fetches each stepping
// delta from the previous index. The first fetch (at index First) is not
// part of any run. fn returning false stops the walk.
func (t *Trace) Runs(fn func(delta int32, count int64) bool) {
	runOps(t.Ops, fn)
}

func runOps(ops []Op, fn func(delta int32, count int64) bool) bool {
	for i := range ops {
		op := &ops[i]
		if op.Repeat > 0 {
			for r := int64(0); r < op.Repeat; r++ {
				if !runOps(op.Body, fn) {
					return false
				}
			}
			continue
		}
		if !fn(op.Delta, op.Count) {
			return false
		}
	}
	return true
}

// Indices calls fn for every fetched text index in stream order, fully
// expanded: the per-fetch reference walk tests and benchmark checks drive
// naive coders with. Captures and the replay engines work on runs and
// repeat groups instead.
func (t *Trace) Indices(fn func(idx int32)) {
	if t.N == 0 {
		return
	}
	idx := t.First
	fn(idx)
	t.Runs(func(delta int32, count int64) bool {
		for i := int64(0); i < count; i++ {
			idx += delta
			fn(idx)
		}
		return true
	})
}

// maxTandemWindow bounds the token window the builder scans for tandem
// repeats. Loop bodies produce a handful of tokens per iteration (one per
// taken branch), so a modest window catches real loop nests while keeping
// the per-token cost bounded.
const maxTandemWindow = 24

// Builder incrementally compresses a fetch-index stream. Feed it every
// fetched text index in order via Add, then call Trace.
type Builder struct {
	first    int32
	n        uint64
	lastIdx  int32
	curDelta int32
	curCount int64
	ops      []Op
}

// NewBuilder returns an empty trace builder.
func NewBuilder() *Builder { return &Builder{} }

// Add records the next fetched text index.
func (b *Builder) Add(idx int) {
	i := int32(idx)
	b.n++
	if b.n == 1 {
		b.first, b.lastIdx = i, i
		return
	}
	delta := i - b.lastIdx
	b.lastIdx = i
	if b.curCount > 0 && delta == b.curDelta {
		b.curCount++
		return
	}
	b.flushRun()
	b.curDelta, b.curCount = delta, 1
}

func (b *Builder) flushRun() {
	if b.curCount == 0 {
		return
	}
	b.push(Op{Delta: b.curDelta, Count: b.curCount})
	b.curCount = 0
}

// push appends a finished op and eagerly collapses tandem repeats at the
// tail of the op stack. Amortised cost per op is O(maxTandemWindow): the
// window scans are O(1) prechecks, and the full window comparison runs at
// most once per successful collapse.
func (b *Builder) push(op Op) {
	b.ops = append(b.ops, op)
	for b.collapseTail() {
	}
}

// collapseTail tries, in order: extending a repeat group that immediately
// precedes an equal tail window, and folding two equal adjacent tail
// windows into a new repeat group. Returns true if it changed the stack.
func (b *Builder) collapseTail() bool {
	n := len(b.ops)
	// Extend: ... Repeat{body} body  =>  ... Repeat{body; Repeat+1}.
	for w := 1; w <= maxTandemWindow && w < n; w++ {
		g := &b.ops[n-w-1]
		if g.Repeat == 0 || len(g.Body) != w {
			continue
		}
		if !opsEqual(g.Body, b.ops[n-w:]) {
			continue
		}
		g.Repeat++
		b.ops = b.ops[:n-w]
		return true
	}
	// Fold: ... body body  =>  ... Repeat{body; 2}.
	for w := 1; w <= maxTandemWindow && 2*w <= n; w++ {
		if !leafEqual(b.ops[n-1], b.ops[n-1-w]) {
			continue // cheap precheck on the last op of each window
		}
		if !opsEqual(b.ops[n-2*w:n-w], b.ops[n-w:]) {
			continue
		}
		body := make([]Op, w)
		copy(body, b.ops[n-w:])
		b.ops = append(b.ops[:n-2*w], Op{Repeat: 2, Body: body})
		return true
	}
	return false
}

// Trace finalises and returns the compressed trace. The builder must not
// be used afterwards.
func (b *Builder) Trace() *Trace {
	b.flushRun()
	return &Trace{First: b.first, N: b.n, Ops: b.ops}
}
