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

import "slices"

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
// expanded. Tests and benchmark checks drive naive coders with it, and
// the studies that keep per-fetch state of their own (the instruction
// cache's tags, the loaded table phase) walk it over a capture. Captures
// and the replay engines work on runs and repeat groups instead.
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
// fetched text index in order, one at a time via Add or one straight-line
// span at a time via Span, then call Trace.
//
// Folding is eager: each finished run token is pushed onto an op stack
// whose tail is scanned for tandem repeats (collapseTail). Most tokens of
// a loop-heavy stream are the next token of an inner loop's body, and a
// loop-body cursor appends those without the scan. While the op G at
// position g is a group whose body B holds only leaves and the t ops
// above it equal B[:t], a token equal to B[t] is appended, or extends G
// when it completes B. That is exactly what the scan would do:
//   - a window inside the tail is a window inside B, and none fired
//     while B was first pushed (B is on the stack as leaves);
//   - a window straddling G compares G with a leaf;
//   - a collapse reaches below G only through an op at g−w equal to G
//     (a fold of width w) or a group below g whose body holds a copy of
//     G at the index aligned with g (an extend).
//
// The last two kinds differ from G only in their repeat count: the
// cursor lists those counts once when G becomes the top, compares G's
// count with them at each step, and sends any hit to the scan.
type Builder struct {
	first    int32
	n        uint64
	lastIdx  int32
	curDelta int32
	curCount int64
	ops      []Op

	// The loop-body cursor: when cursor is set, ops[at] is a group whose
	// body holds only leaves and the ops above it are a prefix of that
	// body, and hazards are the repeat counts at which a copy of ops[at]
	// below it could join a collapse.
	cursor  bool
	at      int
	hazards []int64
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
	b.run(delta, 1)
}

// Span records the fetches of one straight-line span, first, first+1,
// ..., last (last >= first): the same as calling Add for each in turn.
func (b *Builder) Span(first, last int) {
	b.Add(first)
	if n := int64(last - first); n > 0 {
		b.n += uint64(n)
		b.lastIdx = int32(last)
		b.run(1, n)
	}
}

// run appends count fetches, each stepping delta from its predecessor.
func (b *Builder) run(delta int32, count int64) {
	if b.curCount > 0 && delta == b.curDelta {
		b.curCount += count
		return
	}
	b.flushRun()
	b.curDelta, b.curCount = delta, count
}

func (b *Builder) flushRun() {
	if b.curCount == 0 {
		return
	}
	b.push(Op{Delta: b.curDelta, Count: b.curCount})
	b.curCount = 0
}

// push appends a finished leaf op and eagerly collapses tandem repeats at
// the tail of the op stack: through the loop-body cursor when op is the
// next token of its body and no hazard matches, else through the window
// scan. Amortised cost per scanned op is O(maxTandemWindow): the window
// scans are O(1) prechecks, and the full window comparison runs at most
// once per successful collapse.
func (b *Builder) push(op Op) {
	next := false // op continues the cursor's body
	if b.cursor {
		g := &b.ops[b.at]
		t := len(b.ops) - b.at - 1
		next = leafEqual(op, g.Body[t])
		if next {
			done := t+1 == len(g.Body)
			r := g.Repeat
			if done {
				r++
			}
			if !slices.Contains(b.hazards, r) {
				if done {
					g.Repeat = r
					b.ops = b.ops[:b.at+1]
				} else {
					b.ops = append(b.ops, op)
				}
				return
			}
		}
	}
	b.ops = append(b.ops, op)
	if !b.collapseTail() {
		b.cursor = b.cursor && next
		return
	}
	for b.collapseTail() {
	}
	b.aim()
}

// aim points the cursor at the top op if it is a group whose body holds
// only leaves, and lists its hazards: the repeat counts of the groups
// with its body that sit within one tandem window below it, either as
// ops (fold partners) or inside the body of a group at the index aligned
// with the top (extend partners).
func (b *Builder) aim() {
	top := len(b.ops) - 1
	g := &b.ops[top]
	b.cursor = g.Repeat > 0 && !slices.ContainsFunc(g.Body, func(op Op) bool { return op.Repeat > 0 })
	if !b.cursor {
		return
	}
	b.at = top
	b.hazards = b.hazards[:0]
	for q := max(0, top-maxTandemWindow); q < top; q++ {
		h := &b.ops[q]
		if h.Repeat == 0 {
			continue
		}
		if opsEqual(h.Body, g.Body) {
			b.hazards = append(b.hazards, h.Repeat)
		}
		if k := top - q - 1; k < len(h.Body) {
			if e := &h.Body[k]; e.Repeat > 0 && opsEqual(e.Body, g.Body) {
				b.hazards = append(b.hazards, e.Repeat)
			}
		}
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
