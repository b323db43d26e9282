package replay

// The naive fold: the trace builder as it was before the loop-body cursor
// and span input, kept verbatim (renamed) as the reference every builder
// test compares against. Each token is pushed and the whole tail window
// range is rescanned for tandem repeats.

// naiveBuilder incrementally compresses a fetch-index stream. Feed it every
// fetched text index in order via Add, then call Trace.
type naiveBuilder struct {
	first    int32
	n        uint64
	lastIdx  int32
	curDelta int32
	curCount int64
	ops      []Op
}

// newNaiveBuilder returns an empty naive builder.
func newNaiveBuilder() *naiveBuilder { return &naiveBuilder{} }

// Add records the next fetched text index.
func (b *naiveBuilder) Add(idx int) {
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

func (b *naiveBuilder) flushRun() {
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
func (b *naiveBuilder) push(op Op) {
	b.ops = append(b.ops, op)
	for b.collapseTail() {
	}
}

// collapseTail tries, in order: extending a repeat group that immediately
// precedes an equal tail window, and folding two equal adjacent tail
// windows into a new repeat group. Returns true if it changed the stack.
func (b *naiveBuilder) collapseTail() bool {
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
		if !leafEqual(&b.ops[n-1], &b.ops[n-1-w]) {
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
func (b *naiveBuilder) Trace() *Trace {
	b.flushRun()
	return &Trace{First: b.first, N: b.n, Ops: b.ops}
}

// NewNaiveBuilder gives the package's external tests the naive fold.
var NewNaiveBuilder = newNaiveBuilder
