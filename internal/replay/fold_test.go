package replay

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// naiveFold folds an index stream through the naive builder.
func naiveFold(idxs []int) *Trace {
	b := newNaiveBuilder()
	for _, i := range idxs {
		b.Add(i)
	}
	return b.Trace()
}

// spanFold feeds an index stream to the Builder the way a capture does:
// one Span per maximal straight-line run.
func spanFold(idxs []int) *Trace {
	b := NewBuilder()
	for i := 0; i < len(idxs); {
		j := i
		for j+1 < len(idxs) && idxs[j+1] == idxs[j]+1 {
			j++
		}
		b.Span(idxs[i], idxs[j])
		i = j + 1
	}
	return b.Trace()
}

// checkFolds requires the Builder, fed per index through Add and per span
// through Span, to build exactly the naive fold's trace.
func checkFolds(t *testing.T, name string, idxs []int) {
	t.Helper()
	want := naiveFold(idxs)
	if got := buildTrace(idxs); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Add-fed trace differs from the naive fold\n got: %s\nwant: %s", name, traceText(got), traceText(want))
	}
	if got := spanFold(idxs); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Span-fed trace differs from the naive fold\n got: %s\nwant: %s", name, traceText(got), traceText(want))
	}
}

func traceText(tr *Trace) string {
	if tr.N == 0 {
		return "(empty)"
	}
	text, err := tr.MarshalText()
	if err != nil {
		return err.Error()
	}
	return string(text)
}

func TestBuilderMatchesNaiveCases(t *testing.T) {
	for ci, idxs := range traceCases() {
		checkFolds(t, fmt.Sprintf("case %d", ci), idxs)
	}
	checkFolds(t, "empty", nil)
}

// loopGen is one loop of a generated nest: a fixed body of parts run trip
// times, where the trip count falls by fall per iteration of the
// enclosing loop (lu's triangular shape) and the exit iteration runs the
// first partial parts of the body before leaving.
type loopGen struct {
	parts   []loopPart
	trip    int
	fall    int
	partial int
}

// loopPart is a straight-line span of text indices, or an inner loop.
type loopPart struct {
	first, last int
	inner       *loopGen
}

func (l *loopGen) emit(out []int, outer int) []int {
	trips := max(1, l.trip-l.fall*outer)
	for it := 0; it < trips; it++ {
		for _, p := range l.parts {
			out = p.emit(out, it)
		}
	}
	for _, p := range l.parts[:l.partial] {
		out = p.emit(out, trips)
	}
	return out
}

func (p loopPart) emit(out []int, it int) []int {
	if p.inner != nil {
		return p.inner.emit(out, it)
	}
	for i := p.first; i <= p.last; i++ {
		out = append(out, i)
	}
	return out
}

// genLoop draws a loop nest of the given depth. Spans come from a small
// pool, so bodies repeat tokens and sibling loops can share bodies.
func genLoop(rng *rand.Rand, depth int, pool []loopPart) *loopGen {
	l := &loopGen{trip: 1 + rng.Intn(12)}
	if depth > 1 {
		l.trip = 1 + rng.Intn(6)
	}
	if rng.Intn(3) == 0 {
		l.fall = 1 + rng.Intn(2)
		l.trip += 4
	}
	nparts := 1 + rng.Intn(4)
	for i := 0; i < nparts; i++ {
		if depth > 1 && rng.Intn(2) == 0 {
			l.parts = append(l.parts, loopPart{inner: genLoop(rng, depth-1, pool)})
			continue
		}
		l.parts = append(l.parts, pool[rng.Intn(len(pool))])
	}
	if rng.Intn(3) == 0 {
		l.partial = rng.Intn(len(l.parts) + 1)
	}
	return l
}

// genNest draws one program: a few top-level loop nests of depth up to 3
// between straight-line stretches.
func genNest(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var pool []loopPart
	for i := 0; i < 2+rng.Intn(6); i++ {
		first := rng.Intn(64) * 4
		pool = append(pool, loopPart{first: first, last: first + rng.Intn(4)})
	}
	var out []int
	for i := 0; i < 1+rng.Intn(3); i++ {
		out = append(out, 300+i, 301+i)
		out = genLoop(rng, 1+rng.Intn(3), pool).emit(out, rng.Intn(3))
	}
	return out
}

// TestBuilderMatchesNaiveNests folds generated loop nests — fixed bodies,
// trip counts that fall with the outer index, partial exit iterations,
// depth up to 3 — and requires the naive fold's trace each time.
func TestBuilderMatchesNaiveNests(t *testing.T) {
	seeds := 3000
	if testing.Short() {
		seeds = 300
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		checkFolds(t, fmt.Sprintf("seed %d", seed), genNest(seed))
	}
}

// fuzzStream expands fuzz bytes into an index stream, two bytes per
// step: below 0xc0 the first byte appends a short straight-line span; at
// or above it the step repeats the last 1..16 indices up to 31 times, so
// repeats nest when steps repeat streams that already repeat.
func fuzzStream(data []byte) []int {
	var out []int
	for i := 0; i+1 < len(data) && len(out) < 1<<15; i += 2 {
		x, y := int(data[i]), int(data[i+1])
		if x < 0xc0 || len(out) == 0 {
			first := x % 48
			for j := 0; j <= y%4; j++ {
				out = append(out, first+j)
			}
			continue
		}
		w := min(1+(x-0xc0)%16, len(out))
		tail := out[len(out)-w:]
		for r := 0; r < y%32; r++ {
			out = append(out, tail...)
		}
	}
	return out
}

// FuzzBuilderMatchesNaive requires the Builder, fed through Add and
// through Span, to build the naive fold's trace for arbitrary index
// streams.
func FuzzBuilderMatchesNaive(f *testing.F) {
	f.Add([]byte{1, 3, 9, 0, 0xc1, 20})
	f.Add([]byte{4, 2, 20, 1, 0xc3, 5, 30, 0, 0xc5, 7})
	f.Add([]byte{1, 0, 1, 0, 1, 0, 2, 3, 0xc2, 9, 5, 1, 0xc7, 4})
	f.Add([]byte{7, 1, 0xc0, 31, 8, 2, 0xc0, 31, 0xc4, 3})
	// Long runs of one span, alone and around a different span.
	f.Add([]byte{5, 3, 0xc3, 31, 0xc3, 31, 0xc3, 31, 0xc3, 31, 0xc3, 31})
	f.Add([]byte{5, 3, 0xc3, 7, 40, 1, 5, 3, 0xc3, 31, 0xc3, 31, 0xc3, 31, 40, 1, 5, 3, 0xc3, 7})
	f.Add([]byte{9, 1, 0xc1, 31, 0xc1, 31, 9, 0, 0xc0, 31, 9, 1, 0xc1, 31, 0xc1, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFolds(t, "fuzz", fuzzStream(data))
	})
}

// TestBuilderAbsorbsRepeatedSpans bounds the per-token work of a loop of
// one span: once the loop's group forms, Span adds further repeats to its
// count in one step, so a million more of them reach the per-token path
// as often as a hundred more do, past the hazard counts the loops before
// it leave, and the whole stream takes at most four per-token spans more
// than it has spans before the run. Each trace must equal the Add-fed
// Builder's.
func TestBuilderAbsorbsRepeatedSpans(t *testing.T) {
	s, x, y := [2]int{10, 13}, [2]int{20, 21}, [2]int{30, 32}
	for pi, prefix := range [][][2]int{
		{x, s, s, s},
		{s, s, s, x, s, s, s, s, s, x, s, s, s, s, y, s, s, s},
		{s, x, s, s, x, s, s, s, y, s, s},
	} {
		slow := func(more int) int {
			spans, adds := NewBuilder(), NewBuilder()
			feed := func(sp [2]int) {
				spans.Span(sp[0], sp[1])
				for i := sp[0]; i <= sp[1]; i++ {
					adds.Add(i)
				}
			}
			for _, sp := range prefix {
				feed(sp)
			}
			for i := 0; i < more; i++ {
				feed(s)
			}
			if got, want := spans.Trace(), adds.Trace(); !reflect.DeepEqual(got, want) {
				t.Fatalf("prefix %d, %d more: Span-fed trace differs from the Add-fed one\n got: %s\nwant: %s",
					pi, more, traceText(got), traceText(want))
			}
			return spans.tokenSpans
		}
		few, many := slow(100), slow(1_000_000)
		if many != few || many > len(prefix)+4 {
			t.Errorf("prefix %d: %d and %d spans through the per-token path after 100 and 10^6 repeats, want the same count, at most %d",
				pi, few, many, len(prefix)+4)
		}
	}
}
