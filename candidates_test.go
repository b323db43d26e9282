package imtrans

import (
	"context"
	"reflect"
	"testing"

	"imtrans/internal/core"
	"imtrans/internal/hw"
	"imtrans/internal/replay"
)

// TestSharedCandidatesMatchPrivateEncode encodes the 336-point paper
// space over all nine kernels through one candidate set per (kernel,
// signature), the way a grid row's signature group does, and requires
// every Encoding to equal a private encode. Each shared Encoding is then
// verified, built into a strict decoder and replayed; afterwards the
// set's whole candidate list, read back through a configuration that
// admits every candidate, must still equal a fresh build.
func TestSharedCandidatesMatchPrivateEncode(t *testing.T) {
	ctx := context.Background()
	space := designSpace(func(int) []bool { return []bool{false, true} })
	if len(space) != 336 {
		t.Fatalf("design space has %d points, want 336", len(space))
	}
	for _, b := range append(Benchmarks(), ExtraBenchmarks()...) {
		b := testScale(b)
		p, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		cap, err := captureProgram(ctx, p, b.setup, b.captureSalt())
		if err != nil {
			t.Fatal(err)
		}
		stores := make(map[string]*replay.MemoStore)
		var sigs []Config
		for _, c := range space {
			sig := memoSig(c)
			store := stores[sig]
			if store == nil {
				store = replay.NewMemoStore()
				stores[sig] = store
				sigs = append(sigs, c)
			}
			cc := c.coreConfig()
			got, err := core.EncodeCtxOpts(ctx, cap.Graph, cap.Profile, cc, core.EncodeOpts{Candidates: store.Candidates()})
			if err != nil {
				t.Fatalf("%s %v: %v", b.Name, c, err)
			}
			want, err := core.EncodeCtx(ctx, cap.Graph, cap.Profile, cc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v: shared-candidate encoding differs from a private encode", b.Name, c)
			}
			if err := got.Verify(); err != nil {
				t.Fatalf("%s %v: %v", b.Name, c, err)
			}
			dec, err := hw.NewDecoder(got)
			if err != nil {
				t.Fatal(err)
			}
			dec.Strict = true
			if _, err := replay.MeasureOpts(ctx, cap, got, dec, replay.Options{Shared: store}); err != nil {
				t.Fatalf("%s %v: %v", b.Name, c, err)
			}
		}
		if len(sigs) != 28 {
			t.Fatalf("%s: %d signatures, want 28", b.Name, len(sigs))
		}
		for _, c := range sigs {
			all := c.coreConfig()
			all.TTEntries, all.BBITEntries, all.Selection = 1<<20, 1<<20, core.HeatGreedy
			got, err := core.EncodeCtxOpts(ctx, cap.Graph, cap.Profile, all, core.EncodeOpts{Candidates: stores[memoSig(c)].Candidates()})
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.EncodeCtx(ctx, cap.Graph, cap.Profile, all)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %v: the shared candidate list changed after verify, decode and replay", b.Name, c)
			}
		}
	}
}
