package imtrans

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestProfileProgramMatchesRuns is ProfileProgram's differential: for
// every kernel at test scale, with its memory setup, the bare run's
// profile equals the shared capture's and Machine.Run's, and the report
// and deployment artifact planned from it equal those planned from
// Machine.Run's profile, byte for byte.
func TestProfileProgramMatchesRuns(t *testing.T) {
	ctx := context.Background()
	for _, b := range append(Benchmarks(), ExtraBenchmarks()...) {
		b := testScale(b)
		t.Run(b.Name, func(t *testing.T) {
			p, err := b.Program()
			if err != nil {
				t.Fatal(err)
			}
			got, err := ProfileProgram(ctx, p, b.setup)
			if err != nil {
				t.Fatal(err)
			}
			cap, err := captureProgram(ctx, p, b.setup, b.captureSalt())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, cap.Profile) {
				t.Error("profile differs from the capture's")
			}
			mc, err := NewMachine(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.setup(mc.Memory()); err != nil {
				t.Fatal(err)
			}
			res, err := mc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, res.Profile) {
				t.Error("profile differs from Machine.Run's")
			}
			for _, c := range replayTestConfigs {
				if !reflect.DeepEqual(encodeReport(t, p, got, c), encodeReport(t, p, res.Profile, c)) {
					t.Errorf("%v: EncodeProgram report differs", c)
				}
				if !bytes.Equal(deploymentBytes(t, p, got, c), deploymentBytes(t, p, res.Profile, c)) {
					t.Errorf("%v: saved deployment differs", c)
				}
			}
		})
	}
}

func encodeReport(t *testing.T, p *Program, profile []uint64, c Config) *EncodingReport {
	t.Helper()
	rep, err := EncodeProgram(p, profile, c)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return rep
}

func deploymentBytes(t *testing.T, p *Program, profile []uint64, c Config) []byte {
	t.Helper()
	d, err := BuildDeployment(p, profile, c)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestProfileProgramErrors: a program with no text is refused before
// anything runs, and a cancelled context stops the run with an error
// that wraps the context's.
func TestProfileProgramErrors(t *testing.T) {
	for _, p := range []*Program{nil, {}} {
		if _, err := ProfileProgram(context.Background(), p, nil); err == nil || err.Error() != "imtrans: empty program" {
			t.Errorf("%+v: error %v, want imtrans: empty program", p, err)
		}
	}
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = ProfileProgram(ctx, p, nil)
	if !errors.Is(err, ctx.Err()) || !strings.HasPrefix(err.Error(), "imtrans: profiling run: ") {
		t.Errorf("cancelled run: error %v, want imtrans: profiling run: wrapping %v", err, ctx.Err())
	}
}

// branchLoop is a loop of iters iterations whose branch a xorshift
// generator decides, so its taken branches follow no fixed period.
func branchLoop(iters int) string {
	return fmt.Sprintf(`
	li   $t0, %d
	li   $t1, 2463534242
loop:
	sll  $t4, $t1, 13
	xor  $t1, $t1, $t4
	srl  $t4, $t1, 17
	xor  $t1, $t1, $t4
	sll  $t4, $t1, 5
	xor  $t1, $t1, $t4
	andi $t5, $t1, 1
	beqz $t5, even
	addu $t2, $t2, $t1
	b    next
even:
	subu $t3, $t3, $t1
next:
	addiu $t0, $t0, -1
	bgtz $t0, loop
	li $v0, 10
	syscall
`, iters)
}

// TestProfileProgramAllocsFlat pins why ProfileProgram keeps no trace:
// on a loop with a data-dependent branch, whose fetch trace grows with
// every iteration, ten times the iterations cost no extra allocation.
func TestProfileProgramAllocsFlat(t *testing.T) {
	allocs := func(iters int) float64 {
		p, err := Assemble(branchLoop(iters))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := ProfileProgram(context.Background(), p, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(20_000), allocs(200_000); short != long {
		t.Errorf("allocs per run: %v at 20k iterations, %v at 200k", short, long)
	}
}
