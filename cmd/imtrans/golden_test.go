package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestVerbGoldens runs plan, encode, rtl -tb and inject in process on
// two committed sources and compares what each writes, byte for byte,
// with testdata/golden. fir.s is the dsp-fir example's filter; branchy.s
// takes a data-dependent branch on every iteration. The goldens were
// written by an earlier build of this command, from this directory:
//
//	imtrans plan testdata/<src>.s > testdata/golden/plan_<src>.txt
//	imtrans encode -o testdata/golden/encode_<src>.imtd testdata/<src>.s
//	imtrans rtl -vectors 250 -o testdata/golden/rtl_<src>.v \
//	    -tb testdata/golden/rtl_<src>_tb.v testdata/<src>.s
//	imtrans inject -faults 4 testdata/fir.s > testdata/golden/inject_fir.txt
//
// A change that alters a printed plan or an artifact fails here.
func TestVerbGoldens(t *testing.T) {
	dir := t.TempDir()
	for _, src := range []string{"fir", "branchy"} {
		path := filepath.Join("testdata", src+".s")
		t.Run(src, func(t *testing.T) {
			checkGolden(t, "plan_"+src+".txt", stdoutOf(t, "plan", path))

			art := filepath.Join(dir, src+".imtd")
			stdoutOf(t, "encode", "-o", art, path)
			checkGolden(t, "encode_"+src+".imtd", readFile(t, art))

			v, tb := filepath.Join(dir, src+".v"), filepath.Join(dir, src+"_tb.v")
			stdoutOf(t, "rtl", "-vectors", "250", "-o", v, "-tb", tb, path)
			checkGolden(t, "rtl_"+src+".v", readFile(t, v))
			checkGolden(t, "rtl_"+src+"_tb.v", readFile(t, tb))
		})
	}
	checkGolden(t, "inject_fir.txt", stdoutOf(t, "inject", "-faults", "4", filepath.Join("testdata", "fir.s")))
}

// stdoutOf runs one command in process and returns what it printed.
func stdoutOf(t *testing.T, cmd string, args ...string) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = run(cmd, args)
	os.Stdout = saved
	if err != nil {
		t.Fatalf("%s %v: %v", cmd, args, err)
	}
	return readFile(t, f.Name())
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want := readFile(t, filepath.Join("testdata", "golden", name))
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from its golden (%d bytes, want %d):\n%s", name, len(got), len(want), got)
	}
}
