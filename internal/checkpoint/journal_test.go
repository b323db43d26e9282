package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// journalGrid is a 3x3 grid, room for the 5-cell journals below.
func journalGrid() (string, []string, []string) {
	return "cafef00dcafef00d", []string{"mmul", "sor", "fft"}, []string{"k=4 TT=16", "k=5 TT=16", "k=6 TT=16"}
}

// writeJournal journals n cells of journalGrid, row-major, and returns
// the journal's path and bytes.
func writeJournal(t *testing.T, n int) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	grid, bs, cs := journalGrid()
	j, _, err := Open(path, grid, bs, cs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := j.Record(i/len(cs), i%len(cs), cellPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func cellPayload(i int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"Encoded":%d,"Percent":%d.5}`, 1000+i, 60+i))
}

// TestJournalTornTail cuts a 5-cell journal at every byte offset. A cut
// inside the header is an error for Load and Open; any later cut yields
// exactly the cells whose lines are complete, Open trims the file back to
// its last newline, and recording the grid again completes the journal.
func TestJournalTornTail(t *testing.T) {
	const n = 5
	_, data := writeJournal(t, n)
	grid, bs, cs := journalGrid()
	head := bytes.IndexByte(data, '\n') + 1
	path := filepath.Join(t.TempDir(), "cut.jsonl")
	for off := 0; off < len(data); off++ {
		cut := data[:off]
		if err := os.WriteFile(path, cut, 0o644); err != nil {
			t.Fatal(err)
		}
		if off < head {
			if _, err := Load(path); err == nil {
				t.Fatalf("cut at %d inside the %d-byte header: Load accepted it", off, head)
			}
			if _, _, err := Open(path, grid, bs, cs); err == nil {
				t.Fatalf("cut at %d inside the %d-byte header: Open accepted it", off, head)
			}
			continue
		}
		complete := bytes.Count(cut, []byte{'\n'}) - 1
		f, err := Load(path)
		if err != nil {
			t.Fatalf("cut at %d: Load: %v", off, err)
		}
		if len(f.Cells) != complete {
			t.Fatalf("cut at %d: Load returned %d cells, want %d", off, len(f.Cells), complete)
		}
		j, cells, err := Open(path, grid, bs, cs)
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", off, err)
		}
		if len(cells) != complete {
			t.Fatalf("cut at %d: Open returned %d cells, want %d", off, len(cells), complete)
		}
		for i, c := range cells {
			if c.Bench != i/len(cs) || c.Config != i%len(cs) || string(c.Payload) != string(cellPayload(i)) {
				t.Fatalf("cut at %d: cell %d = %+v", off, i, c)
			}
		}
		trimmed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := data[:bytes.LastIndexByte(cut, '\n')+1]; !bytes.Equal(trimmed, want) {
			t.Fatalf("cut at %d: Open left %d bytes, want the %d through the last newline", off, len(trimmed), len(want))
		}
		for i := 0; i < n; i++ {
			if err := j.Record(i/len(cs), i%len(cs), cellPayload(i)); err != nil {
				t.Fatalf("cut at %d: Record %d: %v", off, i, err)
			}
		}
		f, err = Load(path)
		if err != nil {
			t.Fatalf("cut at %d: Load after recording again: %v", off, err)
		}
		if len(f.Cells) != n {
			t.Fatalf("cut at %d: recorded journal holds %d cells, want %d", off, len(f.Cells), n)
		}
	}
}

// TestJournalChainDetectsSplice deletes, duplicates and swaps complete
// middle lines: each line is individually well formed, so only the
// chained checksum can tell.
func TestJournalChainDetectsSplice(t *testing.T) {
	path, data := writeJournal(t, 5)
	lines := bytes.SplitAfter(data, []byte{'\n'})
	lines = lines[:len(lines)-1] // the empty remainder after the last newline
	splice := func(idx ...int) []byte {
		var out []byte
		for _, i := range idx {
			out = append(out, lines[i]...)
		}
		return out
	}
	for name, img := range map[string][]byte{
		"delete":    splice(0, 1, 2, 4, 5),
		"duplicate": splice(0, 1, 2, 3, 3, 4, 5),
		"swap":      splice(0, 1, 3, 2, 4, 5),
	} {
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("%s: Load err = %v, want a checksum error", name, err)
		}
	}
}

// TestLoadRefusesVersion1 feeds a whole-document version-1 journal, in
// the indented form the old writer produced, to Load and Open.
func TestLoadRefusesVersion1(t *testing.T) {
	grid, bs, cs := testGrid()
	old, err := json.MarshalIndent(map[string]any{
		"magic": Magic, "version": 1, "grid": grid, "benchmarks": bs, "configs": cs,
		"cells": []Cell{{Bench: 0, Config: 0, Payload: json.RawMessage(`{"v":1}`)}},
		"crc32": 12345,
	}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.json")
	if err := os.WriteFile(path, append(old, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("Load err = %v, want one naming version 1", err)
	}
	if _, _, err := Open(path, grid, bs, cs); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("Open err = %v, want one naming version 1", err)
	}
}

// TestRecordCutsUncutAppend fails an append after its whole line landed
// and makes the cut-back fail too, by swapping a directory in at the
// journal's path for the moment. The next Record must cut the stale line
// before appending a shorter one, or its tail would corrupt the journal.
func TestRecordCutsUncutAppend(t *testing.T) {
	path, _ := writeJournal(t, 1)
	grid, bs, cs := journalGrid()
	j, _, err := Open(path, grid, bs, cs)
	if err != nil {
		t.Fatal(err)
	}
	aside := path + ".aside"
	prev := SetWriteFault(func(p string, data []byte) (int, error) {
		if err := os.Rename(p, aside); err != nil {
			return 0, err
		}
		if err := os.Mkdir(p, 0o755); err != nil {
			return 0, err
		}
		return len(data), errors.New("injected I/O error")
	})
	defer SetWriteFault(prev)
	long := json.RawMessage(`{"Encoded":123456789,"Percent":99.25,"Note":"a payload longer than the retry's"}`)
	var werr *WriteError
	if err := j.Record(0, 1, long); !errors.As(err, &werr) {
		t.Fatalf("faulted Record returned %v, want *WriteError", err)
	}
	SetWriteFault(prev)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(aside, path); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(1, 0, cellPayload(1)); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatalf("journal after the uncut append: %v", err)
	}
	if len(f.Cells) != 2 || f.Cells[1].Bench != 1 || f.Cells[1].Config != 0 {
		t.Fatalf("journal cells = %+v, want (0,0) and (1,0)", f.Cells)
	}
}

// TestRecordWritesOneLine observes every journal write through the
// fault hook: the 200th Record hands the writer exactly that cell's line
// — the journal's new last line — and no more bytes than the 2nd did, so
// a return to whole-file rewrites fails here.
func TestRecordWritesOneLine(t *testing.T) {
	const side = 15
	names := make([]string, side)
	for i := range names {
		names[i] = strconv.Itoa(i)
	}
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	j, _, err := Open(path, "onelinegrid", names, names)
	if err != nil {
		t.Fatal(err)
	}
	var writes [][]byte
	prev := SetWriteFault(func(p string, data []byte) (int, error) {
		writes = append(writes, append([]byte(nil), data...))
		return 0, nil
	})
	defer SetWriteFault(prev)
	payload := json.RawMessage(`{"Encoded":123456,"Percent":61.5}`)
	for i := 0; i < 200; i++ {
		if err := j.Record(i/side, i%side, payload); err != nil {
			t.Fatal(err)
		}
		if len(writes) != i+1 {
			t.Fatalf("Record %d made %d writes in all, want %d", i+1, len(writes), i+1)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastLine := data[bytes.LastIndexByte(data[:len(data)-1], '\n')+1:]
	second, last := writes[1], writes[199]
	if !bytes.Equal(last, lastLine) {
		t.Fatalf("200th Record wrote %d bytes, want exactly its %d-byte line %q", len(last), len(lastLine), lastLine)
	}
	// The lines differ only in the digits of their indices and CRCs.
	if d := len(last) - len(second); d < -12 || d > 12 {
		t.Fatalf("200th Record wrote %d bytes, 2nd wrote %d: a write must hold one line", len(last), len(second))
	}
}

// BenchmarkJournalRecord times one Record on a fresh journal and on one
// already holding 1000 cells: an append costs the same at any length.
func BenchmarkJournalRecord(b *testing.B) {
	payload := json.RawMessage(`{"Baseline":1234567,"Encoded":456789,"Percent":63.01,"Blocks":42,"TTEntries":16,"BBITEntries":16}`)
	for _, pre := range []int{0, 1000} {
		b.Run(fmt.Sprintf("cells=%d", pre), func(b *testing.B) {
			b.ReportAllocs()
			side := int(math.Sqrt(float64(pre+b.N))) + 1
			names := make([]string, side)
			for i := range names {
				names[i] = strconv.Itoa(i)
			}
			j, _, err := Open(filepath.Join(b.TempDir(), "ck.jsonl"), "benchgrid", names, names)
			if err != nil {
				b.Fatal(err)
			}
			record := func(i int) {
				if err := j.Record(i/side, i%side, payload); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < pre; i++ {
				record(i)
			}
			b.ResetTimer()
			for i := pre; i < pre+b.N; i++ {
				record(i)
			}
		})
	}
}
