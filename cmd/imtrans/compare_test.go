package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompareInjectIsolatesAndRetries drives the compare subcommand end
// to end with a fault campaign: a permanent injected fault must surface
// as a command error with the poisoned cell kept out of the JSON grid,
// and a single-attempt transient fault must be retried away under
// -retries, leaving a complete grid.
func TestCompareInjectIsolatesAndRetries(t *testing.T) {
	dir := t.TempDir()

	t.Run("permanent", func(t *testing.T) {
		path := filepath.Join(dir, "poisoned.json")
		err := cmdCompare([]string{
			"-schemes", "businvert,dictionary", "-n", "24", "-retries", "2",
			"-inject", "error@0,0", "-json", "-o", path, "mmul", "sor",
		})
		if err == nil {
			t.Fatal("permanent fault did not surface as a command error")
		}
		if !strings.Contains(err.Error(), "injected") {
			t.Fatalf("unexpected error: %v", err)
		}
		var rep compareReport
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if rerr := json.Unmarshal(data, &rep); rerr != nil {
			t.Fatal(rerr)
		}
		if len(rep.Errors) != 1 {
			t.Fatalf("report has %d errors, want 1: %v", len(rep.Errors), rep.Errors)
		}
		// 2 benchmarks x 2 schemes minus the poisoned cell.
		if len(rep.Grid) != 3 {
			t.Fatalf("report grid has %d cells, want 3", len(rep.Grid))
		}
		for _, c := range rep.Grid {
			if c.WallNs <= 0 {
				t.Errorf("cell (%s, %s) has no wall time", c.Bench, c.Scheme)
			}
		}
	})

	t.Run("transient", func(t *testing.T) {
		path := filepath.Join(dir, "retried.json")
		err := cmdCompare([]string{
			"-schemes", "businvert,dictionary", "-n", "24", "-retries", "3",
			"-inject", "error@0,1;attempts=1", "-json", "-o", path, "mmul", "sor",
		})
		if err != nil {
			t.Fatalf("transient fault was not retried away: %v", err)
		}
		var rep compareReport
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if rerr := json.Unmarshal(data, &rep); rerr != nil {
			t.Fatal(rerr)
		}
		if len(rep.Errors) != 0 || len(rep.Grid) != 4 {
			t.Fatalf("retried grid incomplete: %d errors, %d cells", len(rep.Errors), len(rep.Grid))
		}
		if rep.Counters.Get("compare_retries") == 0 {
			t.Error("compare_retries counter is zero in the report")
		}
	})
}
