package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBenchFile writes a bench file with every suite row at 1 ns/op, each
// row passed through edit first, and returns its path.
func writeBenchFile(t *testing.T, edit func(*benchEntry)) string {
	t.Helper()
	f := benchFile{Schema: benchSchema, QbenchFlags: registeredFlagNames()}
	for _, name := range benchNames() {
		e := benchEntry{Name: name, NsPerOp: 1}
		edit(&e)
		f.Benchmarks = append(f.Benchmarks, e)
	}
	js, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, js, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// passingRow gives the gated rows the values that show their layer ran.
func passingRow(e *benchEntry) {
	switch {
	case e.Name == warmCacheRow:
		e.HitRatePct = 97.5
	case strings.HasPrefix(e.Name, compiledRows):
		e.CompiledPct = 100
	case strings.HasPrefix(e.Name, fullScanRows):
		e.ScannedTuples = 4000
	case strings.HasPrefix(e.Name, indexedRows):
		e.ScannedTuples = 20
	}
}

// TestBenchCheckRejectsIdleCacheRow pins -bench-check's layer assertion: a
// file whose serve/sharedmatchcache/warm row shows a hit rate below its
// floor fails, because that row then timed some other layer.
func TestBenchCheckRejectsIdleCacheRow(t *testing.T) {
	write := func(hitRate float64) string {
		return writeBenchFile(t, func(e *benchEntry) {
			passingRow(e)
			if e.Name == warmCacheRow {
				e.HitRatePct = hitRate
			}
		})
	}
	if err := checkBenchJSON(write(97.5)); err != nil {
		t.Errorf("warm row at 97.5%%: %v, want nil", err)
	}
	for _, rate := range []float64{0, 89.9} {
		err := checkBenchJSON(write(rate))
		if err == nil || !strings.Contains(err.Error(), warmCacheRow) {
			t.Errorf("warm row at %.1f%%: err = %v, want a hit-rate failure naming the row", rate, err)
		}
	}
}

// TestBenchCheckRejectsUncompiledScanRow: a scan/compiled row whose
// operations the column snapshot did not all answer fails -bench-check,
// because it then timed the tuple path.
func TestBenchCheckRejectsUncompiledScanRow(t *testing.T) {
	if err := checkBenchJSON(writeBenchFile(t, passingRow)); err != nil {
		t.Fatalf("every scan/compiled row at 100%%: %v, want nil", err)
	}
	for _, v := range []string{"eq", "range", "contains"} {
		row := compiledRows + v
		for _, pct := range []float64{0, 99.9} {
			err := checkBenchJSON(writeBenchFile(t, func(e *benchEntry) {
				passingRow(e)
				if e.Name == row {
					e.CompiledPct = pct
				}
			}))
			if err == nil || !strings.Contains(err.Error(), row) {
				t.Errorf("%s at %.1f%%: err = %v, want a failure naming the row", row, pct, err)
			}
		}
	}
}

// TestBenchCheckRejectsUnprobedIndexedRow: a scan/indexed row that evaluates
// no fewer tuples than the scan/full row of its kind fails -bench-check,
// because its index probes then did not run.
func TestBenchCheckRejectsUnprobedIndexedRow(t *testing.T) {
	for _, v := range []string{"eq", "range", "contains"} {
		row := "scan/indexed/" + v
		for _, scanned := range []float64{4000, 4001} {
			err := checkBenchJSON(writeBenchFile(t, func(e *benchEntry) {
				passingRow(e)
				switch e.Name {
				case "scan/full/" + v:
					e.ScannedTuples = 4000
				case row:
					e.ScannedTuples = scanned
				}
			}))
			if err == nil || !strings.Contains(err.Error(), row) {
				t.Errorf("%s scanning %.0f of 4000 tuples: err = %v, want a failure naming the row", row, scanned, err)
			}
		}
	}
}
