package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchCheckRejectsIdleCacheRow pins -bench-check's layer assertion: a
// file whose serve/sharedmatchcache/warm row shows a hit rate below its
// floor fails, because that row then timed some other layer.
func TestBenchCheckRejectsIdleCacheRow(t *testing.T) {
	write := func(hitRate float64) string {
		f := benchFile{Schema: benchSchema, QbenchFlags: registeredFlagNames()}
		for _, name := range benchNames() {
			e := benchEntry{Name: name, NsPerOp: 1}
			if name == warmCacheRow {
				e.HitRatePct = hitRate
			}
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
