package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n         int
		p         float64
		want      float64
		supported bool
	}{
		{1, 50, 1, false},
		{3, 50, 2, false},
		{4, 50, 2, false},    // rank ceil(2) = 2
		{100, 99, 99, false}, // one sample beyond
		{1000, 99, 990, true},
		{1009, 99, 999, true}, // rank ceil(998.91) = 999, ten beyond
		{1008, 99, 998, true},
		{999, 99, 990, false}, // rank ceil(989.01) = 990, nine beyond
		{20, 50, 10, true},
		{19, 50, 10, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.supported {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.supported)
		}
	}
	if v, ok := percentile(nil, 50); !math.IsNaN(v) || ok {
		t.Errorf("percentile of no samples = %g, %v; want NaN, false", v, ok)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{start: 0, end: 100}
	cases := []struct {
		name string
		kids []span
		want int64
	}{
		{"none", nil, 100},
		{"disjoint", []span{{start: 10, end: 20}, {start: 30, end: 50}}, 70},
		{"overlapping", []span{{start: 10, end: 40}, {start: 20, end: 60}}, 50},
		{"nested", []span{{start: 10, end: 80}, {start: 20, end: 30}}, 30},
		{"touching", []span{{start: 10, end: 20}, {start: 20, end: 30}}, 80},
		{"past the parent", []span{{start: 90, end: 120}, {start: -5, end: 5}}, 85},
		{"identical", []span{{start: 40, end: 60}, {start: 40, end: 60}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestSummarizeUnionRequest checks the per-layer figures of one traced
// union request whose two selects overlap.
func TestSummarizeUnionRequest(t *testing.T) {
	c := &clientTrace{spans: []span{
		{kind: spanRequest, parent: -1, start: 0, end: 1000, tuples: 5},
		{kind: spanParse, parent: 0, start: 10, end: 50},
		{kind: spanKey, probe: true, parent: 0, start: 50, end: 60},
		{kind: spanTranslate, probe: true, parent: 0, hit: 1, start: 60, end: 80},
		{kind: spanQuery, parent: 0, start: 100, end: 900},
		{kind: spanSelect, parent: 4, start: 150, end: 500, tuples: 10},
		{kind: spanSelect, parent: 4, start: 200, end: 700, tuples: 30},
	}}
	l := summarize([]*clientTrace{c})
	us := func(ns float64) []float64 { return []float64{ns / 1e3} }
	checks := []struct {
		name      string
		got, want []float64
	}{
		{"latency", l.latency, us(1000)},
		{"parse", l.parse, us(40)},
		{"key", l.key, us(10)},
		{"hit", l.hit, us(20)},
		{"query self", l.querySelf, us(800 - 550)},
		{"select sum", l.selectSum, us(350 + 500)},
		{"select critical", l.selectCrit, us(500)},
		{"fan-out wait", l.fanoutWait, []float64{0.05, 0.1}},
		{"accounted (probes excluded)", l.accounted, us(40 + 800)},
	}
	for _, c := range checks {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if l.selected != 40 || l.answers != 5 || l.joinWork != 300 || len(l.miss) != 0 {
		t.Errorf("selected %g answers %g join work %g misses %v; want 40 5 300 []", l.selected, l.answers, l.joinWork, l.miss)
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range []string{unionBooks, joinLibrary, translateZipf} {
		a, err := prepare(name, 7, 2, "")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := prepare(name, 7, 2, "")
		if !reflect.DeepEqual(a.pool, b.pool) || !reflect.DeepEqual(a.rings, b.rings) {
			t.Errorf("%s: seed 7 gave two different request sequences", name)
		}
		c, _ := prepare(name, 8, 2, "")
		if reflect.DeepEqual(a.rings, c.rings) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
		if reflect.DeepEqual(a.rings[0], a.rings[1]) {
			t.Errorf("%s: both clients send the same sequence", name)
		}
	}
}

// TestEpochsSendEveryQueryEquallyOften checks the uniform workloads' mix:
// any prefix of a client's sequence sends each query equally often, give
// or take one.
func TestEpochsSendEveryQueryEquallyOften(t *testing.T) {
	b, err := prepare(unionBooks, 3, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(b.pool))
	for i, r := range b.rings[0] {
		counts[r.id]++
		lo, hi := counts[0], counts[0]
		for _, n := range counts {
			lo, hi = min(lo, n), max(hi, n)
		}
		if hi-lo > 1 {
			t.Fatalf("after %d requests the counts range over [%d, %d]", i+1, lo, hi)
		}
	}
}

// TestOneClientRepeatsCacheCounters runs translate-zipf twice with one
// client for a fixed number of requests: the same seed must leave the
// same translation-cache counters. core.Plan and core.MatchCache pick a
// shard by hashing with a seed drawn per instance (maphash.MakeSeed), so
// which entry a full shard evicts, and with it their counters, varies a
// little between instances: the test logs those.
func TestOneClientRepeatsCacheCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and checks translate-zipf twice")
	}
	runOnce := func() counters {
		b, err := prepare(translateZipf, 11, 1, "")
		if err != nil {
			t.Fatal(err)
		}
		defer b.drop()
		if _, err := b.build(nil); err != nil {
			t.Fatal(err)
		}
		want, err := b.check()
		if err != nil {
			t.Fatal(err)
		}
		p, err := runPhase(b.target(), b.meter(), b.rings, want, 0, 3000, false)
		if err != nil {
			t.Fatal(err)
		}
		if p.failed != 0 || p.completed() != 3000 {
			t.Fatalf("%d of %d requests failed: %v", p.failed, p.attempted, p.firstErr)
		}
		c, err := b.counters()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	first, second := runOnce(), runOnce()
	if first.hits != second.hits || first.misses != second.misses || first.shared != second.shared {
		t.Errorf("translation-cache counters differ between runs of one seed:\n%+v\n%+v", first, second)
	}
	t.Logf("plan and matchings-cache counters:\n%+v\n%+v", first, second)
	if first.misses == 0 || first.hits == 0 {
		t.Errorf("counters %+v: want both hits and misses", first)
	}
}

func TestBySizeQuantileIsAPermutation(t *testing.T) {
	b, err := prepare(translateZipf, 5, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(b.pool))
	for _, s := range b.pool {
		seen[s] = true
	}
	if len(seen) != zipfPool {
		t.Errorf("%d distinct pool texts, want %d", len(seen), zipfPool)
	}
}

// TestHitRequirement checks that a translation-cache miss in the timed
// phase fails a workload that must only hit, and not translate-zipf.
func TestHitRequirement(t *testing.T) {
	m := &measured{phase: &phase{}, counters: counters{hits: 9, misses: 1}}
	for _, c := range []struct {
		name string
		want bool
	}{{unionBooks, false}, {joinLibrary, false}, {unionHTTP, false}, {translateZipf, true}} {
		if got := describe(io.Discard, c.name, m); got != c.want {
			t.Errorf("%s with one miss: held = %v, want %v", c.name, got, c.want)
		}
	}
	m.counters = counters{hits: 10}
	if !describe(io.Discard, unionBooks, m) {
		t.Error("union-books with only hits: property not held")
	}
}

// TestTracedUnionPhase runs traced union-books requests from two clients:
// every request records its parse, probe and query spans, and both
// sources' selects under its query span.
func TestTracedUnionPhase(t *testing.T) {
	b, err := prepare(unionBooks, 2, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.drop()
	if _, err := b.build(tracingExecutor); err != nil {
		t.Fatal(err)
	}
	want, err := b.check()
	if err != nil {
		t.Fatal(err)
	}
	p, err := runPhase(b.target(), b.meter(), b.rings, want, 0, 15, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 {
		t.Fatalf("%d requests failed: %v", p.failed, p.firstErr)
	}
	l := summarize(p.traces)
	if l.requests != 30 || len(l.parse) != 30 || len(l.key) != 30 || len(l.querySelf) != 30 || len(l.fanoutWait) != 60 {
		t.Errorf("requests %d, parse %d, key %d, query %d, selects %d; want 30 30 30 30 60",
			l.requests, len(l.parse), len(l.key), len(l.querySelf), len(l.fanoutWait))
	}
	for i, c := range p.traces {
		for _, s := range c.spans {
			if s.kind == spanSelect && (s.parent < 0 || s.start < 0 || s.end < s.start) {
				t.Fatalf("client %d: malformed select span %+v", i, s)
			}
		}
	}
	if l.answers != float64(p.answers) {
		t.Errorf("traced answers %g, phase answers %d", l.answers, p.answers)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the runs check
// their output against equal to BENCHMARK.json's, and the client count
// each workload's entry records equal to the one it runs.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, perfbench reports %v", got, endToEndMetrics)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, perfbench reports %v", got, perLayerMetrics)
	}
	var workloads []string
	for _, wl := range spec.Workloads {
		workloads = append(workloads, wl.Name)
		n := workloadClients[wl.Name]
		unit := " clients"
		if n == 1 {
			unit = " client"
		}
		if !strings.Contains(wl.Why, ", "+strconv.Itoa(n)+unit+":") {
			t.Errorf("BENCHMARK.json %s: why %q does not record its %d%s", wl.Name, wl.Why, n, unit)
		}
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", workloads, workloadNames)
	}
}
