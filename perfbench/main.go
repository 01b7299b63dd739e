// Command perfbench drives the mediator's public request path from outside
// and prints end-to-end metrics (or, with --trace 1, per-layer metrics) for
// one workload as a final JSON line. See README.md.
//
//	perfbench --workload union-http --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/serve"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	mediatord string
	spans     string
}

const (
	// warmup is the untimed closed-loop phase before measuring: long
	// enough for translate-zipf's caches to reach the stream's steady state.
	warmup = 2 * time.Second
	// setupBuilds and setupTime set how set-up is sampled on each side of
	// the load: at least setupBuilds fresh builds and setupTime of set-up.
	// A stack that builds in milliseconds gets many samples, so its median
	// does not hinge on whether a few of them met a GC cycle.
	setupBuilds = 5
	setupTime   = 500 * time.Millisecond
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds of measured load per run")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.StringVar(&o.mediatord, "mediatord", filepath.Join(".bench_build", "mediatord"), "mediatord binary (union-http)")
	flag.StringVar(&o.spans, "spans", "", "traced runs write their spans here (default .bench_build/spans/<workload>-<seed>.tsv.gz)")
	flag.Parse()
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.tsv.gz", o.workload, o.seed))
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) add(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) count(p *phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
}

// print lists the metrics by name with their units.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-30s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// The metrics each kind of run reports, as BENCHMARK.json lists them.
var (
	endToEndMetrics = []string{"setup_s", "throughput_rps", "latency_p50_ms", "latency_p99_ms",
		"cpu_ms_per_req", "alloc_bytes_per_req", "heap_live_bytes"}
	perLayerMetrics = []string{"mediatord.overhead_ms", "mediatord.response_bytes", "qparse.parse_us",
		"qtree.canonical_key_us", "serve.cache_hit_ratio", "serve.translate_hit_us", "serve.translate_miss_us",
		"core.plan_hit_ratio", "core.matchcache_hit_ratio", "core.rule_attempts_per_miss",
		"core.product_terms_per_miss", "engine.select_us", "engine.select_critical_us",
		"engine.selected_tuples_per_req", "serve.fanout_wait_us", "serve.query_self_us",
		"serve.answer_yield", "serve.join_yield", "runtime.gc_cpu_share", "runtime.gc_cycles_per_req",
		"trace.unaccounted_us", "trace.overhead_pct"}
)

// run measures one workload.
func run(o options, w io.Writer) (*result, error) {
	clients, ok := workloadClients[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%d clients=%d\n",
		o.workload, o.seed, o.seconds, o.trace, clients)
	res := &result{Correct: true}
	measure, names := endToEnd, endToEndMetrics
	if o.trace == 1 {
		measure, names = perLayer, perLayerMetrics
	}
	if err := measure(o, w, res); err != nil {
		return nil, err
	}
	if len(res.Metrics) != len(names) {
		return nil, fmt.Errorf("reported %d metrics, want %d", len(res.Metrics), len(names))
	}
	for _, n := range names {
		if _, ok := res.Metrics[n]; !ok {
			return nil, fmt.Errorf("metric %s was not reported", n)
		}
	}
	return res, nil
}

// steady is one bench brought to steady state: built, checked and warmed.
type steady struct {
	b     *bench
	setup []float64 // seconds per fresh build
	want  []int
}

// start generates the workload's inputs for clients clients, builds its
// stack (sampling the set-up time when timed), checks every distinct query
// against the oracle, and warms the stack up.
func start(o options, name string, clients int, w io.Writer, exec serve.SourceExecutor, timed bool) (*steady, error) {
	b, err := prepare(name, o.seed, clients, o.mediatord)
	if err != nil {
		return nil, err
	}
	s := &steady{b: b}
	builds, least := 1, time.Duration(0)
	if timed {
		builds, least = setupBuilds, setupTime
	}
	if err := s.sampleBuilds(builds, least, exec); err != nil {
		b.drop()
		return nil, err
	}
	if s.want, err = b.check(); err != nil {
		b.drop()
		return nil, fmt.Errorf("oracle check: %w", err)
	}
	fmt.Fprintf(w, "%s: oracle check passed for %d distinct queries\n", name, len(requested(b.rings)))
	warm, err := runPhase(b.target(), b.meter(), b.rings, s.want, warmup, 0, false)
	if err == nil && warm.failed > 0 {
		err = fmt.Errorf("warm-up: %d of %d requests failed: %v", warm.failed, warm.attempted, warm.firstErr)
	}
	if err != nil {
		b.drop()
		return nil, err
	}
	return s, nil
}

// sampleBuilds times fresh set-ups, each after runtime.GC(), until it has
// at least n samples and least of set-up time. The last stack stays built.
func (s *steady) sampleBuilds(n int, least time.Duration, exec serve.SourceExecutor) error {
	var total time.Duration
	for i := 0; i < n || total < least; i++ {
		s.b.drop()
		runtime.GC()
		d, err := s.b.build(exec)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		total += d
		s.setup = append(s.setup, d.Seconds())
	}
	return nil
}

// measured is measured closed-loop load with the cache counters it moved
// and, against the daemon, the response bytes it received.
type measured struct {
	*phase
	counters      counters
	responseBytes float64
}

func (s *steady) measure(d time.Duration, traced bool) (*measured, error) {
	c0, err := s.b.counters()
	if err != nil {
		return nil, err
	}
	t := s.b.target()
	ht, viaHTTP := t.(*httpTarget)
	var bytes0 float64
	if viaHTTP {
		bytes0 = ht.responseBytes()
	}
	p, err := runPhase(t, s.b.meter(), s.b.rings, s.want, d, 0, traced)
	if err != nil {
		return nil, err
	}
	c1, err := s.b.counters()
	if err != nil {
		return nil, err
	}
	m := &measured{phase: p, counters: c1.minus(c0)}
	if viaHTTP {
		m.responseBytes = ht.responseBytes() - bytes0
	}
	return m, nil
}

// run measures one more slice of length d and adds it to m.
func (m *measured) run(s *steady, d time.Duration, traced bool) error {
	x, err := s.measure(d, traced)
	if err != nil {
		return err
	}
	m.elapsed += x.elapsed
	m.latencies = append(m.latencies, x.latencies...)
	m.attempted += x.attempted
	m.failed += x.failed
	m.answers += x.answers
	if m.firstErr == nil {
		m.firstErr = x.firstErr
	}
	m.traces = append(m.traces, x.traces...)
	m.use = m.use.plus(x.use)
	m.counters = m.counters.plus(x.counters)
	m.responseBytes += x.responseBytes
	return nil
}

// latencyMs returns the phase's nearest-rank percentile latency in ms.
func (m *measured) latencyMs(p float64) (float64, bool) {
	return percentile(ms(m.latencies), p)
}

// describe prints the per-run diagnostics and the workload's defining
// property next to the metrics, and reports whether the property held
// where it is a requirement: on every workload but translate-zipf, each
// timed-phase translation is a cache hit, so the run measures no
// translation work.
func describe(w io.Writer, name string, m *measured) bool {
	u := m.use
	steal := 100 * ratio(float64(u.steal), float64(u.hostTicks))
	fmt.Fprintf(w, "diag: %s GOMAXPROCS=%d gc_cycles=%d host_cpu_steal=%.2f%% elapsed=%.3fs\n",
		runtime.Version(), runtime.GOMAXPROCS(0), u.gcCycles, steal, m.elapsed.Seconds())
	c := m.counters
	held := true
	switch name {
	case translateZipf:
		fmt.Fprintf(w, "property: translation-cache miss share %.4f (%d misses of %.0f lookups)\n",
			ratio(float64(c.misses), c.lookups()), c.misses, c.lookups())
	default:
		held = allHit(c)
		fmt.Fprintf(w, "property: timed-phase cache hit ratio %.6f (must be 1.0; %d hits of %.0f lookups)\n",
			ratio(float64(c.hits), c.lookups()), c.hits, c.lookups())
		if !held {
			fmt.Fprintln(w, "property violated: the timed phase translated queries")
		}
	}
	fmt.Fprintf(w, "property: mean answers per request %.2f\n", ratio(float64(m.answers), float64(m.completed())))
	errRate := ratio(float64(m.failed), float64(m.attempted))
	fmt.Fprintf(w, "requests: %d attempted, %d failed, error_rate %g\n", m.attempted, m.failed, errRate)
	if m.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", m.firstErr)
	}
	return held
}

// allHit tells whether every translation-cache lookup the counters saw hit.
func allHit(c counters) bool { return c.misses == 0 && c.shared == 0 }

// endToEnd is the untraced run: set-up, steady-state load, and the
// end-to-end metrics.
func endToEnd(o options, w io.Writer, res *result) error {
	s, err := start(o, o.workload, workloadClients[o.workload], w, nil, true)
	if err != nil {
		return err
	}
	defer s.b.drop()
	m, err := s.measure(time.Duration(o.seconds*float64(time.Second)), false)
	if err != nil {
		return err
	}
	heap, err := s.b.heapLive()
	if err != nil {
		return err
	}
	res.count(m.phase)
	res.Correct = describe(w, o.workload, m) && m.failed == 0
	n := float64(m.completed())
	if n == 0 {
		return errors.New("no request completed")
	}
	p50, _ := m.latencyMs(50)
	p99, ok := m.latencyMs(99)
	beyond := "at least"
	if !ok {
		beyond = "FEWER than"
	}
	fmt.Fprintf(w, "latency samples: %d (p99 has %s ten samples beyond it)\n", m.completed(), beyond)
	res.add("throughput_rps", n/m.elapsed.Seconds(), "1/s")
	res.add("latency_p50_ms", p50, "ms")
	res.add("latency_p99_ms", p99, "ms")
	res.add("cpu_ms_per_req", ratio(float64(m.use.cpu)/1e6, n), "ms")
	res.add("alloc_bytes_per_req", ratio(float64(m.use.allocs), n), "bytes")
	res.add("heap_live_bytes", float64(heap), "bytes")

	// As many set-ups again after the load, with the load's samples
	// released so the heap is as it was before: the samples then span the
	// run rather than one moment of the host's speed.
	before := len(s.setup)
	m = nil
	if err := s.sampleBuilds(before, 0, nil); err != nil {
		return err
	}
	s.b.drop()
	fmt.Fprintf(w, "setup samples (s), %d before and %d after the load:", before, len(s.setup)-before)
	for _, v := range s.setup {
		fmt.Fprintf(w, " %.6f", v)
	}
	fmt.Fprintln(w)
	res.add("setup_s", median(s.setup), "s")
	res.print(w)
	return nil
}
