// Command qbench regenerates the reproduction's experiment tables — one per
// figure, worked example, or analytic claim in the paper (see DESIGN.md's
// experiment index and EXPERIMENTS.md for the recorded results).
//
// Usage:
//
//	qbench             # run every experiment
//	qbench -exp E10    # run one experiment
//	qbench -list       # list experiments
//	qbench -serve -clients 16 -requests 20000
//	                   # drive the concurrent serving layer (internal/serve)
//	                   # over the synthetic workload; reports throughput,
//	                   # cache hit rate, and per-source latency histograms.
//	                   # -batch N submits requests through TranslateBatch in
//	                   # chunks of N; -matchcache N sizes the shared
//	                   # matchings cache (negative disables it)
//	qbench -serve -rps 500 -slo 20ms -hedge -taildelay 10ms
//	                   # drill mode: open-loop load paced at a fixed RPS with
//	                   # p50/p95/p99 latency reporting; exits 1 when p99
//	                   # exceeds -slo. -breaker/-hedge/-retries/-admission
//	                   # enable the resilience layer and -taildelay/-tailprob
//	                   # inject a benign latency tail to drill against
//	qbench -bench-json BENCH_matching.json
//	                   # re-measure the matching-engine benchmarks and rewrite
//	                   # the perf trajectory file; -bench-check verifies its
//	                   # shape against the binary without re-measuring
//	qbench -bench-check NEW.json -bench-against BENCH_matching.json
//	                   # trend mode: additionally compare ns/op name-by-name
//	                   # and fail on slowdowns beyond -bench-threshold
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type experiment struct {
	id    string
	title string
	run   func()
}

var experiments = []experiment{
	{"E1", "Examples 1-2: dependency-aware bookstore translation and relaxation", runE1},
	{"E2", "Figure 2: simple-conjunction mappings for Amazon", runE2},
	{"E3", "Example 3: multi-view multi-source mapping with filter", runE3},
	{"E4", "Example 6 / Figure 7: TDQM vs DNF on Q_book", runE4},
	{"E5", "Examples 10-11: EDNF annotations and safety of Q_book", runE5},
	{"E6", "Example 8 / Figure 9: redundant cross-matchings at the map source", runE6},
	{"E7", "Examples 13-14 / Figure 12: PSafe partitions", runE7},
	{"E8", "Section 4.4: SCM runtime linear in N and R", runE8},
	{"E9", "Section 8: TDQM vs DNF cost without dependencies", runE9},
	{"E10", "Section 8: compactness — TDQM vs DNF output size", runE10},
	{"E11", "Section 8: safety-check cost vs dependency degree e", runE11},
	{"E12", "Definition 1 / Eq. 3: empirical subsumption and filtering", runE12},
	{"E13", "Ablations: suppression, PSafe partitioning, EDNF", runE13},
	{"E14", "Extension: filtering work saved by per-branch filters", runE14},
	{"E15", "Section 3 comparisons: dependency-blind and non-relaxing baselines", runE15},
}

// options holds every qbench flag; registerFlags declares them all on one
// FlagSet so tests can enumerate the registered flags.
type options struct {
	exp  string
	list bool

	serveMode serveOptions
	serve     bool

	benchJSON      string
	benchCheck     string
	benchAgainst   string
	benchThreshold float64
	benchRuns      int
}

// registerFlags declares qbench's flags on fs and returns the bound options.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.exp, "exp", "", "experiment id to run (default: all)")
	fs.BoolVar(&o.list, "list", false, "list experiments and exit")

	fs.BoolVar(&o.serve, "serve", false, "run the concurrent serve workload instead of experiments")
	fs.IntVar(&o.serveMode.clients, "clients", 8, "serve mode: concurrent client goroutines")
	fs.IntVar(&o.serveMode.requests, "requests", 10000, "serve mode: total requests")
	fs.IntVar(&o.serveMode.distinct, "distinct", 64, "serve mode: distinct queries in rotation")
	fs.IntVar(&o.serveMode.cache, "cache", 256, "serve mode: translation cache capacity")
	fs.IntVar(&o.serveMode.tuples, "tuples", 500, "serve mode: universe tuples per source shard")
	fs.BoolVar(&o.serveMode.metrics, "metrics", false, "serve mode: print the Prometheus metrics exposition after the run")
	fs.IntVar(&o.serveMode.par, "par", 0, "serve mode: per-translation worker pool size (0 = sequential)")
	fs.IntVar(&o.serveMode.batch, "batch", 0, "serve mode: translate in batches of this size instead of executing queries (0 = off)")
	fs.IntVar(&o.serveMode.matchcache, "matchcache", 0, "serve mode: shared matchings-cache capacity (0 = default, negative disables)")
	fs.BoolVar(&o.serveMode.stream, "stream", false, "serve mode: answer queries on the streaming per-shard pipeline")
	fs.IntVar(&o.serveMode.shards, "shards", 4, "serve mode: shards per source on the streaming path")
	fs.BoolVar(&o.serveMode.index, "index", false, "serve mode: answer via cost-based access paths (selectivity-ranked index probes)")
	fs.IntVar(&o.serveMode.rps, "rps", 0, "serve mode: drill — pace requests at this fixed rate and report p50/p95/p99 latency (0 = closed loop)")
	fs.DurationVar(&o.serveMode.slo, "slo", 0, "drill mode: fail (exit 1) when p99 latency exceeds this (0 = report only)")
	fs.BoolVar(&o.serveMode.breaker, "breaker", false, "serve mode: per-source circuit breakers (tripped sources fail fast with a typed error)")
	fs.BoolVar(&o.serveMode.hedge, "hedge", false, "serve mode: hedge straggling source executions after the latency-quantile delay")
	fs.IntVar(&o.serveMode.retries, "retries", 0, "serve mode: total executions allowed per source request on transient faults (<= 1 disables)")
	fs.BoolVar(&o.serveMode.admit, "admission", false, "serve mode: TinyLFU admission in front of the translation and matchings caches")
	fs.DurationVar(&o.serveMode.taildel, "taildelay", 0, "serve mode: inject a benign per-source delay up to this bound with probability -tailprob (0 = off)")
	fs.Float64Var(&o.serveMode.tailprob, "tailprob", 0.05, "serve mode: probability of the injected -taildelay per source execution")

	fs.StringVar(&o.benchJSON, "bench-json", "", "run the matching benchmark suite and write results to this file")
	fs.StringVar(&o.benchCheck, "bench-check", "", "verify a -bench-json file's flag and benchmark sets match this binary")
	fs.StringVar(&o.benchAgainst, "bench-against", "", "bench-check trend mode: compare the -bench-check file's timings against this baseline file")
	fs.Float64Var(&o.benchThreshold, "bench-threshold", 0.5, "bench-check trend mode: allowed fractional slowdown per benchmark (0.5 = 1.5x)")
	fs.IntVar(&o.benchRuns, "bench-runs", 3, "bench-json mode: measurement repetitions per benchmark; the median is recorded")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "Usage of qbench:")
		fs.PrintDefaults()
	}
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()

	if o.benchCheck != "" {
		if err := checkBenchJSON(o.benchCheck); err != nil {
			fmt.Fprintf(os.Stderr, "qbench: %v\n", err)
			os.Exit(1)
		}
		if o.benchAgainst != "" {
			if err := compareBenchJSON(o.benchCheck, o.benchAgainst, o.benchThreshold); err != nil {
				fmt.Fprintf(os.Stderr, "qbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("%s is up to date; no regressions beyond %.0f%% vs %s\n",
				o.benchCheck, 100*o.benchThreshold, o.benchAgainst)
			return
		}
		fmt.Printf("%s is up to date\n", o.benchCheck)
		return
	}
	if o.benchJSON != "" {
		if err := writeBenchJSON(o.benchJSON, o.benchRuns); err != nil {
			fmt.Fprintf(os.Stderr, "qbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", o.benchJSON)
		return
	}
	if o.serve {
		if err := runServe(o.serveMode); err != nil {
			fmt.Fprintf(os.Stderr, "qbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if o.list {
		for _, e := range experiments {
			fmt.Printf("%-5s %s\n", e.id, e.title)
		}
		return
	}
	ran := false
	for _, e := range experiments {
		if o.exp != "" && !strings.EqualFold(o.exp, e.id) {
			continue
		}
		ran = true
		fmt.Printf("=== %s: %s ===\n\n", e.id, e.title)
		e.run()
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "qbench: unknown experiment %q (use -list)\n", o.exp)
		os.Exit(1)
	}
}

// table prints an aligned text table.
func table(header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	line(header)
	seps := make([]string, len(header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
