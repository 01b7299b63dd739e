// Command mediatord serves the bookstore mediator of Examples 1–2 over
// HTTP: it accepts constraint queries in the mediator vocabulary,
// translates them for each integrated source (Amazon and Clbooks),
// executes them against an in-memory catalog, filters false positives, and
// returns JSON.
//
// Requests flow through internal/serve: translations are memoized in a
// canonical LRU cache (permuted-but-equivalent queries share one entry,
// concurrent identical misses compute once), rule-matching results are
// shared across distinct queries through a bounded matchings cache
// (-matchcache), per-source execution fans out in parallel under a bounded
// worker pool with a per-source timeout, and atomic counters — including
// match-cache hits, misses, and evictions — are exported at /stats.
// By default each source's selection runs on a column snapshot of its data,
// and union branches merge by a rank table built once (see docs/serving.md).
// With -index, every source selection answers via cost-based access paths —
// selectivity-ranked hash/range/prefix/token index probes with scan
// fallback, byte-identical answers — and qmap_index_* metrics appear at
// /metrics (see docs/performance.md §6).
// With -breaker / -hedge / -retries, per-source fault absorption
// (internal/resilience) guards the fan-out: circuit breakers fail a tripped
// source's requests fast with a typed error, hedged requests duplicate
// stragglers after the source's latency-quantile delay, and transient
// faults are retried with jittered backoff; qmap_breaker_*, qmap_hedge_*,
// and qmap_retry_* metrics appear at /metrics (see docs/resilience.md).
// -admission puts a TinyLFU frequency sketch in front of the translation
// and matchings caches so scan traffic cannot wash out the hot set.
// SIGINT/SIGTERM trigger a graceful shutdown that drains in-flight queries.
//
// Endpoints:
//
//	GET /translate?q=<query>      per-source translations and the filter
//	GET /query?q=<query>          mediated answers from the catalog
//	GET /trace?q=<query>          span tree of a fresh (uncached) translation
//	GET /sources                  the integrated sources and their rules
//	GET /stats                    serving-layer counters (cache, latency)
//	GET /metrics                  Prometheus text exposition of all counters
//	GET /debug/pprof/             runtime profiling (net/http/pprof)
//	GET /healthz                  liveness
//
// Example:
//
//	mediatord -addr :8080 &
//	curl 'localhost:8080/translate?q=[ln = "Clancy"] and [fn = "Tom"]'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/qparse"
	"repro/internal/qtree"
	"repro/internal/resilience"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/sources"
)

type server struct {
	med     *mediator.Mediator
	svc     *serve.Server
	catalog *engine.Relation
	reg     *obs.Registry
	// retryAfter is the Retry-After of a 503 for a tripped breaker: the
	// breakers' open interval in whole seconds, rounded up.
	retryAfter string
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	nBooks := flag.Int("books", 500, "synthetic catalog size")
	seed := flag.Int64("seed", 1999, "catalog generator seed")
	cacheSize := flag.Int("cache", serve.DefaultCacheSize, "translation cache capacity (entries)")
	matchCache := flag.Int("matchcache", 0, "shared matchings-cache capacity (0 = default, negative disables)")
	workers := flag.Int("workers", 0, "max concurrent source executions (0 = 2×GOMAXPROCS)")
	srcTimeout := flag.Duration("source-timeout", 10*time.Second, "per-source execution timeout (0 = none)")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain timeout")
	index := flag.Bool("index", false, "build cost-based access paths over the catalog and answer via selectivity-ranked index probes (qmap_index_* metrics)")
	breaker := flag.Bool("breaker", false, "per-source circuit breakers: a tripped source fails fast with a typed error (qmap_breaker_* metrics)")
	hedge := flag.Bool("hedge", false, "hedge straggling source executions after the tracked latency-quantile delay (qmap_hedge_* metrics)")
	retries := flag.Int("retries", 0, "total executions allowed per source request on transient faults, first included (<= 1 disables; qmap_retry_total)")
	admission := flag.Bool("admission", false, "TinyLFU admission in front of the translation and matchings caches (qmap_admission_rejected_total)")
	flag.Parse()

	s := newServer(*seed, *nBooks, serve.Config{
		Cache: serve.CacheConfig{
			Size:           *cacheSize,
			MatchCacheSize: *matchCache,
			Admission:      *admission,
		},
		Resilience: serve.ResilienceConfig{
			Breaker: *breaker,
			Hedge:   *hedge,
			Retries: *retries,
		},
		Workers:       *workers,
		SourceTimeout: *srcTimeout,
		Index:         *index,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.mux(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	mode := ""
	if *index {
		mode = " (indexed access paths)"
	}
	if *breaker || *hedge || *retries > 1 {
		mode += " (resilient fan-out)"
	}
	log.Printf("mediatord: serving %d-book catalog on %s%s", s.catalog.Len(), *addr, mode)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills hard
		log.Printf("mediatord: signal received, draining in-flight queries (max %s)", *drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("mediatord: forced shutdown: %v", err)
		}
		st := s.svc.Stats()
		log.Printf("mediatord: served %d requests (%.0f%% cache hits), bye",
			st.Requests, 100*st.HitRate())
	}
}

func newServer(seed int64, nBooks int, cfg serve.Config) *server {
	med := mediator.New(sources.NewAmazon(), sources.NewClbooks())
	catalog := sources.BookRelation("catalog", sources.GenBooks(seed, nBooks))
	// Equality indexes accelerate the directly-indexable translations;
	// overridden operators (the structured author match) fall back to scans.
	med.Indexes = map[string]engine.IndexSet{
		"amazon":  engine.BuildIndexes(catalog, "publisher", "isbn", "subject"),
		"clbooks": engine.BuildIndexes(catalog, "publisher"),
	}
	data := map[string]*engine.Relation{
		"amazon":  catalog,
		"clbooks": catalog,
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	obs.RegisterGoRuntime(reg)
	med.Metrics = obs.NewTranslationMetrics(reg)
	openFor := cfg.Resilience.BreakerConfig.OpenFor
	if openFor <= 0 {
		openFor = resilience.DefaultOpenFor
	}
	return &server{
		med:        med,
		svc:        serve.New(med, data, cfg),
		catalog:    catalog,
		reg:        reg,
		retryAfter: strconv.FormatInt(int64((openFor+time.Second-1)/time.Second), 10),
	}
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /translate", s.handleTranslate)
	mux.HandleFunc("GET /query", s.handleQuery)
	mux.HandleFunc("GET /trace", s.handleTrace)
	mux.HandleFunc("GET /sources", s.handleSources)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

type translationJSON struct {
	Query   string          `json:"query"`
	Sources []sourceMapJSON `json:"sources"`
	Filter  string          `json:"filter"`
}

type sourceMapJSON struct {
	Source     string      `json:"source"`
	Translated string      `json:"translated"`
	Tree       *qtree.Node `json:"tree"`
	Residue    string      `json:"residue"`
}

func (s *server) handleTranslate(w http.ResponseWriter, r *http.Request) {
	q, err := qparse.Parse(r.URL.Query().Get("q"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	tr, err := s.svc.Translate(r.Context(), q)
	if err != nil {
		s.serveError(w, err)
		return
	}
	out := translationJSON{Query: q.String(), Filter: tr.Filter.String()}
	for _, st := range tr.Sources {
		out.Sources = append(out.Sources, sourceMapJSON{
			Source:     st.Source.Name,
			Translated: st.Query.String(),
			Tree:       st.Query,
			Residue:    st.Residue.String(),
		})
	}
	writeJSON(w, out)
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, err := qparse.Parse(r.URL.Query().Get("q"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	result, err := s.svc.Query(r.Context(), q)
	if err != nil {
		s.serveError(w, err)
		return
	}
	text := q.String()
	// A catalog answer encodes to about 160 bytes: size the buffer once
	// instead of growing it by doubling.
	buf := make([]byte, 0, 128+len(text)+192*result.Len())
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(appendQueryJSON(buf, text, result.Tuples)); err != nil {
		log.Printf("mediatord: encoding response: %v", err)
	}
}

// answerAttrs are the attributes /query reports for each answer, in the
// order encoding/json sorts map keys.
var answerAttrs = [...]string{"author", "id-no", "publisher", "ti"}

// appendQueryJSON appends the /query response for answers to query:
//
//	{"query": query, "answers": [row...], "answer_count": len(answers)}
//
// where a row maps each of answerAttrs an answer carries to its value's
// String(), and "answers" is null when there are none. The bytes are those
// json.Encoder with SetIndent("", "  ") writes for that object (the
// reference in encode_test.go), without building the rows, reflecting or
// indenting.
func appendQueryJSON(b []byte, query string, answers []engine.Tuple) []byte {
	b = append(b, "{\n  \"query\": "...)
	b = appendJSONString(b, query)
	b = append(b, ",\n  \"answers\": "...)
	if len(answers) == 0 {
		b = append(b, "null"...)
	} else {
		var scratch [256]byte
		b = append(b, '[')
		for i, t := range answers {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    {"...)
			n := 0
			for _, attr := range answerAttrs {
				v, ok := t[attr]
				if !ok {
					continue
				}
				if n > 0 {
					b = append(b, ',')
				}
				b = append(b, "\n      \""...)
				b = append(b, attr...)
				b = append(b, "\": "...)
				b = appendJSONString(b, engine.AppendValue(scratch[:0], v))
				n++
			}
			if n > 0 {
				b = append(b, "\n    "...)
			}
			b = append(b, '}')
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, ",\n  \"answer_count\": "...)
	b = strconv.AppendInt(b, int64(len(answers)), 10)
	return append(b, "\n}\n"...)
}

// appendJSONString appends s as encoding/json encodes a string: quoted, with
// \\, \", \b, \f, \n, \r and \t escaped by letter, other control bytes and
// <, > and & as \u00XX, U+2028 and U+2029 as \u2028 and \u2029, and each
// byte of invalid UTF-8 as \ufffd.
func appendJSONString[S string | []byte](b []byte, s S) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		n := min(len(s)-i, utf8.UTFMax)
		r, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

type sourceInfoJSON struct {
	Name  string `json:"name"`
	Rules string `json:"rules"`
}

func (s *server) handleSources(w http.ResponseWriter, r *http.Request) {
	var out []sourceInfoJSON
	for _, src := range s.med.Sources {
		out = append(out, sourceInfoJSON{Name: src.Name, Rules: rules.FormatSpec(src.Spec)})
	}
	writeJSON(w, out)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.svc.Stats())
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		log.Printf("mediatord: writing metrics: %v", err)
	}
}

// handleTrace translates q afresh — bypassing the cache, since a cached
// translation performs no algorithm work to observe — under a tracer and
// returns the resulting span tree as JSON.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	q, err := qparse.Parse(r.URL.Query().Get("q"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	tracer := obs.NewTracer()
	ctx := obs.WithTracer(r.Context(), tracer)
	if _, err := s.med.TranslateContext(ctx, q); err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, tracer.Root())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("mediatord: encoding response: %v", err)
	}
}

// serveError answers a failed Translate or Query: 503 with Retry-After when
// a source's breaker is open, 504 when a deadline ran out, 422 otherwise.
func (s *server) serveError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, serve.ErrBreakerOpen):
		w.Header().Set("Retry-After", s.retryAfter)
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, err)
	default:
		httpError(w, http.StatusUnprocessableEntity, err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}
