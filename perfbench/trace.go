package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/qtree"
	"repro/internal/serve"
)

// Span kinds: the layer boundaries the benchmark records around its own
// calls into the program.
const (
	spanRequest   uint8 = iota // root: from send to checked answer
	spanParse                  // qparse.Parse
	spanKey                    // qtree.Node.CanonicalKey (probe)
	spanTranslate              // serve.Server.Translate (a probe on query workloads)
	spanQuery                  // serve.Server.Query or QueryJoin
	spanSelect                 // one source's selection, from the Executor hook
)

var spanNames = [...]string{"request", "qparse.Parse", "qtree.CanonicalKey", "serve.Translate", "serve.Query", "engine.select"}

// sourceNames are the sources of every workload; select spans name theirs
// by index.
var sourceNames = [...]string{"amazon", "clbooks", "t1", "t2", "w1", "w2"}

func sourceIndex(name string) uint8 {
	for i, s := range sourceNames {
		if s == name {
			return uint8(i)
		}
	}
	return 255
}

// span is one recorded interval. A probe span times a second call of work
// the request path does inside another span (the canonical key inside the
// translation cache; the cache lookup inside Query): it is reported as a
// layer figure but left out of the accounted time.
type span struct {
	req        uint32
	kind       uint8
	probe      bool
	source     uint8 // select spans: index into sourceNames
	hit        int8  // translate spans: 1 hit, 0 miss, -1 unknown
	parent     int16 // index of the parent within its request; -1 for the root
	tuples     int32 // select spans: tuples returned; root: answers
	start, end int64 // ns since the phase began
}

func (s span) dur() int64 { return s.end - s.start }

// covered returns how much of [start, end) the intervals cover, counting
// overlapping stretches once.
func covered(start, end int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], start), min(iv[1], end)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTime is a span's duration minus the part its children's intervals
// cover. Children may overlap, as the fan-out's selects do.
func selfTime(s span, kids []span) int64 {
	ivs := make([][2]int64, len(kids))
	for i, k := range kids {
		ivs[i] = [2]int64{k.start, k.end}
	}
	return s.dur() - covered(s.start, s.end, ivs)
}

// reqTrace collects the current request's select spans, which the
// fan-out's goroutines record concurrently through the Executor hook.
type reqTrace struct {
	base    time.Time
	mu      sync.Mutex
	selects []span
}

type reqTraceKey struct{}

func (rt *reqTrace) now() int64 { return int64(time.Since(rt.base)) }

// tracingExecutor is the Executor hook of traced runs: it times
// serve.DefaultExecutor when the request context carries a reqTrace and
// calls it untouched otherwise.
func tracingExecutor(ctx context.Context, source string, rel *engine.Relation, q *qtree.Node, ev *engine.Evaluator, ix engine.IndexSet, acc *engine.Access) (*engine.Relation, error) {
	rt, _ := ctx.Value(reqTraceKey{}).(*reqTrace)
	if rt == nil {
		return serve.DefaultExecutor(ctx, source, rel, q, ev, ix, acc)
	}
	start := rt.now()
	out, err := serve.DefaultExecutor(ctx, source, rel, q, ev, ix, acc)
	s := span{kind: spanSelect, source: sourceIndex(source), start: start, end: rt.now()}
	if out != nil {
		s.tuples = int32(out.Len())
	}
	rt.mu.Lock()
	rt.selects = append(rt.selects, s)
	rt.mu.Unlock()
	return out, err
}

// clientTrace records one client's spans, request after request. Spans of
// one request are contiguous and start with the request's root. A nil
// *clientTrace records nothing, so untraced requests take the same path.
type clientTrace struct {
	rt    reqTrace
	req   uint32
	spans []span
	first int   // index of the current request's root
	open  []int // stack of open spans
	// Translation work of the computed (missed) translations.
	misses, ruleAttempts, productTerms int
}

func newClientTrace(base time.Time) *clientTrace {
	return &clientTrace{rt: reqTrace{base: base}}
}

// context returns ctx carrying the request's select collector.
func (c *clientTrace) context(ctx context.Context) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, reqTraceKey{}, &c.rt)
}

// beginRequest opens the root span of a new request.
func (c *clientTrace) beginRequest() {
	if c == nil {
		return
	}
	c.first = len(c.spans)
	c.rt.mu.Lock()
	c.rt.selects = c.rt.selects[:0]
	c.rt.mu.Unlock()
	c.begin(spanRequest, false)
}

// begin opens a span nested in the innermost open one and returns its
// index.
func (c *clientTrace) begin(kind uint8, probe bool) int {
	if c == nil {
		return -1
	}
	s := span{req: c.req, kind: kind, probe: probe, parent: -1, hit: -1, start: c.rt.now()}
	if n := len(c.open); n > 0 {
		s.parent = int16(c.open[n-1] - c.first)
	}
	c.spans = append(c.spans, s)
	i := len(c.spans) - 1
	c.open = append(c.open, i)
	return i
}

// end closes the innermost open span, which must be i.
func (c *clientTrace) end(i int) {
	if c == nil {
		return
	}
	c.spans[i].end = c.rt.now()
	c.open = c.open[:len(c.open)-1]
}

// adoptSelects files the select spans recorded during span i under it.
func (c *clientTrace) adoptSelects(i int) {
	if c == nil {
		return
	}
	c.rt.mu.Lock()
	for _, s := range c.rt.selects {
		s.req, s.parent, s.hit = c.req, int16(i-c.first), -1
		c.spans = append(c.spans, s)
	}
	c.rt.mu.Unlock()
}

// translated marks translate span i as a cache hit (1), a miss (0) or
// unknown (-1); a miss adds the computed translation's work counters.
func (c *clientTrace) translated(i int, hit int8, tr *mediator.Translation) {
	if c == nil {
		return
	}
	c.spans[i].hit = hit
	if hit != 0 {
		return
	}
	c.misses++
	for _, st := range tr.Sources {
		c.ruleAttempts += st.Stats.RuleAttempts
		c.productTerms += st.Stats.ProductTerms
	}
}

// endRequest closes the root span, recording the answer count.
func (c *clientTrace) endRequest(answers int) {
	if c == nil {
		return
	}
	c.spans[c.first].tuples = int32(answers)
	c.end(c.first)
	c.req++
}

// layers is the per-layer summary of a traced phase, times in µs.
type layers struct {
	requests                           int
	latency, parse, key, hit, miss     []float64
	querySelf, selectSum, selectCrit   []float64
	fanoutWait, accounted              []float64
	answers, selected, joinWork        float64
	misses, ruleAttempts, productTerms int
}

func micros(ns int64) float64 { return float64(ns) / 1e3 }

// summarize folds every client's spans into per-request layer figures.
func summarize(clients []*clientTrace) *layers {
	l := &layers{}
	for _, c := range clients {
		l.misses += c.misses
		l.ruleAttempts += c.ruleAttempts
		l.productTerms += c.productTerms
		for lo := 0; lo < len(c.spans); {
			hi := lo + 1
			for hi < len(c.spans) && c.spans[hi].parent >= 0 {
				hi++
			}
			l.addRequest(c.spans[lo:hi])
			lo = hi
		}
	}
	return l
}

func (l *layers) addRequest(req []span) {
	root := req[0]
	l.requests++
	l.latency = append(l.latency, micros(root.dur()))
	l.answers += float64(root.tuples)
	var onPath [][2]int64
	for i, s := range req {
		if s.parent == 0 && !s.probe {
			onPath = append(onPath, [2]int64{s.start, s.end})
		}
		switch s.kind {
		case spanParse:
			l.parse = append(l.parse, micros(s.dur()))
		case spanKey:
			l.key = append(l.key, micros(s.dur()))
		case spanTranslate:
			switch s.hit {
			case 1:
				l.hit = append(l.hit, micros(s.dur()))
			case 0:
				l.miss = append(l.miss, micros(s.dur()))
			}
		case spanQuery:
			var sels []span
			for _, k := range req {
				if int(k.parent) == i {
					sels = append(sels, k)
				}
			}
			l.addQuery(s, sels)
		}
	}
	l.accounted = append(l.accounted, micros(covered(root.start, root.end, onPath)))
}

func (l *layers) addQuery(q span, sels []span) {
	l.querySelf = append(l.querySelf, micros(selfTime(q, sels)))
	var sum, crit int64
	work := 1.0
	for _, s := range sels {
		sum += s.dur()
		crit = max(crit, s.dur())
		l.fanoutWait = append(l.fanoutWait, micros(s.start-q.start))
		l.selected += float64(s.tuples)
		work *= float64(s.tuples)
	}
	l.selectSum = append(l.selectSum, micros(sum))
	l.selectCrit = append(l.selectCrit, micros(crit))
	if len(sels) > 0 {
		l.joinWork += work
	}
}

// writeSpans writes every span as gzipped tab-separated lines: client,
// request, span index within the request, parent, name, start and end in
// ns since the phase began, and tuples.
func writeSpans(path string, clients []*clientTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "client\trequest\tspan\tparent\tname\tstart_ns\tend_ns\ttuples")
	for ci, c := range clients {
		first := 0
		for i, s := range c.spans {
			if s.parent < 0 {
				first = i
			}
			name := spanNames[s.kind]
			if s.kind == spanSelect && int(s.source) < len(sourceNames) {
				name += "/" + sourceNames[s.source]
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\n", ci, s.req, i-first, s.parent, name, s.start, s.end, s.tuples)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
