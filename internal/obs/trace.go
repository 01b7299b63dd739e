package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Span kinds emitted by the translation pipeline. The golden trace tests
// pin the exact tree of kinds for fixed queries, so renaming one is a
// breaking change to the trace schema (docs/observability.md).
const (
	// KindTranslate is the root span of a mediator translation.
	KindTranslate = "translate"
	// KindSource wraps one source's translation inside a mediator span.
	KindSource = "source"
	// KindTDQM is one Algorithm TDQM node visit (Figure 8).
	KindTDQM = "tdqm"
	// KindDNF is one Algorithm DNF invocation (Figure 6).
	KindDNF = "dnf"
	// KindEDNF is one Procedure EDNF computation (Figure 10).
	KindEDNF = "ednf"
	// KindPSafe is one Algorithm PSafe partition (Figure 11).
	KindPSafe = "psafe"
	// KindSCM is one Algorithm SCM invocation (Figure 4).
	KindSCM = "scm"
	// KindMatch is one rule's matching attempt within an M(·, K) pass.
	KindMatch = "match"
	// KindAccess is an access-path span emitted by the serving layer when
	// index-backed execution is on: one span per source per request, whose
	// name records the planner's chosen path (e.g. "books eq(pyear):12" or
	// "books scan"). It never appears inside translation traces, so the
	// golden translation trees are unaffected.
	KindAccess = "access"
	// KindBreaker is a circuit-breaker summary span emitted by the serving
	// layer per source per request when breakers are on: the name carries
	// the source and its breaker state ("books closed"), counters carry the
	// trip count and whether this request was refused. Serving-layer only,
	// never inside translation traces.
	KindBreaker = "breaker"
	// KindHedge is a hedge/retry summary span emitted per source per
	// request when hedging or retry is on: counters carry whether a hedge
	// launched and won, and how many retries ran. Serving-layer only.
	KindHedge = "hedge"
)

// Counter keys used by the translation pipeline's spans.
const (
	// CtrCandidates counts matchings produced before suppression (per SCM
	// span) or by one rule (per match span).
	CtrCandidates = "candidateMatchings"
	// CtrKept counts matchings retained after submatching suppression.
	CtrKept = "keptMatchings"
	// CtrSuppressed counts suppressed submatchings. At every SCM span,
	// kept + suppressed = candidates (checked by Verify).
	CtrSuppressed = "suppressedMatchings"
	// CtrEmittedAtoms counts constraint atoms in the emitted translation.
	CtrEmittedAtoms = "emittedAtoms"
	// CtrUnmatched counts constraints no retained matching covers (their
	// mapping is True).
	CtrUnmatched = "unmatchedConstraints"
	// CtrEssentialDNFSize is e, the essential-DNF support of the span's
	// subquery: the number of distinct constraints that participate in some
	// multi-constraint potential matching — the paper's degree of constraint
	// dependency, which drives EDNF/TDQM safety-check cost (Section 8). By
	// construction a child span's subquery is a subset of its parent's, so
	// child e <= parent e at every edge (checked by Verify).
	CtrEssentialDNFSize = "essentialDNFSize"
	// CtrQuerySize is the node count k of the span's subquery, for reading
	// e against k per Section 8.
	CtrQuerySize = "querySize"
	// CtrConjuncts counts the conjuncts handed to PSafe.
	CtrConjuncts = "conjuncts"
	// CtrBlocks counts the blocks of a PSafe partition.
	CtrBlocks = "blocks"
	// CtrCrossMatchings counts cross-matching instances found by PSafe.
	CtrCrossMatchings = "crossMatchings"
	// CtrProductTerms counts product terms examined (the 2^{ne} quantity).
	CtrProductTerms = "productTerms"
	// CtrDisjuncts counts disjuncts of a DNF/EDNF expression.
	CtrDisjuncts = "disjuncts"
	// CtrSeparable is 1 when a PSafe partition was fully separable.
	CtrSeparable = "separable"
)

// Span is one node of a trace tree: a unit of translation work with its
// counters and nested children. Spans are built single-threaded by a Tracer
// and must not be mutated after the trace is read.
type Span struct {
	// Kind is one of the Kind* constants.
	Kind string
	// Name identifies the work deterministically (a query rendering, a rule
	// name, a source name).
	Name string
	// Counters holds the span's integer measurements, keyed by the Ctr*
	// constants.
	Counters map[string]int64
	// Children are the nested spans in execution order.
	Children []*Span
	// Duration is the span's wall-clock time. It stays zero unless the
	// tracer was built WithWallClock, keeping default traces deterministic.
	Duration time.Duration
}

// Add increments counter key by delta. A nil span is a no-op, so call sites
// can hold optional spans without guarding.
func (s *Span) Add(key string, delta int64) {
	if s == nil {
		return
	}
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	s.Counters[key] += delta
}

// Set sets counter key to v. A nil span is a no-op.
func (s *Span) Set(key string, v int64) {
	if s == nil {
		return
	}
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	s.Counters[key] = v
}

// Counter returns the value of counter key and whether it is present.
func (s *Span) Counter(key string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	v, ok := s.Counters[key]
	return v, ok
}

// Walk visits s and every descendant in depth-first pre-order.
func (s *Span) Walk(f func(*Span)) {
	if s == nil {
		return
	}
	f(s)
	for _, c := range s.Children {
		c.Walk(f)
	}
}

// FindAll returns every span of the given kind in depth-first pre-order.
func (s *Span) FindAll(kind string) []*Span {
	var out []*Span
	s.Walk(func(sp *Span) {
		if sp.Kind == kind {
			out = append(out, sp)
		}
	})
	return out
}

// spanJSON fixes the serialized field order; map keys are sorted by
// encoding/json, so the rendering is deterministic.
type spanJSON struct {
	Kind       string           `json:"kind"`
	Name       string           `json:"name,omitempty"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	DurationNS int64            `json:"duration_ns,omitempty"`
	Children   []*Span          `json:"children,omitempty"`
}

// MarshalJSON renders the span deterministically (counters sorted by key;
// duration omitted when zero, i.e. always for clockless tracers).
func (s *Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(spanJSON{
		Kind:       s.Kind,
		Name:       s.Name,
		Counters:   s.Counters,
		DurationNS: int64(s.Duration),
		Children:   s.Children,
	})
}

// UnmarshalJSON restores a span serialized by MarshalJSON.
func (s *Span) UnmarshalJSON(b []byte) error {
	var sj spanJSON
	if err := json.Unmarshal(b, &sj); err != nil {
		return err
	}
	*s = Span{
		Kind:     sj.Kind,
		Name:     sj.Name,
		Counters: sj.Counters,
		Children: sj.Children,
		Duration: time.Duration(sj.DurationNS),
	}
	return nil
}

// WriteText renders the span tree as an indented outline, one span per
// line with its counters sorted by key — the human form of qmap -trace.
func (s *Span) WriteText(w io.Writer) {
	s.writeText(w, 0)
}

func (s *Span) writeText(w io.Writer, depth int) {
	if s == nil {
		return
	}
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(w, "%s%s", indent, s.Kind)
	if s.Name != "" {
		fmt.Fprintf(w, " %s", s.Name)
	}
	if len(s.Counters) > 0 {
		keys := make([]string, 0, len(s.Counters))
		for k := range s.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%d", k, s.Counters[k])
		}
		fmt.Fprintf(w, "  [%s]", strings.Join(parts, " "))
	}
	if s.Duration > 0 {
		fmt.Fprintf(w, "  (%s)", s.Duration)
	}
	fmt.Fprintln(w)
	for _, c := range s.Children {
		c.writeText(w, depth+1)
	}
}

// Tracer builds a span tree. It is not safe for concurrent use: attach one
// tracer per translation (the pipeline is single-threaded per request).
// A nil *Tracer is inert — Start returns nil and End is a no-op — which is
// the disabled hot path.
type Tracer struct {
	roots  []*Span
	stack  []*Span
	clock  func() time.Time
	starts []time.Time
}

// NewTracer returns a deterministic (clockless) tracer.
func NewTracer() *Tracer { return &Tracer{} }

// WithWallClock makes the tracer record span durations. Traces stop being
// byte-deterministic; use only for profiling output, never for goldens.
func (t *Tracer) WithWallClock() *Tracer {
	t.clock = time.Now
	return t
}

// Start opens a span as a child of the innermost open span (or as a root)
// and returns it. Every Start must be paired with an End.
func (t *Tracer) Start(kind, name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{Kind: kind, Name: name}
	if len(t.stack) == 0 {
		t.roots = append(t.roots, s)
	} else {
		p := t.stack[len(t.stack)-1]
		p.Children = append(p.Children, s)
	}
	t.stack = append(t.stack, s)
	if t.clock != nil {
		t.starts = append(t.starts, t.clock())
	}
	return s
}

// End closes the innermost open span.
func (t *Tracer) End() {
	if t == nil || len(t.stack) == 0 {
		return
	}
	s := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if t.clock != nil {
		s.Duration = t.clock().Sub(t.starts[len(t.starts)-1])
		t.starts = t.starts[:len(t.starts)-1]
	}
}

// Root returns the trace: the single root span, or a synthetic "trace" span
// wrapping multiple top-level spans, or nil when nothing was recorded.
func (t *Tracer) Root() *Span {
	if t == nil || len(t.roots) == 0 {
		return nil
	}
	if len(t.roots) == 1 {
		return t.roots[0]
	}
	return &Span{Kind: "trace", Name: "root", Children: t.roots}
}
