package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/qparse"
	"repro/internal/qtree"
	"repro/internal/serve"
)

// target serves one request for a client and returns its answer count;
// ct is nil when the request is not traced.
type target interface {
	do(ctx context.Context, client int, r request, ct *clientTrace) (int, error)
}

// queryTarget sends parsed queries to Server.Query (union) or QueryJoin.
type queryTarget struct {
	srv  *serve.Server
	join bool
	last []atomic.Uintptr // see translateTarget
}

func (t *queryTarget) query(ctx context.Context, q *qtree.Node) (*engine.Relation, error) {
	if t.join {
		return t.srv.QueryJoin(ctx, q)
	}
	return t.srv.Query(ctx, q)
}

func (t *queryTarget) do(ctx context.Context, _ int, r request, ct *clientTrace) (int, error) {
	s := ct.begin(spanParse, false)
	q, err := qparse.Parse(r.text)
	ct.end(s)
	if err != nil {
		return 0, err
	}
	if ct != nil {
		s = ct.begin(spanKey, true)
		q.CanonicalKey()
		ct.end(s)
		s = ct.begin(spanTranslate, true)
		tr, err := t.srv.Translate(ctx, q)
		ct.end(s)
		if err != nil {
			return 0, err
		}
		ct.translated(s, cacheHit(t.last, r.id, tr), tr)
	}
	s = ct.begin(spanQuery, false)
	rel, err := t.query(ct.context(ctx), q)
	ct.end(s)
	ct.adoptSelects(s)
	if err != nil {
		return 0, err
	}
	return rel.Len(), nil
}

// translateTarget sends parsed queries to Server.Translate. It tells a
// cache hit from a miss by the identity of the returned translation: a hit
// returns the object the previous request for the same canonical query
// got. last holds, per distinct query, the address of the translation last
// returned for it; an address is not a reference, so it keeps nothing
// alive, and a freed translation's address reused for the same query would
// be taken for a hit, which is rare enough to ignore.
type translateTarget struct {
	srv  *serve.Server
	last []atomic.Uintptr
}

func (t *translateTarget) do(ctx context.Context, _ int, r request, ct *clientTrace) (int, error) {
	s := ct.begin(spanParse, false)
	q, err := qparse.Parse(r.text)
	ct.end(s)
	if err != nil {
		return 0, err
	}
	if ct != nil {
		s = ct.begin(spanKey, true)
		q.CanonicalKey()
		ct.end(s)
	}
	s = ct.begin(spanTranslate, false)
	tr, err := t.srv.Translate(ctx, q)
	ct.end(s)
	if err != nil {
		return 0, err
	}
	ct.translated(s, cacheHit(t.last, r.id, tr), tr)
	return translationSize(tr), nil
}

// cacheHit tells whether tr is the translation last returned for distinct
// query id (1), another one (0), or the first seen for id (-1, unknown),
// and records it as the last one.
func cacheHit(last []atomic.Uintptr, id int32, tr *mediator.Translation) int8 {
	p := reflect.ValueOf(tr).Pointer()
	switch last[id].Swap(p) {
	case 0:
		return -1
	case p:
		return 1
	}
	return 0
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	elapsed   time.Duration
	latencies []time.Duration // completed requests, all clients
	attempted int
	failed    int
	answers   int64
	firstErr  error
	traces    []*clientTrace // traced phases only
	use       usage          // resources used during the phase
}

// runPhase runs a closed loop: each client sends its next request only
// after the previous one is answered and checked, for d, or until each
// client has sent limit requests when limit > 0. want holds the oracle's
// answer count per distinct query; any other count fails the request.
func runPhase(tgt target, m meter, rings [][]request, want []int, d time.Duration, limit int, traced bool) (*phase, error) {
	ph := &phase{}
	if traced {
		base := time.Now()
		for range rings {
			ph.traces = append(ph.traces, newClientTrace(base))
		}
	}
	type clientResult struct {
		lat               []time.Duration
		attempted, failed int
		answers           int64
		err               error
	}
	results := make([]clientResult, len(rings))
	before, err := m.read()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range rings {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			ring := rings[c]
			var ct *clientTrace
			if traced {
				ct = ph.traces[c]
			}
			ctx := context.Background()
			for i := 0; limit <= 0 || i < limit; i++ {
				r := ring[i%len(ring)]
				t0 := time.Now()
				if limit <= 0 && !t0.Before(deadline) {
					break
				}
				ct.beginRequest()
				n, err := tgt.do(ctx, c, r, ct)
				if err == nil && n != want[r.id] {
					err = fmt.Errorf("query %q: %d answers, oracle has %d", r.text, n, want[r.id])
				}
				ct.endRequest(n)
				lat := time.Since(t0)
				res.attempted++
				if err != nil {
					res.failed++
					if res.err == nil {
						res.err = err
					}
					continue
				}
				res.lat = append(res.lat, lat)
				res.answers += int64(n)
			}
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	after, err := m.read()
	if err != nil {
		return nil, err
	}
	ph.use = after.minus(before)
	for _, r := range results {
		ph.latencies = append(ph.latencies, r.lat...)
		ph.attempted += r.attempted
		ph.failed += r.failed
		ph.answers += r.answers
		if ph.firstErr == nil {
			ph.firstErr = r.err
		}
	}
	return ph, nil
}

// completed is the number of requests answered correctly.
func (p *phase) completed() int { return len(p.latencies) }
