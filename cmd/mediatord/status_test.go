package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/qtree"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// failingExecutor fails every source execution with err.
func failingExecutor(err error) serve.SourceExecutor {
	return func(context.Context, string, *engine.Relation, *qtree.Node, *engine.Evaluator, engine.IndexSet, *engine.Access) (*engine.Relation, error) {
		return nil, err
	}
}

// TestServeErrorStatuses pins the typed statuses of /query and /translate:
// an open breaker is 503 with the breakers' open interval as Retry-After, a
// deadline 504, any other serve error 422 and a parse error 400. The
// executors wrap each error as a remote transport would.
func TestServeErrorStatuses(t *testing.T) {
	const q = `[ln = "Clancy"] and [fn = "Tom"]`
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, tc := range []struct {
		name       string
		handler    string
		query      string
		ctx        context.Context
		cfg        serve.Config
		status     int
		retryAfter string
	}{
		{name: "breaker", handler: "query", query: q,
			cfg:    serve.Config{Executor: failingExecutor(fmt.Errorf("remote: %w", serve.ErrBreakerOpen))},
			status: 503, retryAfter: "1"},
		{name: "breaker-open-2.5s", handler: "query", query: q,
			cfg: serve.Config{
				Executor:   failingExecutor(fmt.Errorf("remote: %w", serve.ErrBreakerOpen)),
				Resilience: serve.ResilienceConfig{BreakerConfig: resilience.BreakerConfig{OpenFor: 2500 * time.Millisecond}},
			},
			status: 503, retryAfter: "3"},
		{name: "deadline", handler: "query", query: q,
			cfg:    serve.Config{Executor: failingExecutor(fmt.Errorf("remote: %w", context.DeadlineExceeded))},
			status: 504},
		{name: "other", handler: "query", query: q,
			cfg:    serve.Config{Executor: failingExecutor(errors.New("remote: connection reset"))},
			status: 422},
		{name: "unknown-attribute", handler: "query", query: `[nosuch = 1]`, status: 422},
		{name: "parse", handler: "query", query: `[garbage`, status: 400},
		{name: "translate-deadline", handler: "translate", query: q, ctx: expired, status: 504},
		{name: "translate-parse", handler: "translate", query: `[garbage`, status: 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(7, 120, tc.cfg)
			req := httptest.NewRequest("GET", "/"+tc.handler+"?q="+url.QueryEscape(tc.query), nil)
			if tc.ctx != nil {
				req = req.WithContext(tc.ctx)
			}
			rec := httptest.NewRecorder()
			s.mux().ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
				t.Errorf("Retry-After %q, want %q", got, tc.retryAfter)
			}
			if !strings.Contains(rec.Body.String(), `"error"`) {
				t.Errorf("body %q carries no error", rec.Body)
			}
		})
	}
}
