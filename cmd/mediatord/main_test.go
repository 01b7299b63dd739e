package main

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/qparse"
	"repro/internal/qtree"
	"repro/internal/serve"
)

func testServer(t *testing.T) *server {
	t.Helper()
	return newServer(7, 120, serve.Config{Cache: serve.CacheConfig{Size: 64}})
}

func TestHandleTranslate(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest("GET", "/translate?q="+url.QueryEscape(`[ln = "Clancy"] and [fn = "Tom"]`), nil)
	rec := httptest.NewRecorder()
	s.handleTranslate(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var out translationJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Sources) != 2 {
		t.Fatalf("got %d source translations", len(out.Sources))
	}
	if out.Sources[0].Source != "amazon" || !strings.Contains(out.Sources[0].Translated, "Clancy, Tom") {
		t.Errorf("amazon translation = %+v", out.Sources[0])
	}
	if out.Sources[1].Source != "clbooks" || !strings.Contains(out.Sources[1].Translated, "contains") {
		t.Errorf("clbooks translation = %+v", out.Sources[1])
	}
}

func TestHandleQueryFiltersFalsePositives(t *testing.T) {
	s := testServer(t)
	q := `[ln = "Clancy"] and [fn = "Tom"]`
	req := httptest.NewRequest("GET", "/query?q="+url.QueryEscape(q), nil)
	rec := httptest.NewRecorder()
	s.handleQuery(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var out queryResultJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	// Reference: evaluate Q directly.
	direct, err := s.catalog.Select(mustParse(t, q), s.med.Eval)
	if err != nil {
		t.Fatal(err)
	}
	if out.AnswerCount != direct.Len() {
		t.Errorf("mediated %d answers, direct evaluation %d", out.AnswerCount, direct.Len())
	}
	for _, row := range out.Answers {
		if !strings.Contains(row["author"], "Clancy, Tom") {
			t.Errorf("answer with wrong author survived filtering: %v", row)
		}
	}
}

func TestHandleTranslateBadQuery(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest("GET", "/translate?q=%5Bgarbage", nil)
	rec := httptest.NewRecorder()
	s.handleTranslate(rec, req)
	if rec.Code != 400 {
		t.Fatalf("status %d, want 400", rec.Code)
	}
}

func TestHandleSources(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest("GET", "/sources", nil)
	rec := httptest.NewRecorder()
	s.handleSources(rec, req)
	var out []sourceInfoJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || !strings.Contains(out[0].Rules, "rule R2") {
		t.Errorf("sources = %+v", out)
	}
}

func TestHandleStats(t *testing.T) {
	s := testServer(t)
	q := "/query?q=" + url.QueryEscape(`[ln = "Clancy"] and [fn = "Tom"]`)
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		s.handleQuery(rec, httptest.NewRequest("GET", q, nil))
		if rec.Code != 200 {
			t.Fatalf("query status %d: %s", rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	s.handleStats(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("stats status %d: %s", rec.Code, rec.Body)
	}
	var st serve.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 3 {
		t.Errorf("requests = %d, want 3", st.Requests)
	}
	if st.CacheMisses != 1 || st.CacheHits != 2 {
		t.Errorf("cache misses/hits = %d/%d, want 1/2", st.CacheMisses, st.CacheHits)
	}
	for _, name := range []string{"amazon", "clbooks"} {
		if st.Sources[name].Executions != 3 {
			t.Errorf("source %s executions = %d, want 3", name, st.Sources[name].Executions)
		}
	}
}

func TestHandleMetrics(t *testing.T) {
	s := testServer(t)
	q := "/query?q=" + url.QueryEscape(`[ln = "Clancy"] and [fn = "Tom"]`)
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		s.handleQuery(rec, httptest.NewRequest("GET", q, nil))
		if rec.Code != 200 {
			t.Fatalf("query status %d: %s", rec.Code, rec.Body)
		}
	}

	rec := httptest.NewRecorder()
	s.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	samples, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	find := func(name string, labels ...string) (float64, bool) {
		for _, sm := range samples {
			if sm.Name != name {
				continue
			}
			ok := true
			for i := 0; i+1 < len(labels); i += 2 {
				if sm.Label(labels[i]) != labels[i+1] {
					ok = false
					break
				}
			}
			if ok {
				return sm.Value, true
			}
		}
		return 0, false
	}
	if v, ok := find("qmap_serve_requests_total"); !ok || v != 2 {
		t.Errorf("qmap_serve_requests_total = %v (present %v), want 2", v, ok)
	}
	if v, ok := find("qmap_cache_hits_total"); !ok || v != 1 {
		t.Errorf("qmap_cache_hits_total = %v (present %v), want 1", v, ok)
	}
	if v, ok := find("qmap_source_latency_seconds_bucket", "source", "amazon", "le", "+Inf"); !ok || v != 2 {
		t.Errorf("amazon +Inf latency bucket = %v (present %v), want 2", v, ok)
	}
	if v, ok := find("qmap_rule_fires_total", "spec", "K_Amazon", "rule", "R2"); !ok || v < 1 {
		t.Errorf("qmap_rule_fires_total{spec=K_Amazon,rule=R2} = %v (present %v), want >= 1", v, ok)
	}
	if _, ok := find("go_goroutines"); !ok {
		t.Error("go_goroutines runtime gauge missing from scrape")
	}
}

func TestHandleTrace(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest("GET", "/trace?q="+url.QueryEscape(`[ln = "Clancy"] and [fn = "Tom"]`), nil)
	rec := httptest.NewRecorder()
	s.handleTrace(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var root obs.Span
	if err := json.Unmarshal(rec.Body.Bytes(), &root); err != nil {
		t.Fatal(err)
	}
	if root.Kind != obs.KindTranslate {
		t.Fatalf("root kind = %q, want %q", root.Kind, obs.KindTranslate)
	}
	if n := len(root.FindAll(obs.KindSource)); n != 2 {
		t.Errorf("%d source spans, want 2", n)
	}
	if n := len(root.FindAll(obs.KindSCM)); n == 0 {
		t.Error("no scm spans in trace")
	}
	if err := obs.Verify(&root); err != nil {
		t.Errorf("trace fails invariants: %v", err)
	}

	// /trace bypasses the translation cache, so the same query traces the
	// same tree twice.
	rec2 := httptest.NewRecorder()
	s.handleTrace(rec2, httptest.NewRequest("GET", req.URL.String(), nil))
	if rec.Body.String() != rec2.Body.String() {
		t.Error("two /trace responses for the same query differ")
	}
}

func TestHandlePprofIndex(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("pprof index status %d, body %.80q", rec.Code, rec.Body.String())
	}
}

func mustParse(t *testing.T, s string) *qtree.Node {
	t.Helper()
	q, err := qparse.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
