package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/qparse"
	"repro/internal/serve"
	"repro/internal/sources"
	"repro/internal/workload"
)

// mediatordSourceTimeout is cmd/mediatord's default -source-timeout.
const mediatordSourceTimeout = 10 * time.Second

// stack is one serving stack built by a workload's set-up: the server and
// the data it serves. Everything the stack keeps alive is reachable from
// here, so dropping it frees it.
type stack struct {
	srv  *serve.Server
	med  *mediator.Mediator
	data map[string]*engine.Relation
}

// buildBooks builds the bookstore stack the way cmd/mediatord's newServer
// does with its default flags: Amazon and Clbooks over one catalog, the
// daemon's equality indexes, its translation metrics and runtime gauges, and
// its per-source timeout.
func buildBooks(books []sources.Book, exec serve.SourceExecutor) *stack {
	med := mediator.New(sources.NewAmazon(), sources.NewClbooks())
	catalog := sources.BookRelation("catalog", books)
	med.Indexes = map[string]engine.IndexSet{
		"amazon":  engine.BuildIndexes(catalog, "publisher", "isbn", "subject"),
		"clbooks": engine.BuildIndexes(catalog, "publisher"),
	}
	data := map[string]*engine.Relation{"amazon": catalog, "clbooks": catalog}
	reg := obs.NewRegistry()
	obs.RegisterGoRuntime(reg)
	med.Metrics = obs.NewTranslationMetrics(reg)
	srv := serve.New(med, data, serve.Config{
		Cache:         serve.CacheConfig{Size: serve.DefaultCacheSize},
		SourceTimeout: mediatordSourceTimeout,
		Metrics:       reg,
		Executor:      exec,
	})
	return &stack{srv: srv, med: med, data: data}
}

// libraryMediator is Example 3's mediator: T1 and T2 glued on person
// identity.
func libraryMediator() *mediator.Mediator {
	med := mediator.New(sources.NewT1(), sources.NewT2())
	med.Glue = sources.LibraryGlue()
	return med
}

// buildLibrary builds join-library's stack with the server's defaults.
func buildLibrary(people []sources.Person, papers []sources.Paper, exec serve.SourceExecutor) *stack {
	med := libraryMediator()
	data := map[string]*engine.Relation{
		"t1": sources.T1Relation(people, papers),
		"t2": sources.T2Relation(people),
	}
	return &stack{srv: serve.New(med, data, serve.Config{Executor: exec}), med: med, data: data}
}

// zipfConfig is translate-zipf's scenario shape.
var zipfConfig = workload.Config{Indep: 6, Pairs: 3, InexactPairs: 2, Triples: 1}

// zipfMediator puts two independently built copies of the scenario's spec
// behind two sources, so no cache entry is shared between them.
func zipfMediator() *mediator.Mediator {
	a, b := workload.New(zipfConfig), workload.New(zipfConfig)
	return mediator.New(
		&sources.Source{Name: "w1", Spec: a.Spec, Eval: a.Eval},
		&sources.Source{Name: "w2", Spec: b.Spec, Eval: b.Eval},
	)
}

// buildZipf builds translate-zipf's stack with the server's defaults.
func buildZipf() *stack {
	med := zipfMediator()
	return &stack{srv: serve.New(med, nil, serve.Config{}), med: med}
}

// warmTranslate parses and translates each text once: the hot set's
// translations, which set-up includes.
func warmTranslate(srv *serve.Server, texts []string) error {
	for _, s := range texts {
		q, err := qparse.Parse(s)
		if err != nil {
			return err
		}
		if _, err := srv.Translate(context.Background(), q); err != nil {
			return fmt.Errorf("translating %q: %w", s, err)
		}
	}
	return nil
}

// render is a relation's byte-level identity: its tuples in order.
func render(r *engine.Relation) string {
	var b strings.Builder
	for _, t := range r.Tuples {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// translationSize is the answer count of a translation request: the nodes
// of every source's translated query plus those of the filter. It does not
// depend on the order of ∧/∨ children, so permuted texts share it.
func translationSize(tr *mediator.Translation) int {
	n := tr.Filter.Size()
	for i := range tr.Sources {
		n += tr.Sources[i].Query.Size()
	}
	return n
}

// translationIdentity is a translation's identity up to the order of ∧/∨
// children: each source's translated query and residue, the filter, and
// the translation work counters.
func translationIdentity(tr *mediator.Translation) string {
	var b strings.Builder
	for _, st := range tr.Sources {
		fmt.Fprintf(&b, "%s: %s | %s | %+v\n", st.Source.Name, st.Query.CanonicalKey(), st.Residue.CanonicalKey(), st.Stats)
	}
	b.WriteString("F: " + tr.Filter.CanonicalKey())
	return b.String()
}
