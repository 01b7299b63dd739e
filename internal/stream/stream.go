// Package stream is a tuple-at-a-time execution pipeline for the serving
// layer: the second execution engine next to the materialized
// mediator.ExecuteUnion / ExecuteJoin paths, built so that per-request
// memory is bounded by the pipeline shape — O(shards × buffer) in-flight
// tuples — instead of growing with the result size.
//
// The pipeline has three stages:
//
//   - presort: each source's universe relation is sorted once (not per
//     request) by the stable tuple key engine.Tuple.String — the same key
//     the materialized paths sort and deduplicate by — and split into N
//     contiguous, individually key-sorted shards;
//   - shard executors: one goroutine per shard scans its slice, evaluates
//     the translated source query and the branch residue filter inline per
//     tuple, and emits survivors through a bounded channel. Sends select on
//     the pipeline context, so backpressure never turns into a goroutine
//     leak: cancelling the context releases every blocked sender;
//   - merge: a k-way heap merge over the shard channels, keyed by
//     (tuple key, shard index). Because every shard stream is key-sorted,
//     the merged stream is globally key-sorted, and union deduplication
//     degenerates to skipping runs of equal keys — O(1) state instead of a
//     seen-set over the whole result.
//
// Determinism contract: for union-style integration the merged, deduplicated
// stream is byte-identical — content and order — to the relation
// mediator.ExecuteUnion materializes, because both orders are "sorted by
// engine.Tuple.String with one representative per key".
//
// Nothing imports the package any more: the serving layer answers every
// request on its fan-out (docs/performance.md §12), and the package is due
// for deletion together with the position window of engine.AccessPlan.Scan,
// which only its shard executors use.
package stream

import (
	"sort"

	"repro/internal/engine"
)

// DefaultBuffer is the per-shard channel capacity used when Options leaves
// Buffer unset. Together with the shard count it bounds the tuples a request
// can hold in flight: shards × (Buffer + 2) — one tuple may rest in a
// blocked sender's hand and one in the merge heap.
const DefaultBuffer = 64

// Entry is one streamed tuple together with its precomputed stable sort key
// (engine.Tuple.String). Keys are rendered once at presort time, so neither
// the shard executors nor the merge re-render tuples on the hot path.
type Entry struct {
	Key   string
	Tuple engine.Tuple
}

// Sorted is a source universe presorted by tuple key. It is built once per
// relation (Presort) and shared read-only by every request; splitting it
// into shards is a cheap slicing operation.
type Sorted struct {
	Name    string
	Entries []Entry

	rel *engine.Relation
}

// Presort renders and sorts rel's tuples by their stable key. The relation
// must not be mutated afterwards (the entries alias its tuples).
func Presort(rel *engine.Relation) *Sorted {
	entries := make([]Entry, len(rel.Tuples))
	for i, t := range rel.Tuples {
		entries[i] = Entry{Key: t.String(), Tuple: t}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	s := &Sorted{Name: rel.Name, Entries: entries}
	s.rel = &engine.Relation{Name: rel.Name, Tuples: make([]engine.Tuple, len(entries))}
	for i := range entries {
		s.rel.Tuples[i] = entries[i].Tuple
	}
	return s
}

// Relation returns the presorted universe as a relation snapshot: tuple i is
// Entries[i].Tuple. An engine.Access built over it speaks the same position
// space as the shard slices (Shard.Base + offset), which is what lets index
// probes reproduce each shard's key-sorted emission order exactly.
func (s *Sorted) Relation() *engine.Relation { return s.rel }

// Split cuts the sorted universe into n contiguous ranges of near-equal
// size. Each range is itself key-sorted, which is what lets a k-way merge
// of the per-shard streams reproduce the global sort order. n <= 1 returns
// the whole universe as one shard; equal keys may straddle a cut, which the
// merge's dedup handles.
func (s *Sorted) Split(n int) [][]Entry {
	if n <= 1 {
		return [][]Entry{s.Entries}
	}
	out := make([][]Entry, n)
	total := len(s.Entries)
	for i := 0; i < n; i++ {
		out[i] = s.Entries[i*total/n : (i+1)*total/n]
	}
	return out
}
