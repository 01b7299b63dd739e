package main

import (
	"fmt"
	"io"
	"time"
)

// traceRounds is how many times the traced run alternates its modes.
const traceRounds = 4

// perLayer is the traced run. On the same inputs and clients it alternates
// an untraced slice, whose counters give the ratios and whose median
// latency is the baseline, with a traced slice, whose spans give the layer
// times. union-http adds a third slice against the daemon; its in-process
// slices run the union stack (unionBooks) at identical inputs and client
// count, for the layers below the daemon and as the baseline of
// mediatord.overhead_ms.
// The slices share --seconds, and alternating them in rounds lets a change
// in the host's speed during the run hit every mode alike.
func perLayer(o options, w io.Writer, res *result) error {
	inproc, modes := o.workload, 2
	if inproc == unionHTTP {
		inproc, modes = unionBooks, 3
	}
	slice := time.Duration(o.seconds * float64(time.Second) / float64(traceRounds*modes))
	clients := workloadClients[o.workload]
	s, err := start(o, inproc, clients, w, tracingExecutor, false)
	if err != nil {
		return err
	}
	defer s.b.drop()
	var h *steady
	if o.workload == unionHTTP {
		if h, err = start(o, unionHTTP, clients, w, nil, false); err != nil {
			return err
		}
		defer h.b.drop()
	}
	a, b, d := &measured{phase: &phase{}}, &measured{phase: &phase{}}, &measured{phase: &phase{}}
	for r := 0; r < traceRounds; r++ {
		if err := a.run(s, slice, false); err != nil {
			return err
		}
		if err := b.run(s, slice, true); err != nil {
			return err
		}
		if h != nil {
			if err := d.run(h, slice, false); err != nil {
				return err
			}
		}
	}
	s.b.drop()
	res.count(a.phase)
	res.count(b.phase)
	held := describe(w, inproc, a) && (inproc == translateZipf || allHit(b.counters))
	if err := writeSpans(o.spans, b.traces); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(w, "spans: %s\n", o.spans)

	l := summarize(b.traces)
	untraced, _ := a.latencyMs(50)
	traced, _ := b.latencyMs(50)
	fmt.Fprintf(w, "traced requests: %d (%d translation misses); untraced p50 %.4f ms, traced p50 %.4f ms\n",
		l.requests, l.misses, untraced, traced)
	res.add("mediatord.overhead_ms", 0, "ms")
	res.add("mediatord.response_bytes", 0, "bytes")
	res.add("qparse.parse_us", median(l.parse), "us")
	res.add("qtree.canonical_key_us", median(l.key), "us")
	res.add("serve.translate_hit_us", median(l.hit), "us")
	res.add("serve.translate_miss_us", median(l.miss), "us")
	res.add("core.rule_attempts_per_miss", ratio(float64(l.ruleAttempts), float64(l.misses)), "count")
	res.add("core.product_terms_per_miss", ratio(float64(l.productTerms), float64(l.misses)), "count")
	res.add("engine.select_us", median(l.selectSum), "us")
	res.add("engine.select_critical_us", median(l.selectCrit), "us")
	res.add("engine.selected_tuples_per_req", ratio(l.selected, float64(l.requests)), "count")
	res.add("serve.fanout_wait_us", median(l.fanoutWait), "us")
	res.add("serve.query_self_us", median(l.querySelf), "us")
	answerYield, joinYield := 0.0, 0.0
	if inproc == joinLibrary {
		joinYield = ratio(l.answers, l.joinWork)
	} else if l.selected > 0 {
		answerYield = ratio(l.answers, l.selected)
	}
	res.add("serve.answer_yield", answerYield, "ratio")
	res.add("serve.join_yield", joinYield, "ratio")
	res.add("trace.unaccounted_us", untraced*1e3-median(l.accounted), "us")
	res.add("trace.overhead_pct", 100*(traced/untraced-1), "%")
	counted := a
	if h != nil {
		res.count(d.phase)
		held = describe(w, unionHTTP, d) && held
		viaHTTP, _ := d.latencyMs(50)
		res.add("mediatord.overhead_ms", viaHTTP-untraced, "ms")
		res.add("mediatord.response_bytes", ratio(d.responseBytes, float64(d.completed())), "bytes")
		counted = d
	}
	c, u, n := counted.counters, counted.use, float64(counted.completed())
	res.add("serve.cache_hit_ratio", ratio(float64(c.hits), c.lookups()), "ratio")
	res.add("core.plan_hit_ratio", ratio(float64(c.planHits), float64(c.planHits+c.planMisses)), "ratio")
	res.add("core.matchcache_hit_ratio", ratio(float64(c.matchHits), float64(c.matchHits+c.matchMisses)), "ratio")
	res.add("runtime.gc_cpu_share", ratio(u.gcCPU, u.cpu.Seconds()), "ratio")
	res.add("runtime.gc_cycles_per_req", ratio(float64(u.gcCycles), n), "count")
	res.Correct = held && res.Failed == 0
	res.print(w)
	return nil
}
