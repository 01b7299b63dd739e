package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/qtree"
	"repro/internal/sources"
	"repro/internal/workload"
)

// Input sizes. Every input is generated from the workload seed; the sizes
// are fixed so that two seeds give workloads of the same shape.
const (
	catalogBooks  = 500   // union-http catalog: mediatord's default size
	libraryPeople = 24    // join-library: T2 rows, and aubib rows of T1
	libraryPapers = 20    // join-library: paper rows of T1 (T1 = people × papers)
	perTemplate   = 8     // distinct query texts drawn per template
	zipfPool      = 20000 // translate-zipf distinct trees
	zipfS         = 1.1   // translate-zipf Zipf exponent
	zipfHot       = 1024  // translate-zipf hot set: the most popular ranks
	ringSize      = 16384 // requests pre-rendered per client (translate-zipf)
	uniformRing   = 4096  // requests pre-drawn per client (uniform workloads)
	seedCatalog   = 1     // sub-seed tags, so each input has its own stream
	seedQueries   = 2
	seedClients   = 3
	seedLibrary   = 4
	seedZipfPool  = 5
)

// subSeed derives an independent generator seed for one input from the
// workload seed.
func subSeed(seed int64, tag int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(tag)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x >> 1)
}

// request is one query a client sends: its text and the index of the
// distinct query it is an instance of (which names the oracle answer).
type request struct {
	text string
	id   int32
}

// template draws one query text from the data it will run against.
type template func(rng *rand.Rand) string

// drawPool draws up to perTemplate distinct texts from each template, in
// template order. A template whose parameter domain is smaller than
// perTemplate contributes every text it can produce.
func drawPool(rng *rand.Rand, templates []template) []string {
	var pool []string
	seen := make(map[string]bool)
	for _, t := range templates {
		got := 0
		for tries := 0; got < perTemplate && tries < 50*perTemplate; tries++ {
			s := t(rng)
			if !seen[s] {
				seen[s] = true
				pool = append(pool, s)
				got++
			}
		}
	}
	return pool
}

// epochRequests returns n requests that send the pool in a fresh random
// order, epoch after epoch: each query is equally likely at every step, and
// any stretch of the sequence sends every query equally often, give or take
// one, so the mix a run sends does not depend on the seed.
func epochRequests(rng *rand.Rand, pool []string, n int) []request {
	out := make([]request, 0, n)
	for len(out) < n {
		for _, id := range rng.Perm(len(pool)) {
			if len(out) == n {
				break
			}
			out = append(out, request{text: pool[id], id: int32(id)})
		}
	}
	return out
}

// clientRequests returns client c's request sequence over a pool; the
// sequence depends only on the seed and the client index.
func clientRequests(seed int64, c int, pool []string) []request {
	rng := rand.New(rand.NewSource(subSeed(seed, seedClients*1000+int64(c))))
	return epochRequests(rng, pool, uniformRing)
}

// bookTemplates are the union queries' eight shapes. Parameters come from
// randomly chosen catalog books, so every query has answers and its
// selectivity follows the data.
func bookTemplates(books []sources.Book) []template {
	book := func(rng *rand.Rand) sources.Book { return books[rng.Intn(len(books))] }
	named := func(rng *rand.Rand) sources.Book {
		for {
			if b := book(rng); b.Fn != "" {
				return b
			}
		}
	}
	// twoWords draws two different words of a book's title.
	twoWords := func(rng *rand.Rand) (string, string) {
		for {
			ws := strings.Fields(book(rng).Title)
			a, b := ws[rng.Intn(len(ws))], ws[rng.Intn(len(ws))]
			if a != b {
				return a, b
			}
		}
	}
	return []template{
		// author-pair
		func(rng *rand.Rand) string {
			b := named(rng)
			return fmt.Sprintf("[ln = %q] and [fn = %q]", b.Ln, b.Fn)
		},
		// year-month
		func(rng *rand.Rand) string {
			b := book(rng)
			return fmt.Sprintf("[pyear = %d] and [pmonth = %d]", b.Year, b.Month)
		},
		// year
		func(rng *rand.Rand) string {
			return fmt.Sprintf("[pyear = %d]", book(rng).Year)
		},
		// keyword
		func(rng *rand.Rand) string {
			// A book's first keyword is one of its title words.
			return fmt.Sprintf("[kwd contains %s]", book(rng).Keywords[0])
		},
		// near-title
		func(rng *rand.Rand) string {
			a, b := twoWords(rng)
			return fmt.Sprintf("[ti contains %s(near)%s]", a, b)
		},
		// publisher-year
		func(rng *rand.Rand) string {
			b := book(rng)
			return fmt.Sprintf("[publisher = %q] and [pyear = %d]", b.Publisher, b.Year)
		},
		// author-pair-or-keyword
		func(rng *rand.Rand) string {
			a, k := named(rng), book(rng)
			return fmt.Sprintf("([ln = %q] and [fn = %q]) or [kwd contains %s]", a.Ln, a.Fn, k.Keywords[0])
		},
		// publisher-or-year
		func(rng *rand.Rand) string {
			return fmt.Sprintf("[publisher = %q] or [pyear = %d]", book(rng).Publisher, book(rng).Year)
		},
	}
}

// Example 3's library domains, as sources.GenLibrary draws them.
var (
	libLastNames  = []string{"Ullman", "Garcia", "Chang", "Widom", "Motwani", "Aiken", "Smith"}
	libFirstNames = []string{"Jeff", "Hector", "Kevin", "Jennifer", "Rajeev", "Alex", "Ann"}
	libTopics     = []string{"data mining", "query optimization", "web search", "data integration", "stream processing", "information retrieval"}
	libDepts      = []string{"cs", "ee", "math"}
)

// deck deals the values 0..n-1 in a fresh random order, deck after deck,
// so any stretch of deals holds each value equally often, give or take one.
type deck struct {
	rng   *rand.Rand
	n     int
	cards []int
}

func (d *deck) deal() int {
	if len(d.cards) == 0 {
		d.cards = d.rng.Perm(d.n)
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

// genLibrary generates join-library's people and papers. Unlike
// sources.GenLibrary, which draws every attribute independently, it deals
// them from decks: each dept, number of topics and topic occurs equally
// often, names are distinct, and each person writes the same number of
// papers, give or take one; the seed decides who gets what. At this size
// independent draws would move the join's work by a third from seed to
// seed.
func genLibrary(rng *rand.Rand, nPeople, nPapers int) ([]sources.Person, []sources.Paper) {
	names := rng.Perm(len(libLastNames) * len(libFirstNames))
	depts := &deck{rng: rng, n: len(libDepts)}
	counts := &deck{rng: rng, n: 3}
	topics := &deck{rng: rng, n: len(libTopics)}
	people := make([]sources.Person, nPeople)
	for i := range people {
		ts := make([]string, 1+counts.deal())
		for j := range ts {
			ts[j] = libTopics[topics.deal()]
		}
		people[i] = sources.Person{
			Ln:   libLastNames[names[i]/len(libFirstNames)],
			Fn:   libFirstNames[names[i]%len(libFirstNames)],
			Dept: libDepts[depts.deal()],
			Bib:  "research on " + strings.Join(ts, " and "),
		}
	}
	authors := &deck{rng: rng, n: nPeople}
	papers := make([]sources.Paper, nPapers)
	for i := range papers {
		p := people[authors.deal()]
		papers[i] = sources.Paper{Title: "a study of " + libTopics[topics.deal()], Ln: p.Ln, Fn: p.Fn}
	}
	return people, papers
}

// libraryTemplates are join-library's query shapes over Example 3's views,
// mixing fac.dept, fac.ln, fac.bib contains, pub.ln and pub.ti contains.
// Parameters come from the generated people and papers.
func libraryTemplates(people []sources.Person, papers []sources.Paper) []template {
	person := func(rng *rand.Rand) sources.Person { return people[rng.Intn(len(people))] }
	paper := func(rng *rand.Rand) sources.Paper { return papers[rng.Intn(len(papers))] }
	topic := func(rng *rand.Rand) string {
		// Bib is "research on <topic> and <topic> ...", topics two words each.
		ts := strings.Split(strings.TrimPrefix(person(rng).Bib, "research on "), " and ")
		return ts[rng.Intn(len(ts))]
	}
	near := func(t string) string { return strings.Replace(t, " ", "(near)", 1) }
	lastWord := func(s string) string { ws := strings.Fields(s); return ws[len(ws)-1] }
	return []template{
		// dept-bib
		func(rng *rand.Rand) string {
			return fmt.Sprintf("[fac.dept = %s] and [fac.bib contains %s]", person(rng).Dept, near(topic(rng)))
		},
		// ln-dept
		func(rng *rand.Rand) string {
			p := person(rng)
			return fmt.Sprintf("[fac.ln = %q] and [fac.dept = %s]", p.Ln, p.Dept)
		},
		// publn-dept
		func(rng *rand.Rand) string {
			return fmt.Sprintf("[pub.ln = %q] and [fac.dept = %s]", paper(rng).Ln, person(rng).Dept)
		},
		// bib-title
		func(rng *rand.Rand) string {
			return fmt.Sprintf("[fac.bib contains %s] and [pub.ti contains %s]", lastWord(topic(rng)), lastWord(paper(rng).Title))
		},
		// example3
		func(rng *rand.Rand) string {
			return fmt.Sprintf("[fac.ln = pub.ln] and [fac.fn = pub.fn] and [fac.bib contains %s] and [fac.dept = %s]",
				near(topic(rng)), person(rng).Dept)
		},
		// dept-or-title
		func(rng *rand.Rand) string {
			d := slices.Index(libDepts, person(rng).Dept)
			other := libDepts[(d+1+rng.Intn(len(libDepts)-1))%len(libDepts)]
			return fmt.Sprintf("([fac.dept = %s] or [fac.dept = %s]) and [pub.ti contains %s]",
				libDepts[d], other, lastWord(paper(rng).Title))
		},
	}
}

// zipfTrees draws translate-zipf's pool: n distinct (by canonical key)
// random trees of the given depth over the scenario's base attributes.
func zipfTrees(rng *rand.Rand, sc *workload.Scenario, n int) []*qtree.Node {
	cfg := workload.QueryConfig{MaxDepth: 3, MaxFanout: 3, LeafProb: 0.3}
	out := make([]*qtree.Node, 0, n)
	seen := make(map[string]bool, n)
	for len(out) < n {
		q := sc.RandomQuery(rng, cfg)
		if k := q.CanonicalKey(); !seen[k] {
			seen[k] = true
			out = append(out, q)
		}
	}
	return out
}

// bySizeQuantile reorders trees for Zipf ranking: rank r gets the tree at
// size quantile frac(r/φ) of the pool, a low-discrepancy walk, so any run of
// top ranks has the pool's mix of tree sizes on every seed. Without it the
// few trees that draw most of the traffic would set the hit-path latency by
// their sizes alone, and that would change from seed to seed.
func bySizeQuantile(trees []*qtree.Node) []*qtree.Node {
	sorted := append([]*qtree.Node(nil), trees...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Size() < sorted[j].Size() })
	n := len(sorted)
	stride := int(float64(n) * (math.Sqrt(5) - 1) / 2)
	for gcd(stride, n) != 1 {
		stride++
	}
	out := make([]*qtree.Node, n)
	for r := range out {
		out[r] = sorted[r*stride%n]
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// permuted returns a copy of q with the children of every ∧/∨ node in a
// random order: the same canonical query with a fresh exact shape.
func permuted(rng *rand.Rand, q *qtree.Node) *qtree.Node {
	if len(q.Kids) == 0 {
		return q
	}
	kids := make([]*qtree.Node, len(q.Kids))
	for i, j := range rng.Perm(len(q.Kids)) {
		kids[i] = permuted(rng, q.Kids[j])
	}
	return &qtree.Node{Kind: q.Kind, Kids: kids}
}

// zipfRequests renders client c's ring of translate-zipf requests: ranks
// drawn Zipf(zipfS) over the pool, each rendered with its children freshly
// permuted.
func zipfRequests(seed int64, c int, trees []*qtree.Node, n int) []request {
	rng := rand.New(rand.NewSource(subSeed(seed, seedClients*1000+int64(c))))
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(trees)-1))
	out := make([]request, n)
	for i := range out {
		id := z.Uint64()
		out[i] = request{text: permuted(rng, trees[id]).String(), id: int32(id)}
	}
	return out
}
