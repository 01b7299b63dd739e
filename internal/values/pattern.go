package values

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"repro/internal/qtree"
)

// PatOp is a text-pattern connective.
type PatOp int

const (
	// PatWord is a single keyword.
	PatWord PatOp = iota
	// PatAnd requires all sub-patterns to occur.
	PatAnd
	// PatOr requires some sub-pattern to occur.
	PatOr
	// PatNear requires all sub-patterns to occur within NearWindow words of
	// each other (the paper's proximity operator, e.g. data(near)mining).
	PatNear
)

// NearWindow is the proximity window, in words, of the (near) connective.
const NearWindow = 5

// Pattern is an IR text-pattern value, e.g. java(near)jdk or
// data(∧)mining. It appears as the constant of contains constraints.
type Pattern struct {
	Op   PatOp
	Word string     // for PatWord
	Subs []*Pattern // for connectives
}

// Word returns a single-keyword pattern.
func Word(w string) *Pattern { return &Pattern{Op: PatWord, Word: w} }

// PatternAnd returns the conjunction of sub-patterns.
func PatternAnd(subs ...*Pattern) *Pattern { return &Pattern{Op: PatAnd, Subs: subs} }

// PatternOr returns the disjunction of sub-patterns.
func PatternOr(subs ...*Pattern) *Pattern { return &Pattern{Op: PatOr, Subs: subs} }

// PatternNear returns the proximity combination of sub-patterns.
func PatternNear(subs ...*Pattern) *Pattern { return &Pattern{Op: PatNear, Subs: subs} }

// Kind implements qtree.Value.
func (*Pattern) Kind() string { return "pattern" }

// String renders in the paper's inline syntax: w1(near)w2, w1(^)w2, w1(v)w2.
func (p *Pattern) String() string {
	switch p.Op {
	case PatWord:
		return p.Word
	case PatAnd, PatOr, PatNear:
		conn := map[PatOp]string{PatAnd: "(^)", PatOr: "(v)", PatNear: "(near)"}[p.Op]
		parts := make([]string, len(p.Subs))
		for i, s := range p.Subs {
			parts[i] = s.String()
		}
		return strings.Join(parts, conn)
	default:
		return fmt.Sprintf("<pattern op %d>", int(p.Op))
	}
}

// Equal implements qtree.Value.
func (p *Pattern) Equal(v qtree.Value) bool {
	q, ok := v.(*Pattern)
	if !ok || p.Op != q.Op || p.Word != q.Word || len(p.Subs) != len(q.Subs) {
		return false
	}
	for i := range p.Subs {
		if !p.Subs[i].Equal(q.Subs[i]) {
			return false
		}
	}
	return true
}

// Words returns every keyword occurring in the pattern.
func (p *Pattern) Words() []string {
	var out []string
	var walk func(*Pattern)
	walk = func(q *Pattern) {
		if q.Op == PatWord {
			out = append(out, q.Word)
			return
		}
		for _, s := range q.Subs {
			walk(s)
		}
	}
	walk(p)
	return out
}

// HasNear reports whether the pattern uses the proximity connective.
func (p *Pattern) HasNear() bool {
	if p.Op == PatNear {
		return true
	}
	for _, s := range p.Subs {
		if s.HasNear() {
			return true
		}
	}
	return false
}

// Match evaluates the pattern against a text, tokenized on non-letter/digit
// boundaries and compared case-insensitively. Only (near) needs token
// positions; patterns without it compare each keyword with the text's
// tokens in place, without tokenizing or allocating.
func (p *Pattern) Match(text string) bool {
	if p.HasNear() {
		return p.matchTokens(text)
	}
	return p.matchInPlace(text)
}

// matchTokens evaluates the pattern over the positions of Tokenize(text).
func (p *Pattern) matchTokens(text string) bool {
	toks := Tokenize(text)
	pos := make(map[string][]int)
	for i, t := range toks {
		pos[t] = append(pos[t], i)
	}
	return p.match(pos)
}

// matchInPlace evaluates a pattern without (near) by scanning the text once
// per keyword.
func (p *Pattern) matchInPlace(text string) bool {
	switch p.Op {
	case PatWord:
		return hasToken(text, p.Word)
	case PatAnd:
		for _, s := range p.Subs {
			if !s.matchInPlace(text) {
				return false
			}
		}
		return true
	case PatOr:
		for _, s := range p.Subs {
			if s.matchInPlace(text) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// hasToken reports whether strings.ToLower(word) is one of Tokenize(text).
// Tokens are maximal runs of ASCII letters and digits, so the lowered word
// must be such a run too; it is compared with each of the text's runs
// ignoring ASCII case. An ASCII word is folded the same way instead of
// lowered, which is what strings.ToLower would do to it.
func hasToken(text, word string) bool {
	for i := 0; i < len(word); i++ {
		if word[i] >= utf8.RuneSelf {
			word = strings.ToLower(word)
			break
		}
	}
	if word == "" {
		return false
	}
	for i := 0; i < len(word); i++ {
		if !isTokenByte(word[i]) {
			return false
		}
	}
	for i := 0; i < len(text); {
		if !isTokenByte(text[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(text) && isTokenByte(text[j]) {
			j++
		}
		if j-i == len(word) && equalFoldASCII(text[i:j], word) {
			return true
		}
		i = j
	}
	return false
}

// isTokenByte reports whether c is an ASCII letter or digit, the only
// bytes a token holds.
func isTokenByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// equalFoldASCII compares two equal-length runs of letters and digits
// ignoring case.
func equalFoldASCII(a, b string) bool {
	for i := 0; i < len(a); i++ {
		if a[i]|0x20 != b[i]|0x20 {
			return false
		}
	}
	return true
}

func (p *Pattern) match(pos map[string][]int) bool {
	switch p.Op {
	case PatWord:
		return len(pos[strings.ToLower(p.Word)]) > 0
	case PatAnd:
		for _, s := range p.Subs {
			if !s.match(pos) {
				return false
			}
		}
		return true
	case PatOr:
		for _, s := range p.Subs {
			if s.match(pos) {
				return true
			}
		}
		return false
	case PatNear:
		// All sub-patterns must match, and for word leaves there must be an
		// occurrence assignment within the proximity window. For composite
		// sub-patterns we approximate by requiring each to match (the paper
		// only nears words).
		var spans [][]int
		for _, s := range p.Subs {
			if !s.match(pos) {
				return false
			}
			if s.Op == PatWord {
				spans = append(spans, pos[strings.ToLower(s.Word)])
			}
		}
		return withinWindow(spans, NearWindow)
	default:
		return false
	}
}

// withinWindow reports whether one position can be chosen from every list
// such that max−min ≤ window. The lists are small; exhaustive search with
// pruning is adequate.
func withinWindow(lists [][]int, window int) bool {
	if len(lists) <= 1 {
		return true
	}
	var rec func(i, lo, hi int) bool
	rec = func(i, lo, hi int) bool {
		if hi-lo > window {
			return false
		}
		if i == len(lists) {
			return true
		}
		for _, p := range lists[i] {
			nlo, nhi := lo, hi
			if p < nlo {
				nlo = p
			}
			if p > nhi {
				nhi = p
			}
			if rec(i+1, nlo, nhi) {
				return true
			}
		}
		return false
	}
	for _, p := range lists[0] {
		if rec(1, p, p) {
			return true
		}
	}
	return false
}

// Tokenize splits text into lowercase word tokens.
func Tokenize(text string) []string {
	f := func(r rune) bool { return r >= utf8.RuneSelf || !isTokenByte(byte(r)) }
	raw := strings.FieldsFunc(text, f)
	out := make([]string, len(raw))
	for i, t := range raw {
		out[i] = strings.ToLower(t)
	}
	return out
}

// RewriteNoNear rewrites the pattern for targets without the proximity
// operator by relaxing every (near) into (∧) — the semantic relaxation of
// Example 3 and rule R4 of Figure 3. The result subsumes the original:
// keyword co-occurrence is implied by proximity.
func (p *Pattern) RewriteNoNear() *Pattern {
	if p.Op == PatWord {
		return p
	}
	subs := make([]*Pattern, len(p.Subs))
	for i, s := range p.Subs {
		subs[i] = s.RewriteNoNear()
	}
	op := p.Op
	if op == PatNear {
		op = PatAnd
	}
	return &Pattern{Op: op, Subs: subs}
}

// RewriteWordsOnly flattens the pattern into a conjunction of its keywords —
// the weakest Boolean relaxation, for targets that support only single-word
// containment. OR sub-patterns are dropped entirely (any disjunction is
// subsumed by True; keeping one branch would not subsume).
func (p *Pattern) RewriteWordsOnly() []*Pattern {
	switch p.Op {
	case PatWord:
		return []*Pattern{p}
	case PatAnd, PatNear:
		var out []*Pattern
		for _, s := range p.Subs {
			out = append(out, s.RewriteWordsOnly()...)
		}
		return out
	default: // PatOr: cannot relax to a conjunction of required words
		return nil
	}
}

// ParsePattern parses the inline pattern syntax used by the paper:
// words joined by (near), (^) or (v), with no precedence mixing — a single
// connective per pattern, e.g. "java(near)jdk", "data(^)mining", "www".
func ParsePattern(s string) (*Pattern, error) {
	for _, conn := range []struct {
		tok string
		op  PatOp
	}{{"(near)", PatNear}, {"(^)", PatAnd}, {"(v)", PatOr}} {
		if strings.Contains(s, conn.tok) {
			parts := strings.Split(s, conn.tok)
			subs := make([]*Pattern, 0, len(parts))
			for _, w := range parts {
				w = strings.TrimSpace(w)
				if w == "" {
					return nil, fmt.Errorf("values: empty word in pattern %q", s)
				}
				if strings.ContainsAny(w, "()") {
					return nil, fmt.Errorf("values: mixed connectives in pattern %q", s)
				}
				subs = append(subs, Word(w))
			}
			return &Pattern{Op: conn.op, Subs: subs}, nil
		}
	}
	w := strings.TrimSpace(s)
	if w == "" {
		return nil, fmt.Errorf("values: empty pattern")
	}
	return Word(w), nil
}
