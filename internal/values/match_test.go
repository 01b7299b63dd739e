package values

import (
	"testing"
)

// FuzzPatternMatch holds the in-place keyword path of Match to the
// token-position path over patterns without (near), which are the ones
// Match no longer tokenizes for.
func FuzzPatternMatch(f *testing.F) {
	f.Add("Java Programming with the JDK, 2nd edition", "jdk", "Java", uint8(0))
	f.Add("naïve data-mining: 3D/4d mod\xffels", "mining", "4D", uint8(1))
	f.Add("café au lait", "caf", "é", uint8(2))
	f.Add("Kelvin k K", "K", "K", uint8(3))               // ToLower("K") is the ASCII "k"
	f.Add("İstanbul istanbul", "İstanbul", "i", uint8(4)) // ToLower("İ") is not ASCII
	f.Add("C++ and c", "c++", "", uint8(5))
	f.Add("", "a", "-", uint8(6))
	f.Add("x1y2 x 1 y2 007", "007", "x1y2", uint8(7))
	f.Fuzz(func(t *testing.T, text, w1, w2 string, shape uint8) {
		a, b := Word(w1), Word(w2)
		pats := []*Pattern{
			a,
			PatternAnd(a, b),
			PatternOr(a, b),
			PatternAnd(PatternOr(a, Word("data")), b),
			PatternOr(PatternAnd(a, b), Word(text)),
		}
		p := pats[int(shape)%len(pats)]
		if got, want := p.Match(text), p.matchTokens(text); got != want {
			t.Fatalf("%q.Match(%q) = %v, token-position path = %v", p.String(), text, got, want)
		}
	})
}

func TestPatternMatchAllocs(t *testing.T) {
	text := "Data Mining and Knowledge Discovery, 2nd edition"
	pats := []*Pattern{
		Word("mining"),
		Word("DATA"),
		PatternAnd(Word("data"), Word("Knowledge")),
		PatternOr(Word("java"), Word("edition")),
	}
	for _, p := range pats {
		if !p.Match(text) {
			t.Fatalf("%s does not match %q", p, text)
		}
		if got := testing.AllocsPerRun(100, func() { _ = p.Match(text) }); got != 0 {
			t.Errorf("%s.Match allocates %v times per run, want 0", p, got)
		}
	}
}
