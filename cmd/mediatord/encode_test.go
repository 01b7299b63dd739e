package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/engine"
	"repro/internal/qparse"
	"repro/internal/values"
)

// queryResultJSON is the /query response shape.
type queryResultJSON struct {
	Query       string              `json:"query"`
	Answers     []map[string]string `json:"answers"`
	AnswerCount int                 `json:"answer_count"`
}

// referenceQueryJSON is how /query encoded its response before
// appendQueryJSON: a map per answer, through json.Encoder with
// SetIndent("", "  "). appendQueryJSON must write the same bytes.
func referenceQueryJSON(t testing.TB, query string, answers []engine.Tuple) []byte {
	out := queryResultJSON{Query: query, AnswerCount: len(answers)}
	for _, tup := range answers {
		row := make(map[string]string)
		for _, attr := range []string{"ti", "author", "publisher", "id-no"} {
			if v, ok := tup[attr]; ok {
				row[attr] = v.String()
			}
		}
		out.Answers = append(out.Answers, row)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkQueryJSON(t testing.TB, query string, answers []engine.Tuple) {
	t.Helper()
	got := appendQueryJSON(nil, query, answers)
	if want := referenceQueryJSON(t, query, answers); !bytes.Equal(got, want) {
		t.Fatalf("appendQueryJSON:\n%s\nencoding/json:\n%s", got, want)
	}
}

// awkward holds strings encoding/json escapes: HTML-sensitive bytes,
// quotes and backslashes, every kind of control byte, U+2028/U+2029,
// invalid UTF-8, a valid U+FFFD, and DEL.
var awkward = []string{
	``,
	`<script>&amp;"x"\y</script>`,
	"tab\there\nnew\rline\b\f\x00\x01\x1f\x7f",
	"line\u2028para\u2029end",
	"bad\xffutf8\xc3\x28 \xe2\x82 \xf0\x9f\x98",
	"ok \ufffd \u00e9 \u65e5\u672c \U0001F600",
}

func TestAppendQueryJSONMatchesEncoder(t *testing.T) {
	book := engine.Tuple{
		"ti":        values.String("java jdk"),
		"author":    values.String("Clancy, Tom"),
		"publisher": values.String("oreilly"),
		"id-no":     values.String("123456789X"),
		"pyear":     values.Int(1997),
	}
	cases := []struct {
		name    string
		query   string
		answers []engine.Tuple
	}{
		{"no answers", `[ln = "Nobody"]`, nil},
		{"empty slice", `[ln = "Nobody"]`, []engine.Tuple{}},
		{"full row", `[ln = "Clancy"]`, []engine.Tuple{book}},
		{"rows missing attributes", `[x = 1]`, []engine.Tuple{
			{"ti": values.String("only a title")},
			{"author": values.String("a"), "id-no": values.String("b")},
			{"publisher": values.String("p"), "ti": values.String("t"), "pyear": values.Int(1)},
		}},
		{"row with none", `[x = 1]`, []engine.Tuple{{}, {"pyear": values.Int(1)}, book, nil}},
		{"other kinds", `[x = 1]`, []engine.Tuple{{
			"ti":        values.Int(-42),
			"author":    values.Date{Year: 1997, Month: 5},
			"publisher": values.Float(2.5),
		}}},
	}
	for _, s := range awkward {
		cases = append(cases, struct {
			name    string
			query   string
			answers []engine.Tuple
		}{"awkward " + s, s, []engine.Tuple{{"ti": values.String(s), "id-no": values.String(s + s)}}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkQueryJSON(t, c.query, c.answers) })
	}
}

// TestHandleQueryJSONBytes: a /query round trip over HTTP returns the
// reference encoding of the server's answers, byte for byte, with the JSON
// content type, for a query with answers and one without.
func TestHandleQueryJSONBytes(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()
	for _, text := range []string{
		`[publisher = "oreilly"] or ([ln = "Clancy"] and [fn = "Tom"])`,
		`[ln = "Nobody"] and [ti contains "<b>&amp;"]`,
	} {
		resp, err := ts.Client().Get(ts.URL + "/query?q=" + url.QueryEscape(text))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, content type %q: %s", text, resp.StatusCode, resp.Header.Get("Content-Type"), body)
		}
		q := qparse.MustParse(text)
		result, err := s.svc.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceQueryJSON(t, q.String(), result.Tuples); !bytes.Equal(body, want) {
			t.Fatalf("%s: /query wrote\n%s\nreference:\n%s", text, body, want)
		}
	}
}

// FuzzQueryJSON compares appendQueryJSON with the encoding/json reference
// over arbitrary query text and attribute values; present selects which of
// the four attributes the second answer carries.
func FuzzQueryJSON(f *testing.F) {
	for i, s := range awkward {
		f.Add(s, s+"x", uint8(i))
	}
	f.Add(`[ti contains "<a>"]`, "\x00 \xff", uint8(15))
	f.Fuzz(func(t *testing.T, query, value string, present uint8) {
		second := engine.Tuple{"pyear": values.Int(int64(present))}
		for i, attr := range answerAttrs {
			if present&(1<<i) != 0 {
				second[attr] = values.String(value)
			}
		}
		answers := []engine.Tuple{{"ti": values.String(value), "author": values.String(query)}, second}
		checkQueryJSON(t, query, answers)
		checkQueryJSON(t, value, nil)
	})
}
