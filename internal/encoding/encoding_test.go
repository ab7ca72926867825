package encoding

import (
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"stackless/internal/tree"
)

func drain(t *testing.T, src Source) []Event {
	t.Helper()
	var out []Event
	for {
		e, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("source error: %v", err)
		}
		out = append(out, e)
	}
}

func TestMarkupEventsPaperExample(t *testing.T) {
	// Section 2: aaācc̄ā encodes the tree a(a,c).
	n := tree.MustParse("a(a,c)")
	got := Markup(n)
	want := []Event{{Open, "a"}, {Open, "a"}, {Close, "a"}, {Open, "c"}, {Close, "c"}, {Close, "a"}}
	if len(got) != len(want) {
		t.Fatalf("Markup = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Markup[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTermEventsPaperExample(t *testing.T) {
	// Section 4.2: a{b{a{}a{}}c{}} for the tree whose markup is abaāaāb̄cc̄ā.
	n := tree.MustParse("a(b(a,a),c)")
	if got := TermString(n); got != "a{b{a{}a{}}c{}}" {
		t.Errorf("TermString = %q", got)
	}
	ev := Term(n)
	opens, closesWithLabel := 0, 0
	for _, e := range ev {
		if e.Kind == Open {
			opens++
		} else if e.Label != "" {
			closesWithLabel++
		}
	}
	if opens != 5 || closesWithLabel != 0 {
		t.Errorf("Term events malformed: %v", ev)
	}
}

func randomTree(rng *rand.Rand, budget int) *tree.Node {
	labels := []string{"a", "b", "c", "item", "x"}
	n := tree.New(labels[rng.Intn(len(labels))])
	budget--
	for budget > 0 && rng.Intn(3) != 0 {
		sub := 1 + rng.Intn(budget)
		n.Children = append(n.Children, randomTree(rng, sub))
		budget -= sub
	}
	return n
}

func TestRoundTripsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomTree(rng, 1+rng.Intn(40))
		// markup events
		if back, err := Decode(NewSliceSource(Markup(n))); err != nil || !back.Equal(n) {
			return false
		}
		// term events
		if back, err := Decode(NewSliceSource(Term(n))); err != nil || !back.Equal(n) {
			return false
		}
		// XML text through the hand-rolled scanner
		if back, err := ParseXML(XMLString(n)); err != nil || !back.Equal(n) {
			return false
		}
		// term text
		if back, err := ParseTerm(TermString(n)); err != nil || !back.Equal(n) {
			return false
		}
		// encoding/xml bridge
		if back, err := Decode(NewStdXMLSource(strings.NewReader(XMLString(n)))); err != nil || !back.Equal(n) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	bad := [][]Event{
		{},
		{{Close, "a"}},
		{{Open, "a"}},
		{{Open, "a"}, {Close, "b"}},
		{{Open, "a"}, {Close, "a"}, {Open, "b"}, {Close, "b"}}, // two roots
		{{Open, "a"}, {Close, "a"}, {Close, "a"}},
	}
	for i, ev := range bad {
		if _, err := Decode(NewSliceSource(ev)); err == nil {
			t.Errorf("case %d: expected malformed error for %v", i, ev)
		}
	}
	if !IsWellFormedMarkup(Markup(tree.MustParse("a(b)"))) {
		t.Error("well-formed encoding rejected")
	}
}

func TestXMLScannerSkipsNoise(t *testing.T) {
	doc := `<?xml version="1.0"?>
<!-- a comment -->
<catalog kind="test">
  text to skip
  <item id="1"><name/></item>
  <item id='2'/>
</catalog>`
	n, err := Decode(NewXMLScanner(strings.NewReader(doc)))
	if err != nil {
		t.Fatal(err)
	}
	want := tree.MustParse("catalog(item(name),item)")
	if !n.Equal(want) {
		t.Errorf("scanned %s, want %s", n, want)
	}
}

func TestXMLScannerAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		n := randomTree(rng, 1+rng.Intn(30))
		doc := XMLString(n)
		fast := drain(t, NewXMLScanner(strings.NewReader(doc)))
		std := drain(t, NewStdXMLSource(strings.NewReader(doc)))
		if len(fast) != len(std) {
			t.Fatalf("event count differs: %d vs %d on %s", len(fast), len(std), doc)
		}
		for j := range fast {
			if fast[j] != std[j] {
				t.Fatalf("event %d differs: %v vs %v", j, fast[j], std[j])
			}
		}
	}
}

func TestJSONSourceMapping(t *testing.T) {
	huge := strings.Repeat("x", 1<<20)
	cases := []struct {
		json string
		want string
	}{
		{`{"a": 1}`, "'$'(a)"},
		{`{"a": {"b": 1, "c": [2, 3]}}`, "'$'(a(b,c(item,item)))"},
		{`[1, [2], {"k": 3}]`, "'$'(item,item(item),item(k))"},
		{`42`, "'$'(value)"},
		{`{"store":{"book":[{"title":1},{"title":2}]}}`,
			"'$'(store(book(item(title),item(title))))"},
		// Numbers are checked by the grammar, never converted.
		{`1e400`, "'$'(value)"},
		{`-0.5e+3`, "'$'(value)"},
		{`{"a":1e400,"b":[-0.5e+3]}`, "'$'(a,b(item))"},
		// Escaped keys are decoded as encoding/json decodes them.
		{`{"a\/b":1,"\u0073ku":2}`, "'$'('a/b',sku)"},
		{"{\"\\ud83d\\ude00\":1,\"\\ud800\":2,\"\xff\":3}", "'$'('\U0001f600','\ufffd','\ufffd')"},
		// Duplicate keys are separate nodes.
		{`{"a":1,"a":{"a":2}}`, "'$'(a,a(a))"},
		// Whitespace between every token.
		{" \t\r\n{ \n\"a\" \t: [ 1 , { \"b\" : null } ,\"s\" ] , \"c\"\r:\rtrue } \n", "'$'(a(item,item(b),item),c)"},
		// A 1 MiB string value streams through the 64 KiB window.
		{`{"a":"` + huge + `","b":[` + `"` + huge + `"]}`, "'$'(a,b(item))"},
	}
	for _, c := range cases {
		n, err := Decode(NewJSONSource(strings.NewReader(c.json)))
		if err != nil {
			t.Fatalf("%.60s: %v", c.json, err)
		}
		if got := n.String(); got != c.want {
			t.Errorf("JSON %.60s → %s, want %s", c.json, got, c.want)
		}
	}
}

func TestJSONSourceErrors(t *testing.T) {
	for _, doc := range []string{`{"a":`, `{`, `[1,`} {
		if _, err := Decode(NewJSONSource(strings.NewReader(doc))); err == nil {
			t.Errorf("expected error for truncated JSON %q", doc)
		}
	}
}

// TestJSONSourceTruncationTyped cuts an order-shaped document at every byte:
// each strict prefix must fail with ErrMalformed, and a cut inside a token
// (a string, a number, a literal) also wraps io.ErrUnexpectedEOF, as
// encoding/json reports it.
func TestJSONSourceTruncationTyped(t *testing.T) {
	doc := `{"id":1042,"customer":{"name":"Ada L","tier":"gold"},"items":[{"sku":"A-17","qty":2},{"sku":"B-3","qty":1}],"paid":true}`
	if _, err := ReadAll(CheckBalance(NewJSONSource(strings.NewReader(doc)))); err != nil {
		t.Fatalf("whole document: %v", err)
	}
	insideToken := 0
	for n := 0; n < len(doc); n++ {
		_, err := ReadAll(CheckBalance(NewJSONSource(strings.NewReader(doc[:n]))))
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("prefix %d %q: error %v, want ErrMalformed", n, doc[:n], err)
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			insideToken++
		}
	}
	if insideToken == 0 {
		t.Error("no prefix ended inside a token; the test no longer covers the tokenizer's errors")
	}
}

func TestEventString(t *testing.T) {
	if (Event{Open, "a"}).String() != "a" {
		t.Error("open rendering")
	}
	if (Event{Close, "a"}).String() != "ā" && (Event{Close, "a"}).String() != "ā" {
		t.Errorf("close rendering: %q", Event{Close, "a"})
	}
	if (Event{Kind: Close}).String() != "◁" {
		t.Error("term close rendering")
	}
}

func TestXMLScannerCommentsAndCDATA(t *testing.T) {
	doc := `<a><!-- a > tricky --> <b/><![CDATA[ <fake/> > ]]><c/></a>`
	n, err := Decode(NewXMLScanner(strings.NewReader(doc)))
	if err != nil {
		t.Fatal(err)
	}
	want := tree.MustParse("a(b,c)")
	if !n.Equal(want) {
		t.Errorf("scanned %s, want %s", n, want)
	}
	// Unterminated constructs error instead of hanging.
	for _, bad := range []string{"<a><!-- never closed", "<a><![CDATA[ open"} {
		if _, err := Decode(NewXMLScanner(strings.NewReader(bad))); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
	// Processing instruction containing '>'.
	doc2 := `<?pi with > inside ?><a/>`
	n2, err := Decode(NewXMLScanner(strings.NewReader(doc2)))
	if err != nil || n2.Label != "a" {
		t.Errorf("PI handling broken: %v %v", n2, err)
	}
}

// TestJSONDeepNesting: the container bits grow past their first 64 levels,
// so closes deep in a 1,000-level document are still checked against their
// openers, and the events match encoding/json's.
func TestJSONDeepNesting(t *testing.T) {
	const depth = 1000
	var open, close strings.Builder
	for i := 0; i < depth; i++ {
		if i%3 == 0 {
			open.WriteString(`{"a":`)
			close.WriteString("}")
		} else {
			open.WriteString("[")
			close.WriteString("]")
		}
	}
	c := close.String()
	rev := make([]byte, len(c))
	for i := range c {
		rev[len(c)-1-i] = c[i]
	}
	doc := open.String() + "1" + string(rev)
	checkJSONAgainstReference(t, doc, 0, 7)
	events, err := ReadAll(NewJSONSource(strings.NewReader(doc)))
	if err != nil || len(events) < 2*depth {
		t.Fatalf("%d events, error %v", len(events), err)
	}
	// A close of the wrong kind 900 levels down fails at its byte.
	bad := []byte(doc)
	at := len(open.String()) + 1 + 100
	if bad[at] == ']' {
		bad[at] = '}'
	} else {
		bad[at] = ']'
	}
	if _, err := ReadAll(NewJSONSource(strings.NewReader(string(bad)))); !errors.Is(err, ErrMalformed) || errorOffset(err) != at {
		t.Fatalf("mismatched close at byte %d: error %v", at, err)
	}
}
