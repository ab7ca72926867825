package stackless

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"stackless/internal/encoding"
	"stackless/internal/gen"
	"stackless/internal/tree"
)

var abc = []string{"a", "b", "c"}

func TestXPathTranslation(t *testing.T) {
	cases := map[string]string{
		"/a//b":     "a.*b",
		"/a/b":      "ab",
		"//a//b":    ".*a.*b",
		"//a/b":     ".*ab",
		"/*/b":      ".b",
		"/'item'/b": "'item'b",
	}
	for xp, want := range cases {
		got, err := XPathToRegex(xp)
		if err != nil {
			t.Fatalf("%s: %v", xp, err)
		}
		if got != want {
			t.Errorf("XPathToRegex(%s) = %s, want %s", xp, got, want)
		}
	}
	for _, bad := range []string{"", "a/b", "/", "/a//", "$..a", "/a[1]/b", "//a[@id='x']"} {
		if _, err := XPathToRegex(bad); err == nil {
			t.Errorf("XPathToRegex(%q): expected error", bad)
		}
	}
}

func TestJSONPathTranslation(t *testing.T) {
	cases := map[string]string{
		"$.a..b":  "a.*b",
		"$.a.b":   "ab",
		"$..a..b": ".*a.*b",
		"$..a.b":  ".*ab",
		"$.*.b":   ".b",
	}
	for jp, want := range cases {
		got, err := JSONPathToRegex(jp)
		if err != nil {
			t.Fatalf("%s: %v", jp, err)
		}
		if got != want {
			t.Errorf("JSONPathToRegex(%s) = %s, want %s", jp, got, want)
		}
	}
	for _, bad := range []string{"", ".a", "$.", "$", "$.a[0]", "$..book[?(@.price)]"} {
		if _, err := JSONPathToRegex(bad); err == nil {
			t.Errorf("JSONPathToRegex(%q): expected error", bad)
		}
	}
}

// TestExample212EndToEnd reproduces the Example 2.12 table through the
// public API, including the strategies actually chosen.
func TestExample212EndToEnd(t *testing.T) {
	rows := []struct {
		xpath                   string
		registerless, stackless bool
	}{
		{"/a//b", true, true},
		{"/a/b", false, true},
		{"//a//b", false, true},
		{"//a/b", false, false},
	}
	for _, row := range rows {
		q, err := CompileXPath(row.xpath, abc)
		if err != nil {
			t.Fatal(err)
		}
		c := q.Classify()
		if c.Registerless != row.registerless || c.StacklessQuery != row.stackless {
			t.Errorf("%s: classified (reg=%v, stackless=%v), want (%v, %v)",
				row.xpath, c.Registerless, c.StacklessQuery, row.registerless, row.stackless)
		}
		doc := "<a><b/><c><b/></c><a><b/></a></a>"
		stats, err := q.SelectXML(strings.NewReader(doc), Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantStrategy := Stack
		if row.registerless {
			wantStrategy = Registerless
		} else if row.stackless {
			wantStrategy = Stackless
		}
		if stats.Strategy != wantStrategy {
			t.Errorf("%s: used %v, want %v", row.xpath, stats.Strategy, wantStrategy)
		}
		// ForbidStack must fail exactly for //a/b.
		_, err = q.SelectXML(strings.NewReader(doc), Options{ForbidStack: true}, nil)
		if (err != nil) != !row.stackless {
			t.Errorf("%s: ForbidStack error = %v, stackless = %v", row.xpath, err, row.stackless)
		}
	}
}

func TestSelectXMLMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	q, err := CompileXPath("/a//b", abc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		tr := gen.RandomTree(rng, abc, 1+rng.Intn(30))
		want := tree.SelectQL(q.automaton(), tr)
		var got []int
		doc := encoding.XMLString(tr)
		stats, err := q.SelectXML(strings.NewReader(doc), Options{}, func(m Match) {
			got = append(got, m.Pos)
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Matches != len(want) || len(got) != len(want) {
			t.Fatalf("tree %s: got %v, want %v", tr, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("tree %s: got %v, want %v", tr, got, want)
			}
		}
		// The stack baseline must agree.
		var gotStack []int
		if _, err := q.SelectXML(strings.NewReader(doc), Options{ForceStack: true}, func(m Match) {
			gotStack = append(gotStack, m.Pos)
		}); err != nil {
			t.Fatal(err)
		}
		if len(gotStack) != len(want) {
			t.Fatalf("stack baseline disagrees on %s", tr)
		}
	}
}

func TestSelectJSON(t *testing.T) {
	q, err := CompileJSONPath("$..'title'", []string{"$", "store", "book", "item", "title"})
	if err != nil {
		t.Fatal(err)
	}
	doc := `{"store":{"book":[{"title":1},{"title":2},{"other":3}]}}`
	var got []string
	stats, err := q.SelectJSON(strings.NewReader(doc), Options{}, func(m Match) {
		got = append(got, m.Label)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Matches != 2 || len(got) != 2 || got[0] != "title" {
		t.Errorf("JSONPath select: got %v (stats %+v)", got, stats)
	}
}

func TestRecognizeELAL(t *testing.T) {
	// L = a b* : trees whose branches are a then b's.
	q, err := CompileRegex("ab*", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	inside := "<a><b><b/></b><b/></a>"
	mixed := "<a><b/><a/></a>"
	if ok, _, err := q.RecognizeAL(strings.NewReader(inside), Options{}); err != nil || !ok {
		t.Errorf("AL(inside) = %v, %v; want true", ok, err)
	}
	if ok, _, err := q.RecognizeAL(strings.NewReader(mixed), Options{}); err != nil || ok {
		t.Errorf("AL(mixed) = %v, %v; want false", ok, err)
	}
	if ok, _, err := q.RecognizeEL(strings.NewReader(mixed), Options{}); err != nil || !ok {
		t.Errorf("EL(mixed) = %v, %v; want true", ok, err)
	}
	// Term encoding.
	if ok, _, err := q.RecognizeALTerm(strings.NewReader("a{b{}b{b{}}}"), Options{}); err != nil || !ok {
		t.Errorf("ALTerm = %v, %v; want true", ok, err)
	}
}

// TestRecognizersAgreeWithOracles drives EL/AL through the public API on
// random trees for a query where all strategies exist, and cross-checks the
// stack baseline.
func TestRecognizersAgreeWithOracles(t *testing.T) {
	q, err := CompileXPath("/a//b", abc) // E-flat and A-flat and HAR
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	for i := 0; i < 200; i++ {
		tr := gen.RandomTree(rng, abc, 1+rng.Intn(25))
		doc := encoding.XMLString(tr)
		el, stats, err := q.RecognizeEL(strings.NewReader(doc), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Strategy != Registerless {
			t.Fatalf("EL of aΓ*b should be registerless, got %v", stats.Strategy)
		}
		if want := tree.InEL(q.automaton(), tr); el != want {
			t.Fatalf("EL(%s) = %v, want %v", tr, el, want)
		}
		al, _, err := q.RecognizeAL(strings.NewReader(doc), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := tree.InAL(q.automaton(), tr); al != want {
			t.Fatalf("AL(%s) = %v, want %v", tr, al, want)
		}
		elS, _, _ := q.RecognizeEL(strings.NewReader(doc), Options{ForceStack: true})
		if elS != el {
			t.Fatalf("stack EL disagrees on %s", tr)
		}
	}
}

func TestQueryMetadata(t *testing.T) {
	q := MustCompileRegex("a.*b", abc)
	if q.String() != "a.*b" {
		t.Errorf("String() = %q", q.String())
	}
	got := q.Alphabet()
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("Alphabet() = %v", got)
	}
	if rep := q.Report(); !strings.Contains(rep, "almost-reversible") {
		t.Errorf("Report() missing content: %q", rep)
	}
	c := q.Classify()
	if !c.EFlat || !c.AFlat || !c.HAR || !c.AlmostReversible {
		t.Errorf("unexpected classification %+v", c)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := CompileRegex("(", abc); err == nil {
		t.Error("expected parse error")
	}
	if _, err := CompileXPath("a/b", abc); err == nil {
		t.Error("expected XPath error")
	}
	if _, err := CompileJSONPath("..a", abc); err == nil {
		t.Error("expected JSONPath error")
	}
}

func TestXPathUnion(t *testing.T) {
	rx, err := XPathToRegex("/a/b | /a//c")
	if err != nil {
		t.Fatal(err)
	}
	if rx != "(ab)|(a.*c)" {
		t.Errorf("union regex = %q", rx)
	}
	q, err := CompileXPath("/a/b | /a//c", abc)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	if _, err := q.SelectXML(strings.NewReader("<a><b/><b><c/></b></a>"), Options{}, func(m Match) {
		got = append(got, m.Label)
	}); err != nil {
		t.Fatal(err)
	}
	// Selected: the b at depth 2 (path ab) and the c (path abc? no — a b c
	// does not match a.*c... it does: a then .* = b then c). And the second
	// b matches ab as well.
	if len(got) != 3 {
		t.Errorf("union select = %v, want 3 matches", got)
	}
	jr, err := JSONPathToRegex("$.a.b | $..c")
	if err != nil || jr != "(ab)|(.*c)" {
		t.Errorf("JSONPath union = %q, %v", jr, err)
	}
	if _, err := XPathToRegex("/a | b"); err == nil {
		t.Error("expected error for malformed union arm")
	}
}

func TestBalanceGuard(t *testing.T) {
	q := MustCompileRegex("a*", []string{"a"})
	for _, bad := range []string{
		"<a><a/>",  // unclosed root
		"<a/></a>", // extra close
		"<a/><a/>", // two roots
		"",         // empty
	} {
		if _, err := q.SelectXML(strings.NewReader(bad), Options{}, nil); err == nil {
			t.Errorf("expected balance error for %q", bad)
		}
		if _, _, err := q.RecognizeEL(strings.NewReader(bad), Options{}); err == nil {
			t.Errorf("expected balance error in EL for %q", bad)
		}
	}
	// TrustInput disables the guard.
	if _, err := q.SelectXML(strings.NewReader("<a><a/>"), Options{TrustInput: true}, nil); err != nil {
		t.Errorf("TrustInput should skip the guard: %v", err)
	}
	// Well-formed input passes unchanged.
	stats, err := q.SelectXML(strings.NewReader("<a><a/></a>"), Options{}, nil)
	if err != nil || stats.Matches != 2 {
		t.Errorf("guarded select failed: %v %+v", err, stats)
	}
}

// TestRecognizeELPastSynopsisCap: EL of ....* over 200 labels is E-flat,
// but its synopsis table would pass core.DefaultSynopsisMaxCells, so the
// ladder falls through to the stackless rung, which gives the oracle's
// verdicts under both encodings.
func TestRecognizeELPastSynopsisCap(t *testing.T) {
	labels := make([]string, 200)
	for i := range labels {
		labels[i] = fmt.Sprintf("t%03d", i)
	}
	q := MustCompileRegex("....*", labels)
	if c := q.Classify(); !c.ELRegisterless {
		t.Fatalf("....* should be E-flat: %+v", c)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 60; i++ {
		tr := gen.RandomTree(rng, labels, 1+rng.Intn(12))
		want := tree.InEL(q.automaton(), tr)
		for _, run := range []struct {
			name string
			rec  func(io.Reader, Options) (bool, Stats, error)
			doc  string
		}{
			{"markup", q.RecognizeEL, encoding.XMLString(tr)},
			{"term", q.RecognizeELTerm, encoding.TermString(tr)},
		} {
			got, stats, err := run.rec(strings.NewReader(run.doc), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Strategy != Stackless {
				t.Fatalf("%s: ran at the %v tier, want stackless past the synopsis cap", run.name, stats.Strategy)
			}
			if got != want {
				t.Fatalf("%s: EL(%s) = %v, want %v", run.name, tr, got, want)
			}
		}
	}
}
