package stackless

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"stackless/internal/encoding"
	"stackless/internal/tree"
)

// FuzzMultiQueryStacked fuzzes the multi-query plans against the tree
// oracle. The fuzzer chooses a document (brace notation, so labels outside
// every alphabet come for free), a subset of a member pool that covers all
// three tiers under both encodings, the encoding the document is served
// in, and Workers 1 or 2. Every member's stream must equal its own Select
// and tree.SelectQL over the decoded tree, truncated for members on a
// compiled tier at the first node whose label is outside their alphabet
// (the absorbing poison of DESIGN.md §11). A set with a stack-tier member
// and another member must run the stacked plan.
func FuzzMultiQueryStacked(f *testing.F) {
	f.Add([]byte("a{b{}c{}}"), uint16(0b111111111), byte(0), byte(1))
	f.Add([]byte("a{a{b{}b{a{}}}b{}}"), uint16(0b110100001), byte(1), byte(2))
	f.Add([]byte("b{a{zz{a{b{}}}}a{b{}}}"), uint16(0b011100110), byte(0), byte(2))
	f.Add([]byte("c{a{c{b{}}}zz{}a{b{}}}"), uint16(0b100000011), byte(1), byte(1))
	f.Add([]byte("a{}"), uint16(0b010000000), byte(0), byte(1))

	pool := []*Query{
		MustCompileRegex("a.*b", abc), // registerless under both encodings
		MustCompileRegex(".*a", abc),
		MustCompileRegex("b.*a", abc),
		MustCompileRegex("a.*(b.*)?c", []string{"a", "b", "c", "d"}),
		MustCompileRegex(".*a.*b", abc), // stackless under both encodings
		MustCompileRegex(".*b.*c", abc),
		MustCompileRegex(".*ab", abc), // stack under both encodings
		MustCompileRegex(".*cb", abc),
		MustCompileRegex("b.*'zz'", []string{"a", "b", "zz"}),
	}
	for _, enc := range []Encoding{MarkupEncoding, TermEncoding} {
		var tiers [3]bool
		for _, q := range pool {
			s, err := q.slot(semQL, enc, Options{})
			if err != nil {
				f.Fatal(err)
			}
			tiers[s.st] = true
		}
		if tiers != [3]bool{true, true, true} {
			f.Fatalf("%v: the pool covers tiers %v, want all three", enc, tiers)
		}
	}

	f.Fuzz(func(t *testing.T, doc []byte, sel uint16, encByte, workers byte) {
		tr, err := encoding.Decode(encoding.NewTermScanner(bytes.NewReader(doc)))
		if err != nil || sel&(1<<len(pool)-1) == 0 {
			return
		}
		// Labels of lower-case letters read the same in both notations.
		plain := true
		tr.Walk(func(n *tree.Node, _ int) bool {
			plain = plain && strings.Trim(n.Label, "abcdefghijklmnopqrstuvwxyz") == "" && len(n.Label) <= 8
			return plain
		})
		if !plain {
			return
		}
		var set []*Query
		for i, q := range pool {
			if sel&(1<<i) != 0 {
				set = append(set, q)
			}
		}
		mq, err := NewMultiQuery(set...)
		if err != nil {
			t.Fatal(err)
		}
		enc := Encoding(encByte % 2)
		text, selectDoc := encoding.XMLString(tr), (*Query).SelectXML
		multiDoc := mq.SelectXML
		if enc == TermEncoding {
			text, selectDoc, multiDoc = encoding.TermString(tr), (*Query).SelectTerm, mq.SelectTerm
		}
		opt := Options{Workers: 1 + int(workers%2)}

		got := make([][]Match, len(set))
		stats, err := multiDoc(strings.NewReader(text), opt, func(m MultiMatch) { got[m.Query] = append(got[m.Query], m.Match) })
		if err != nil {
			t.Fatal(err)
		}
		stack := false
		for _, s := range stats.Strategies {
			stack = stack || s == Stack
		}
		if want := stack && len(set) > 1; (stats.Plan == MultiPlanStacked) != want {
			t.Fatalf("plan %v for strategies %v", stats.Plan, stats.Strategies)
		}

		// The oracle: preorder positions, depths and labels of the tree.
		type node struct {
			label string
			depth int
		}
		var nodes []node
		tr.Walk(func(n *tree.Node, depth int) bool {
			nodes = append(nodes, node{n.Label, depth})
			return true
		})
		for qi, q := range set {
			var own []Match
			if _, err := selectDoc(q, strings.NewReader(text), Options{}, func(m Match) { own = append(own, m) }); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[qi], own) {
				t.Fatalf("%v plan, %s over %s: %v, own Select %v", stats.Plan, q, text, got[qi], own)
			}
			poison := len(nodes)
			if stats.Strategies[qi] != Stack {
				for pos, n := range nodes {
					if !q.automaton().Alphabet.Contains(n.label) {
						poison = pos
						break
					}
				}
			}
			var want []Match
			for _, pos := range tree.SelectQL(q.automaton(), tr) {
				if pos < poison {
					want = append(want, Match{Pos: pos, Depth: nodes[pos].depth, Label: nodes[pos].label})
				}
			}
			if !reflect.DeepEqual(got[qi], want) {
				t.Fatalf("%v plan, %s (%v) over %s: %v, oracle %v", stats.Plan, q, stats.Strategies[qi], text, got[qi], want)
			}
		}
	})
}
