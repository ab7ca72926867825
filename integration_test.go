package stackless

import (
	"math/rand"
	"strings"
	"testing"

	"stackless/internal/encoding"
	"stackless/internal/gen"
	"stackless/internal/tree"
)

// The capstone integration test: random queries, random documents, every
// applicable strategy, both encodings and the XML, term and JSON readers —
// all answers must coincide with the in-memory oracles. This exercises the full pipeline (regex → minimal DFA
// → classification → compiled evaluator → scanner → selection).

func randomExpr(rng *rand.Rand, depth int) string {
	if depth == 0 {
		return []string{"a", "b", ".", "%"}[rng.Intn(4)]
	}
	x := randomExpr(rng, depth-1)
	y := randomExpr(rng, depth-1)
	switch rng.Intn(6) {
	case 0:
		return "(" + x + "|" + y + ")"
	case 1:
		return x + y
	case 2:
		return "(" + x + ")*"
	case 3:
		return "(" + x + ")+"
	case 4:
		return "(" + x + ")?"
	default:
		return x
	}
}

func TestIntegrationAllStrategiesAgreeWithOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(20210620))
	labels := []string{"a", "b"}
	queries := 0
	strategySeen := map[Strategy]int{}
	for i := 0; i < 250; i++ {
		expr := randomExpr(rng, 2+rng.Intn(2))
		q, err := CompileRegex(expr, labels)
		if err != nil {
			t.Fatalf("compile %q: %v", expr, err)
		}
		// Over JSON the tree hangs under a $ root, which the query reads
		// first.
		qj, err := CompileRegex("'$'("+expr+")", append([]string{encoding.RootLabel}, labels...))
		if err != nil {
			t.Fatalf("compile %q under $: %v", expr, err)
		}
		queries++
		for j := 0; j < 8; j++ {
			tr := gen.RandomTree(rng, labels, 1+rng.Intn(25))
			wantSel := tree.SelectQL(q.automaton(), tr)
			wantEL := tree.InEL(q.automaton(), tr)
			wantAL := tree.InAL(q.automaton(), tr)
			xml := encoding.XMLString(tr)
			term := encoding.TermString(tr)

			// Markup selection, cheapest strategy then forced stack.
			for _, opt := range []Options{{}, {ForceStack: true}} {
				var got []int
				stats, err := q.SelectXML(strings.NewReader(xml), opt, func(m Match) {
					got = append(got, m.Pos)
				})
				if err != nil {
					t.Fatal(err)
				}
				strategySeen[stats.Strategy]++
				requireEqualInts(t, expr, tr, "markup select", got, wantSel)
			}
			// Term-encoding selection.
			var gotTerm []int
			if _, err := q.SelectTerm(strings.NewReader(term), Options{}, func(m Match) {
				gotTerm = append(gotTerm, m.Pos)
			}); err != nil {
				t.Fatal(err)
			}
			requireEqualInts(t, expr, tr, "term select", gotTerm, wantSel)

			// JSON selection, of the tree under a $ root.
			wrapped := tree.New(encoding.RootLabel, tr)
			var gotJSON []int
			if _, err := qj.SelectJSON(strings.NewReader(jsonOf(wrapped)), Options{}, func(m Match) {
				gotJSON = append(gotJSON, m.Pos)
			}); err != nil {
				t.Fatal(err)
			}
			requireEqualInts(t, expr, wrapped, "json select", gotJSON, tree.SelectQL(qj.automaton(), wrapped))

			// EL and AL, markup and term.
			if got, _, err := q.RecognizeEL(strings.NewReader(xml), Options{}); err != nil || got != wantEL {
				t.Fatalf("%q on %s: EL=%v (err %v), want %v", expr, tr, got, err, wantEL)
			}
			if got, _, err := q.RecognizeAL(strings.NewReader(xml), Options{}); err != nil || got != wantAL {
				t.Fatalf("%q on %s: AL=%v (err %v), want %v", expr, tr, got, err, wantAL)
			}
			if got, _, err := q.RecognizeELTerm(strings.NewReader(term), Options{}); err != nil || got != wantEL {
				t.Fatalf("%q on %s: term EL=%v (err %v), want %v", expr, tr, got, err, wantEL)
			}
			if got, _, err := q.RecognizeALTerm(strings.NewReader(term), Options{}); err != nil || got != wantAL {
				t.Fatalf("%q on %s: term AL=%v (err %v), want %v", expr, tr, got, err, wantAL)
			}
		}
	}
	// The random languages must have exercised every strategy tier.
	if strategySeen[Registerless] == 0 || strategySeen[Stackless] == 0 || strategySeen[Stack] == 0 {
		t.Fatalf("strategy coverage too narrow: %v over %d queries", strategySeen, queries)
	}
}

func requireEqualInts(t *testing.T, expr string, tr *tree.Node, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%q on %s: %s got %v, want %v", expr, tr, what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%q on %s: %s got %v, want %v", expr, tr, what, got, want)
		}
	}
}

// TestIntegrationClassificationConsistency: the classification bits must be
// internally consistent with the theorems on random languages.
func TestIntegrationClassificationConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for i := 0; i < 300; i++ {
		expr := randomExpr(rng, 2+rng.Intn(2))
		q, err := CompileRegex(expr, []string{"a", "b"})
		if err != nil {
			t.Fatal(err)
		}
		c := q.Classify()
		if c.Registerless && !c.StacklessQuery {
			t.Fatalf("%q: registerless but not stackless", expr)
		}
		if c.Registerless != (c.EFlat && c.AFlat) {
			t.Fatalf("%q: Theorem 3.2(3) violated: reg=%v E=%v A=%v", expr, c.Registerless, c.EFlat, c.AFlat)
		}
		if c.StacklessQuery != c.HAR {
			t.Fatalf("%q: Theorem 3.1 violated", expr)
		}
		if c.TermRegisterless && !c.Registerless {
			t.Fatalf("%q: blind class outside its markup class", expr)
		}
		if c.TermStackless && !c.StacklessQuery {
			t.Fatalf("%q: blindly HAR but not HAR", expr)
		}
		if c.Reversible && !c.AlmostReversible {
			t.Fatalf("%q: reversible but not almost-reversible", expr)
		}
	}
}
