package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"stackless/internal/alphabet"
	"stackless/internal/classify"
	"stackless/internal/dfa"
	"stackless/internal/encoding"
	"stackless/internal/paperfigs"
	"stackless/internal/rex"
	"stackless/internal/tree"
)

// checkELAgainstOracle compares an EL recognizer with the in-memory oracle
// on random trees over the automaton's alphabet.
func checkELAgainstOracle(t *testing.T, name string, d *dfa.DFA, ev Evaluator, blind bool, rng *rand.Rand, iters int) {
	t.Helper()
	labels := d.Alphabet.Symbols()
	for i := 0; i < iters; i++ {
		tr := randomTree(rng, labels, 1+rng.Intn(22))
		var events []encoding.Event
		if blind {
			events = encoding.Term(tr)
		} else {
			events = encoding.Markup(tr)
		}
		got, err := Recognize(ev, encoding.NewSliceSource(events))
		if err != nil {
			t.Fatal(err)
		}
		if want := tree.InEL(d, tr); got != want {
			t.Fatalf("%s: EL(%s) = %v, want %v\n%s", name, tr, got, want, d)
		}
	}
}

func checkALAgainstOracle(t *testing.T, name string, d *dfa.DFA, ev Evaluator, blind bool, rng *rand.Rand, iters int) {
	t.Helper()
	labels := d.Alphabet.Symbols()
	for i := 0; i < iters; i++ {
		tr := randomTree(rng, labels, 1+rng.Intn(22))
		var events []encoding.Event
		if blind {
			events = encoding.Term(tr)
		} else {
			events = encoding.Markup(tr)
		}
		got, err := Recognize(ev, encoding.NewSliceSource(events))
		if err != nil {
			t.Fatal(err)
		}
		if want := tree.InAL(d, tr); got != want {
			t.Fatalf("%s: AL(%s) = %v, want %v\n%s", name, tr, got, want, d)
		}
	}
}

// TestSynopsisELFig3a: aΓ*b is E-flat, so its EL is registerless.
func TestSynopsisELFig3a(t *testing.T) {
	an := classify.Analyze(paperfigs.Fig3a())
	m, err := RegisterlessEL(an)
	if err != nil {
		t.Fatal(err)
	}
	checkELAgainstOracle(t, "EL(aΓ*b)", an.D, m, false, rand.New(rand.NewSource(11)), 500)
}

// TestSynopsisELCofinite: co-finite languages are E-flat (Section 3.3);
// check the synopsis machine on one with several SCC levels.
func TestSynopsisELCofinite(t *testing.T) {
	d, err := rex.CompileString("ab|ba", alphabet.Letters("ab"))
	if err != nil {
		t.Fatal(err)
	}
	an := classify.Analyze(d.Complement())
	m, err := RegisterlessEL(an)
	if err != nil {
		t.Fatal(err)
	}
	checkELAgainstOracle(t, "EL(co-finite)", an.D, m, false, rand.New(rand.NewSource(12)), 500)
}

// TestSynopsisELRejectsNonEFlat: ab (Fig 3b) is not E-flat.
func TestSynopsisELRejectsNonEFlat(t *testing.T) {
	an := classify.Analyze(paperfigs.Fig3b())
	if _, err := RegisterlessEL(an); err == nil {
		t.Error("ab: expected E-flat class error")
	}
}

// TestSynopsisELRandomEFlat is the main property test of Lemma 3.11 /
// Appendix A: random E-flat languages, random trees, oracle comparison.
func TestSynopsisELRandomEFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tested := 0
	for i := 0; i < 20000 && tested < 120; i++ {
		var alph *alphabet.Alphabet
		if i%2 == 0 {
			alph = alphabet.Letters("ab")
		} else {
			alph = alphabet.Letters("abc")
		}
		an := classify.Analyze(dfa.Random(rng, alph, 1+rng.Intn(6)))
		ok, _ := an.EFlat()
		if !ok {
			continue
		}
		// Skip trivial (all-accepting / all-rejecting) automata half the
		// time to concentrate on interesting cases.
		if an.D.NumStates() == 1 && tested%3 != 0 {
			continue
		}
		m, err := RegisterlessEL(an)
		if err != nil {
			t.Fatal(err)
		}
		tested++
		checkELAgainstOracle(t, "EL random", an.D, m, false, rng, 30)
	}
	if tested < 60 {
		t.Fatalf("too few E-flat samples: %d", tested)
	}
}

// TestSynopsisELBlindRandom is the property test of the Appendix B variant.
func TestSynopsisELBlindRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	tested := 0
	for i := 0; i < 30000 && tested < 100; i++ {
		an := classify.Analyze(dfa.Random(rng, alphabet.Letters("ab"), 1+rng.Intn(6)))
		ok, _ := an.BlindEFlat()
		if !ok {
			continue
		}
		m, err := BlindRegisterlessEL(an)
		if err != nil {
			t.Fatal(err)
		}
		tested++
		checkELAgainstOracle(t, "blind EL random", an.D, m, true, rng, 30)
	}
	if tested < 50 {
		t.Fatalf("too few blindly E-flat samples: %d", tested)
	}
}

// TestRegisterlessALRandomAFlat checks the dual construction.
func TestRegisterlessALRandomAFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tested := 0
	for i := 0; i < 20000 && tested < 100; i++ {
		an := classify.Analyze(dfa.Random(rng, alphabet.Letters("ab"), 1+rng.Intn(6)))
		ok, _ := an.AFlat()
		if !ok {
			continue
		}
		ev, err := RegisterlessAL(an)
		if err != nil {
			t.Fatal(err)
		}
		tested++
		checkALAgainstOracle(t, "AL random", an.D, ev, false, rng, 30)
	}
	if tested < 50 {
		t.Fatalf("too few A-flat samples: %d", tested)
	}
}

// TestBlindRegisterlessALRandom checks the blind dual.
func TestBlindRegisterlessALRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	tested := 0
	for i := 0; i < 30000 && tested < 80; i++ {
		an := classify.Analyze(dfa.Random(rng, alphabet.Letters("ab"), 1+rng.Intn(5)))
		ok, _ := an.BlindAFlat()
		if !ok {
			continue
		}
		ev, err := BlindRegisterlessAL(an)
		if err != nil {
			t.Fatal(err)
		}
		tested++
		checkALAgainstOracle(t, "blind AL random", an.D, ev, true, rng, 30)
	}
	if tested < 40 {
		t.Fatalf("too few blindly A-flat samples: %d", tested)
	}
}

// TestSynopsisFiniteALViaStack sanity check: finite language, AL
// registerless (Section 3.3's stack-of-bounded-depth intuition).
func TestSynopsisFiniteAL(t *testing.T) {
	an := classify.Analyze(rex.MustCompile("a|ab|abb", alphabet.Letters("ab")))
	ev, err := RegisterlessAL(an)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		tree string
		want bool
	}{
		{"a", true},
		{"a(b)", true},
		{"a(b(b))", true},
		{"a(b(b(b)))", false},
		{"b", false},
		{"a(b,b(b),a)", false}, // branch aa ∉ L
	}
	for _, c := range cases {
		tr := tree.MustParse(c.tree)
		got, err := Recognize(ev, encoding.NewSliceSource(encoding.Markup(tr)))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("AL(%s) = %v, want %v", c.tree, got, c.want)
		}
	}
}

// TestSynopsisStateSpaceBounded: the synopsis table stays small (the paper
// bounds the state space via the SCC DAG), and a table past the cap fails
// to build with ErrSynopsisTooLarge instead of growing without bound —
// also over a wide alphabet, where a query with a handful of DFA states
// has about one synopsis state per label and so a table quadratic in the
// alphabet.
func TestSynopsisStateSpaceBounded(t *testing.T) {
	an := classify.Analyze(paperfigs.Fig3a())
	tab, err := SynopsisTable(an, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := tab.NumStates(); n > 16 {
		t.Errorf("synopsis table of %s unexpectedly large: %d states", paperfigs.Fig3aRegex, n)
	}
	labels := func(n int) *alphabet.Alphabet {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("t%03d", i)
		}
		return alphabet.New(names...)
	}
	for _, c := range []struct {
		expr   string
		labels int
		blinds []bool
		fits   bool
	}{
		{"'t000'.*'t001'", 200, []bool{false, true}, true},
		// Markup only: the blind E-flatness check alone takes seconds
		// over 4,000 labels.
		{"'t000'.*'t001'", 4000, []bool{false}, false},
		{"....*", 200, []bool{false, true}, false},
	} {
		an := classify.Analyze(rex.MustCompile(c.expr, labels(c.labels)))
		for _, blind := range c.blinds {
			tab, err := SynopsisTable(an, blind)
			if !c.fits {
				if !errors.Is(err, ErrSynopsisTooLarge) {
					t.Errorf("%s over %d labels (blind %v): got %v, want ErrSynopsisTooLarge", c.expr, c.labels, blind, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s over %d labels (blind %v): %v", c.expr, c.labels, blind, err)
			}
			width := 2 * c.labels
			if blind {
				width = c.labels + 1
			}
			if n := tab.NumStates(); n > c.labels+8 || n*width > DefaultSynopsisMaxCells {
				t.Errorf("%s over %d labels (blind %v): %d states", c.expr, c.labels, blind, n)
			}
		}
	}
}

// TestRegisterlessMatchesStacklessTier: the registerless EL and AL
// machines give the stackless tier's verdict on every tree, including
// trees that hold a label outside Γ, which poisons every compiled tier
// (DESIGN.md §11); on trees over Γ they give the oracle's. Random E-flat
// and A-flat languages, under both encodings, on the string and the coded
// path. The rows are the trees on which EL once said true because a state
// from which every continuation accepts ignored later labels.
func TestRegisterlessMatchesStacklessTier(t *testing.T) {
	tiers := []struct {
		name         string
		blind        bool
		registerless func(*classify.Analysis) (Chunkable, error)
		stackless    func(*classify.Analysis) (*StacklessEvaluator, error)
		wrap         func(Chunkable) Chunkable
		oracle       func(*dfa.DFA, *tree.Node) bool
	}{
		{"el/markup", false, RegisterlessEL, StacklessQL, ELFromQL, tree.InEL},
		{"el/term", true, BlindRegisterlessEL, BlindStacklessQL, ELFromQL, tree.InEL},
		{"al/markup", false, RegisterlessAL, StacklessQL, ALFromQL, tree.InAL},
		{"al/term", true, BlindRegisterlessAL, BlindStacklessQL, ALFromQL, tree.InAL},
	}
	encode := func(blind bool, tr *tree.Node) []encoding.Event {
		if blind {
			return encoding.Term(tr)
		}
		return encoding.Markup(tr)
	}
	// check compares the two tiers on tr and, when oracle is set, the oracle.
	check := func(t *testing.T, name string, reg, sl Evaluator, d *dfa.DFA, tr *tree.Node, blind bool, oracle func(*dfa.DFA, *tree.Node) bool) {
		t.Helper()
		events := encode(blind, tr)
		want := RunEvents(sl, events)
		if oracle != nil {
			if o := oracle(d, tr); o != want {
				t.Fatalf("%s: stackless tier %v, oracle %v on %s\n%s", name, want, o, tr, d)
			}
		}
		for _, rec := range []func(Evaluator, encoding.Source) (bool, error){Recognize, RecognizeCoded} {
			got, err := rec(reg, encoding.NewSliceSource(events))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: registerless %v, stackless tier %v on %s\n%s", name, got, want, tr, d)
			}
		}
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			build := func(an *classify.Analysis) (reg, sl Evaluator, ok bool) {
				r, err := tier.registerless(an)
				var ce *classError
				if errors.As(err, &ce) {
					return nil, nil, false
				}
				if err != nil {
					t.Fatal(err)
				}
				q, err := tier.stackless(an)
				if err != nil {
					t.Fatalf("flat language without a stackless machine: %v\n%s", err, an.D)
				}
				return r, tier.wrap(q), true
			}
			rng := rand.New(rand.NewSource(19))
			tested := 0
			for i := 0; i < 20000 && tested < 80; i++ {
				alph := alphabet.Letters("ab")
				if i%2 == 1 {
					alph = alphabet.Letters("abc")
				}
				an := classify.Analyze(dfa.Random(rng, alph, 1+rng.Intn(6)))
				reg, sl, ok := build(an)
				if !ok {
					continue
				}
				tested++
				labels := an.D.Alphabet.Symbols()
				for j := 0; j < 40; j++ {
					tr := randomTree(rng, labels, 1+rng.Intn(16))
					check(t, tier.name, reg, sl, an.D, tr, tier.blind, tier.oracle)
					tr = randomTree(rng, append(labels, "z"), 1+rng.Intn(16))
					check(t, tier.name, reg, sl, an.D, tr, tier.blind, nil)
				}
			}
			if tested < 40 {
				t.Fatalf("too few flat samples: %d", tested)
			}
		})
	}
	for _, row := range []struct{ expr, tree string }{
		{".*", "z"},
		{"a.*", "a(a(z))"},
	} {
		an := classify.Analyze(rex.MustCompile(row.expr, paperfigs.GammaABC()))
		tr := tree.MustParse(row.tree)
		for _, tier := range tiers[:2] {
			reg, err := tier.registerless(an)
			if err != nil {
				t.Fatal(err)
			}
			q, err := tier.stackless(an)
			if err != nil {
				t.Fatal(err)
			}
			name := tier.name + " " + row.expr + " over " + row.tree
			if RunEvents(reg, encode(tier.blind, tr)) {
				t.Errorf("%s: EL true, but no branch is in L", name)
			}
			check(t, name, reg, tier.wrap(q), an.D, tr, tier.blind, nil)
		}
	}
}
