package core

import (
	"math/rand"
	"testing"

	"stackless/internal/alphabet"
	"stackless/internal/classify"
	"stackless/internal/dfa"
	"stackless/internal/encoding"
	"stackless/internal/rex"
	"stackless/internal/tree"
)

// TestLemma24EvaluatorClosures: boolean combinations of EL recognizers
// match boolean combinations of the oracle verdicts — the executable
// content of Lemma 2.4.
func TestLemma24EvaluatorClosures(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	alph := alphabet.Letters("ab")
	l1 := classify.Analyze(rex.MustCompile("a.*b", alph))
	l2 := classify.Analyze(rex.MustCompile("b.*a", alph))
	m1, err := RegisterlessEL(l1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := RegisterlessEL(l2)
	if err != nil {
		t.Fatal(err)
	}
	inter := Intersect(m1, m2)
	union := Union(m1, m2)
	compl := Complement(m1)
	for i := 0; i < 400; i++ {
		tr := randomTree(rng, []string{"a", "b"}, 1+rng.Intn(18))
		ev := encoding.Markup(tr)
		in1, in2 := tree.InEL(l1.D, tr), tree.InEL(l2.D, tr)
		if got := RunEvents(inter, ev); got != (in1 && in2) {
			t.Fatalf("intersection wrong on %s: got %v, want %v∧%v", tr, got, in1, in2)
		}
		if got := RunEvents(union, ev); got != (in1 || in2) {
			t.Fatalf("union wrong on %s", tr)
		}
		if got := RunEvents(compl, ev); got != !in1 {
			t.Fatalf("complement wrong on %s", tr)
		}
	}
	// A label outside the alphabet poisons L's machine, and the complement
	// rejects the tree too.
	if RunEvents(compl, encoding.Markup(tree.MustParse("a(z)"))) {
		t.Error("complement accepts a tree outside the alphabet")
	}
}

// TestProductTagDFA: the explicit finite-state product agrees with the
// lockstep product, witnessing that the registerless class is closed.
func TestProductTagDFA(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	alph := alphabet.Letters("ab")
	l1 := classify.Analyze(rex.MustCompile("a.*b", alph))
	l2 := classify.Analyze(rex.MustCompile("(b|ab*a)*", alph))
	t1, err := RegisterlessQL(l1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := RegisterlessQL(l2)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := ProductTagDFA(t1, t2, And)
	if err != nil {
		t.Fatal(err)
	}
	lock := Intersect(t1.Evaluator(), t2.Evaluator())
	for i := 0; i < 300; i++ {
		tr := randomTree(rng, []string{"a", "b"}, 1+rng.Intn(15))
		got, err := SelectPositions(prod.Evaluator(), encoding.NewSliceSource(encoding.Markup(tr)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := SelectPositions(lock, encoding.NewSliceSource(encoding.Markup(tr)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("product selections differ on %s: %v vs %v", tr, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("product selections differ on %s: %v vs %v", tr, got, want)
			}
		}
	}
	// Complement of the explicit automaton: pre-selects the other nodes.
	comp := ComplementTagDFA(t1)
	tr2 := tree.MustParse("a(b,a)")
	sel1, _ := SelectPositions(t1.Evaluator(), encoding.NewSliceSource(encoding.Markup(tr2)))
	sel2, _ := SelectPositions(comp.Evaluator(), encoding.NewSliceSource(encoding.Markup(tr2)))
	if len(sel1)+len(sel2) != tr2.Size() {
		t.Errorf("complement does not partition the nodes: %v and %v", sel1, sel2)
	}
	// Error cases.
	if _, err := ProductTagDFA(t1, mustTermTag(t, l1), And); err == nil {
		t.Error("expected error mixing markup and term automata")
	}
}

func mustTermTag(t *testing.T, an *classify.Analysis) *TagDFA {
	t.Helper()
	tag, err := BlindRegisterlessQL(an)
	if err != nil {
		t.Skipf("not blindly almost-reversible: %v", err)
	}
	return tag
}

// TestClosuresPreserveStacklessRegisterBound: the product of two stackless
// evaluators still uses O(1) registers (the sum of the components').
func TestClosuresPreserveStacklessRegisterBound(t *testing.T) {
	alph := alphabet.Letters("ab")
	an1 := classify.Analyze(rex.MustCompile("ab", alph))
	an2 := classify.Analyze(rex.MustCompile(".*a.*b", alph))
	e1, err := StacklessQL(an1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := StacklessQL(an2)
	if err != nil {
		t.Fatal(err)
	}
	p := Intersect(ELFromQL(e1), ELFromQL(e2))
	rng := rand.New(rand.NewSource(27))
	deep := tree.Chain(randomLabels(rng, 2000))
	p.Reset()
	for _, e := range encoding.Markup(deep) {
		p.Step(e)
		if e1.Registers()+e2.Registers() > e1.MaxRegisters()+e2.MaxRegisters() {
			t.Fatal("register bound violated in product")
		}
	}
}

func randomLabels(rng *rand.Rand, n int) []string {
	labels := []string{"a", "b"}
	out := make([]string, n)
	for i := range out {
		out[i] = labels[rng.Intn(2)]
	}
	return out
}

// TestBoolOpTableAgainstDFA: core.BoolOp combinators behave like the dfa
// package's (shared semantics across layers).
func TestBoolOpTableAgainstDFA(t *testing.T) {
	for _, a := range []bool{false, true} {
		for _, b := range []bool{false, true} {
			if And(a, b) != dfa.And(a, b) || Or(a, b) != dfa.Or(a, b) ||
				Xor(a, b) != dfa.Xor(a, b) || Diff(a, b) != dfa.Diff(a, b) {
				t.Fatalf("combinator mismatch at (%v,%v)", a, b)
			}
		}
	}
}
