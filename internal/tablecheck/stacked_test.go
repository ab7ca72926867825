package tablecheck

import (
	"testing"

	"stackless/internal/alphabet"
	"stackless/internal/classify"
	"stackless/internal/core"
	"stackless/internal/dfa"
	"stackless/internal/encoding"
	"stackless/internal/rex"
)

// freshStacked builds the corpus's stacked product: a registerless member
// over {a,b}, a stackless and a pushdown member over {a,b,c}, the first two
// poisoning.
func freshStacked(t *testing.T, term bool) *core.StackedProduct {
	t.Helper()
	var ds []*dfa.DFA
	for _, m := range []struct{ expr, labels string }{{"a.*b", "ab"}, {".*a.*b", "abc"}, {".*ab", "abc"}} {
		l, err := rex.CompileString(m.expr, alphabet.Letters(m.labels))
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, classify.Analyze(l).D)
	}
	p, err := core.NewStackedProduct(ds, []bool{true, true, false}, term)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// wantOne asserts exactly one diagnostic, of kind k.
func wantOne(t *testing.T, ds []Diagnostic, k Kind) {
	t.Helper()
	if len(ds) != 1 || ds[0].Kind != k {
		t.Fatalf("want exactly one %s diagnostic, got %v", k, ds)
	}
}

func TestStackedClean(t *testing.T) {
	for _, term := range []bool{false, true} {
		p := freshStacked(t, term)
		ds, err := Verify(MachineName(p), p, testLimits)
		if err != nil || len(ds) != 0 {
			t.Fatalf("term=%v: %v, %v", term, ds, err)
		}
	}
}

func TestCorruptStacked(t *testing.T) {
	k := freshStacked(t, false).Alphabet().Size()

	t.Run("closure", func(t *testing.T) {
		p := freshStacked(t, false)
		tab, _, _, _, _, _, _, dead := p.CompiledStacked()
		tab[0] = dead + 5
		ds, err := Verify("s", p, testLimits)
		if err != nil {
			t.Fatal(err)
		}
		wantOne(t, ds, KindClosure)
	})
	t.Run("flags-dead-row", func(t *testing.T) {
		p := freshStacked(t, false)
		tab, _, _, _, _, stride, _, dead := p.CompiledStacked()
		tab[int(dead)*int(stride)] = 0
		ds, err := Verify("s", p, testLimits)
		if err != nil {
			t.Fatal(err)
		}
		wantOne(t, ds, KindFlags)
	})
	t.Run("totality", func(t *testing.T) {
		p := freshStacked(t, false)
		tab, _, _, _, _, _, _, _ := p.CompiledStacked()
		tab[k] = 0 // the unknown column of state 0 routed to a live state
		ds, err := Verify("s", p, testLimits)
		if err != nil {
			t.Fatal(err)
		}
		wantOne(t, ds, KindTotality)
	})
	// One poison bit: the registerless member (bit 0) lacks c, so it dies
	// on ⟨c; clearing that bit is one wrong column word, and pcol stays
	// true for the members the column still poisons.
	t.Run("poison-bit", func(t *testing.T) {
		for _, term := range []bool{false, true} {
			p := freshStacked(t, term)
			_, _, _, poison, _, _, words, _ := p.CompiledStacked()
			c, ok := p.Alphabet().ID("c")
			if !ok {
				t.Fatal("no c in the union alphabet")
			}
			w := (c << 1) * int(words)
			if poison[w]&1 == 0 {
				t.Fatalf("term=%v: ⟨c does not poison member 0", term)
			}
			poison[w] &^= 1
			ds, err := Verify("s", p, testLimits)
			if err != nil {
				t.Fatal(err)
			}
			wantOne(t, ds, KindFlags)
		}
	})
	// One poison bit set on a column that poisons nobody: the pcol flag
	// stays false, so the kernel would not even read it — still exactly
	// one diagnostic.
	t.Run("poison-bit-silent-column", func(t *testing.T) {
		p := freshStacked(t, false)
		_, _, _, poison, pcol, _, words, _ := p.CompiledStacked()
		a, _ := p.Alphabet().ID("a")
		if pcol[a<<1] {
			t.Fatal("⟨a poisons a member")
		}
		poison[(a<<1)*int(words)] |= 1
		ds, err := Verify("s", p, testLimits)
		if err != nil {
			t.Fatal(err)
		}
		wantOne(t, ds, KindFlags)
	})
}

// TestCorruptStackedMaskBit flips ONE mask bit on a reachable accepting
// state. The bitset stays non-zero and anyAcc consistent, so the static
// pass is silent; the joint BFS against the member DFAs reports exactly one
// divergence, with a counterexample that replays to it.
func TestCorruptStackedMaskBit(t *testing.T) {
	p := freshStacked(t, false)
	_, masks, _, _, _, _, words, _ := p.CompiledStacked()
	a, _ := p.Alphabet().ID("a")
	b, _ := p.Alphabet().ID("b")
	// ⟨a ⟨b is accepted by a.*b (bit 0), .*a.*b (bit 1) and .*ab (bit 2):
	// find its state and clear bit 1.
	run := p.Run()
	defer run.Release()
	hits := run.SelectStacked([]encoding.CodedEvent{{Sym: alphabet.Sym(a)}, {Sym: alphabet.Sym(b)}}, nil)
	if len(hits) != 1 || run.HitMasks()[0] != 0b111 {
		t.Fatalf("⟨a ⟨b: hits %v masks %v, want one hit of every member", hits, run.HitMasks())
	}
	q := -1
	for s := 0; s < p.NumStates(); s++ {
		if masks[s*int(words)] == 0b111 {
			q = s
			break
		}
	}
	masks[q*int(words)] &^= 0b10

	if ds, err := StaticVerify("s", p); err != nil || len(ds) != 0 {
		t.Fatalf("mask-bit flip should be statically silent, got %v, %v", ds, err)
	}
	ds, err := Verify("s", p, testLimits)
	if err != nil {
		t.Fatal(err)
	}
	wantOne(t, ds, KindEquivalence)
	if len(ds[0].Events) == 0 || ds[0].Counterexample == "" {
		t.Fatalf("equivalence diagnostic without counterexample: %+v", ds[0])
	}
	// Replay: the last event is an Open after which member 1 accepts, yet
	// the corrupted run leaves its bit out.
	replay := p.Run()
	defer replay.Release()
	batch := make([]encoding.CodedEvent, len(ds[0].Events))
	for i, e := range ds[0].Events {
		sym, ok := p.Alphabet().ID(e.Label)
		if !ok {
			sym = p.Alphabet().Size()
		}
		batch[i] = encoding.CodedEvent{Sym: alphabet.Sym(sym), Kind: e.Kind}
	}
	hits = replay.SelectStacked(batch, nil)
	if n := len(hits); n == 0 || int(hits[n-1]) != len(batch)-1 || replay.HitMasks()[n-1]&0b10 != 0 {
		t.Errorf("counterexample %q does not replay to a dropped member bit: hits %v masks %v",
			ds[0].Counterexample, hits, replay.HitMasks())
	}
}
