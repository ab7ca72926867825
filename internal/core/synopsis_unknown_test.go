package core

import (
	"testing"

	"stackless/internal/alphabet"
	"stackless/internal/classify"
	"stackless/internal/encoding"
	"stackless/internal/paperfigs"
)

// The unknown-symbol column of the registerless AL machines — the AL
// wrapper over the flipped synopsis table of Lᶜ — tested directly: an
// out-of-alphabet open poisons the table's evaluator on both the string
// and the coded path, which makes AL false at the next leaf for good, and
// blind machines never consult the label of a closing tag — the unknown
// sentinel on a Close must NOT poison them.

func registerlessAL(t *testing.T, blind bool) Chunkable {
	t.Helper()
	an := classify.Analyze(paperfigs.Fig3b())
	build := RegisterlessAL
	if blind {
		build = BlindRegisterlessAL
	}
	m, err := build(an)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := m.(*chunkableAL)
	if ok {
		_, ok = w.inner.(*tagEvaluator)
	}
	if !ok {
		t.Fatalf("RegisterlessAL returned %T, want the AL wrapper over a synopsis table", m)
	}
	return m
}

// poisoned reports whether the AL wrapper's table evaluator has read a
// label outside the alphabet.
func poisoned(m Chunkable) bool { return m.(*chunkableAL).inner.JoinState() < 0 }

// stepBoth drives the string path on ns and the coded path on nc with the
// same event and asserts their observables agree.
func stepBoth(t *testing.T, ns, nc Chunkable, coder *alphabet.Coder, e encoding.Event) {
	t.Helper()
	ns.Step(e)
	nc.StepBatch([]encoding.CodedEvent{{Sym: coder.Code(e.Label), Kind: e.Kind}})
	if ns.Accepting() != nc.Accepting() {
		t.Fatalf("after %s: Accepting string=%v coded=%v", e, ns.Accepting(), nc.Accepting())
	}
	if sp, cp := poisoned(ns), poisoned(nc); sp != cp {
		t.Fatalf("after %s: poisoned string=%v coded=%v", e, sp, cp)
	}
}

func TestNegatedUnknownOpenPoisons(t *testing.T) {
	for _, blind := range []bool{false, true} {
		name := "markup"
		if blind {
			name = "blind"
		}
		t.Run(name, func(t *testing.T) {
			ns, nc := registerlessAL(t, blind), registerlessAL(t, blind)
			ns.Reset()
			nc.Reset()
			coder := alphabet.NewCoder(nc.CodeAlphabet())
			open := func(l string) encoding.Event { return encoding.Event{Kind: encoding.Open, Label: l} }
			close := func(l string) encoding.Event { return encoding.Event{Kind: encoding.Close, Label: l} }
			if blind {
				close = func(string) encoding.Event { return encoding.Event{Kind: encoding.Close} }
			}

			stepBoth(t, ns, nc, coder, open("a"))
			if poisoned(ns) {
				t.Fatal("known open poisoned the machine")
			}
			stepBoth(t, ns, nc, coder, open("zzz"))
			if !poisoned(nc) {
				t.Fatal("unknown open did not poison the coded machine")
			}
			// Poison is absorbing: the unknown node's Close ends a leaf the
			// dead table cannot select, so AL is false on both paths, and
			// further well-formed events never resurrect the run.
			for _, e := range []encoding.Event{close("zzz"), open("b"), close("b"), close("a")} {
				stepBoth(t, ns, nc, coder, e)
				if !poisoned(nc) {
					t.Fatalf("poison lifted after %s", e)
				}
				if nc.Accepting() {
					t.Fatalf("AL true after %s, past an unknown leaf", e)
				}
			}

			// Reset clears the poison on both paths.
			ns.Reset()
			nc.Reset()
			if poisoned(ns) || poisoned(nc) {
				t.Fatal("Reset did not clear the poison")
			}
		})
	}
}

// TestNegatedBlindUnknownCloseDoesNotPoison pins the asymmetry: the blind
// (term-encoding) machine never reads a closing label, so the coded
// unknown sentinel on a Close — which is how unlabelled closes are coded —
// must leave the machine live, while the markup machine must poison.
func TestNegatedBlindUnknownCloseDoesNotPoison(t *testing.T) {
	drive := func(blind bool) Chunkable {
		m := registerlessAL(t, blind)
		m.Reset()
		coder := alphabet.NewCoder(m.CodeAlphabet())
		m.StepBatch([]encoding.CodedEvent{
			{Sym: coder.Code("a"), Kind: encoding.Open},
			{Sym: coder.Code("b"), Kind: encoding.Open},
			{Sym: coder.Code("zzz"), Kind: encoding.Close}, // unknown close
		})
		return m
	}
	if m := drive(true); poisoned(m) {
		t.Error("blind machine poisoned by the unknown-close sentinel")
	}
	if m := drive(false); !poisoned(m) {
		t.Error("markup machine not poisoned by an unknown closing label")
	}
}

// TestNegatedUnknownAgainstStack cross-checks the registerless AL
// machines' unknown-label verdicts against the stackless tier's over
// documents whose trees are otherwise well-formed, on the string and the
// coded path of both.
func TestNegatedUnknownAgainstStack(t *testing.T) {
	docs := [][]encoding.Event{
		{{Kind: encoding.Open, Label: "zzz"}, {Kind: encoding.Close, Label: "zzz"}},
		{
			{Kind: encoding.Open, Label: "a"},
			{Kind: encoding.Open, Label: "zzz"},
			{Kind: encoding.Close, Label: "zzz"},
			{Kind: encoding.Close, Label: "a"},
		},
		{
			{Kind: encoding.Open, Label: "a"},
			{Kind: encoding.Open, Label: "b"},
			{Kind: encoding.Close, Label: "b"},
			{Kind: encoding.Close, Label: "a"},
		},
		{
			{Kind: encoding.Open, Label: "a"},
			{Kind: encoding.Close, Label: "a"},
		},
	}
	an := classify.Analyze(paperfigs.Fig3b())
	sl, err := StacklessQL(an)
	if err != nil {
		t.Fatal(err)
	}
	stack := ALFromQL(sl)
	for di, doc := range docs {
		want := RunEvents(stack, doc)
		m := registerlessAL(t, false)
		for _, run := range []struct {
			name string
			rec  func(Evaluator, encoding.Source) (bool, error)
		}{{"string", Recognize}, {"coded", RecognizeCoded}} {
			if got, err := run.rec(m, encoding.NewSliceSource(doc)); err != nil || got != want {
				t.Errorf("doc %d %s: AL = %v (%v), stackless tier %v", di, run.name, got, err, want)
			}
			if got, _ := run.rec(stack, encoding.NewSliceSource(doc)); got != want {
				t.Errorf("doc %d %s: stackless tier disagrees with itself", di, run.name)
			}
		}
	}
}
