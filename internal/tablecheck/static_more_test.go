package tablecheck

import (
	"strings"
	"testing"

	"stackless/internal/classify"
	"stackless/internal/core"
	"stackless/internal/paperfigs"
)

func TestMachineName(t *testing.T) {
	ms, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		name := MachineName(m.M)
		if name == "" || strings.HasPrefix(name, "*") {
			t.Errorf("%s: MachineName fell through to %q", m.Name, name)
		}
	}
	if got := MachineName(42); got != "int" {
		t.Errorf("MachineName(42) = %q", got)
	}
}

// TestDiagnosticCap floods a machine with violations: the report must stop
// at the cap with a truncation notice instead of thousands of lines.
func TestDiagnosticCap(t *testing.T) {
	d := core.Example27Minimal()
	for q := 0; q < d.States; q++ {
		for sym := 0; sym < d.Alphabet.Size(); sym++ {
			d.SetForAllTests(q, sym, false, 0, d.States+9)
			d.SetForAllTests(q, sym, true, 0, d.States+9)
		}
	}
	ds, err := StaticVerify("d", d)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != maxDiagnostics+1 {
		t.Fatalf("got %d diagnostics, want cap %d plus the truncation notice", len(ds), maxDiagnostics+1)
	}
	last := ds[len(ds)-1]
	if !strings.Contains(last.Detail, "limit") {
		t.Errorf("last diagnostic is not the truncation notice: %s", last)
	}
}

func TestCorruptBlindStackless(t *testing.T) {
	an := classify.Analyze(paperfigs.Fig3c())
	fresh := func() *core.StacklessEvaluator {
		ev, err := core.BlindStacklessQL(an)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	n := an.D.NumStates()

	t.Run("closure-backany", func(t *testing.T) {
		ev := fresh()
		_, _, _, backAny, _ := ev.CompiledTables()
		p := -1
		for i, e := range backAny {
			if e >= 0 {
				p = i
				break
			}
		}
		if p < 0 {
			t.Skip("no live backAny candidate")
		}
		backAny[p] = int32(n + 4)
		ds, err := StaticVerify("s", ev)
		if err != nil {
			t.Fatal(err)
		}
		// The flip surfaces both as an out-of-range candidate and as a
		// sel/backAny disagreement in the fused close columns.
		if len(ds) == 0 {
			t.Fatal("corrupted backAny not reported")
		}
		found := false
		for _, d := range ds {
			if d.Kind == KindClosure {
				found = true
			}
		}
		if !found {
			t.Errorf("expected a closure diagnostic, got %v", ds)
		}
	})
	t.Run("totality-unknown-close", func(t *testing.T) {
		ev := fresh()
		_, sel, _, backAny, _ := ev.CompiledTables()
		k := an.D.Alphabet.Size()
		w := 2 * (k + 1)
		p := -1
		for i, e := range backAny {
			if e != 0 {
				p = i
				break
			}
		}
		if p < 0 {
			t.Skip("no distinguishable state")
		}
		sel[p*w+(k<<1|1)] = 0 // no longer equals backAny[p]
		ds, err := StaticVerify("s", ev)
		if err != nil {
			t.Fatal(err)
		}
		wantOnlyKind(t, ds, KindTotality)
	})
}

// TestZeroLimits checks that zero-valued Limits fall back to the issue's
// default bounds instead of searching nothing.
func TestZeroLimits(t *testing.T) {
	d := freshTagDFA(t)
	_, n, err := Equivalence("t", d, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if n < 1000 {
		t.Errorf("zero limits explored only %d joint states", n)
	}
}

// TestShapeStackless covers the shape scan of the five-table machine via
// the blind/markup table mixups that cannot happen in-place: verified
// through the length checks on a machine observed mid-corruption is not
// constructible, so check the markup table lengths directly instead.
func TestShapeStackless(t *testing.T) {
	ev := freshStackless(t)
	delta, sel, back, backAny, comp := ev.CompiledTables()
	an := ev.Analysis()
	n := an.D.NumStates()
	k := an.D.Alphabet.Size()
	if len(delta) != n*(k+1) || len(sel) != 2*n*(k+1) || len(comp) != n {
		t.Errorf("table lengths delta=%d sel=%d comp=%d for n=%d k=%d", len(delta), len(sel), len(comp), n, k)
	}
	if backAny != nil || len(back) != (k+1)*n {
		t.Errorf("markup machine has backAny=%v back=%d", backAny, len(back))
	}
}
