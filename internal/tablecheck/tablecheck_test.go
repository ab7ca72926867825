package tablecheck

import (
	"strings"
	"testing"

	"stackless/internal/alphabet"
	"stackless/internal/classify"
	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/paperfigs"
)

// testLimits keeps the per-machine search small enough for the unit-test
// tier; cmd/tablecheck runs the full DefaultLimits bounds.
var testLimits = Limits{Depth: 3, Width: 2, Alpha: 3, MaxNodes: 30000}

func TestCorpusClean(t *testing.T) {
	ms, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) < 10 {
		t.Fatalf("corpus has only %d machines", len(ms))
	}
	for _, m := range ms {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			lim := testLimits
			if testing.Short() {
				lim = Limits{Depth: 2, Width: 2, Alpha: 2, MaxNodes: 4000}
			}
			ds, err := Verify(m.Name, m.M, lim)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range ds {
				t.Errorf("unexpected diagnostic: %s", d)
			}
		})
	}
}

// wantOnlyKind asserts that every diagnostic is of kind k and there is at
// least one.
func wantOnlyKind(t *testing.T, ds []Diagnostic, k Kind) {
	t.Helper()
	if len(ds) == 0 {
		t.Fatalf("expected %s diagnostics, got none", k)
	}
	for _, d := range ds {
		if d.Kind != k {
			t.Errorf("expected only %s diagnostics, got %s", k, d)
		}
	}
}

func freshTagDFA(t *testing.T) *core.TagDFA {
	t.Helper()
	d, err := core.RegisterlessQL(classify.Analyze(paperfigs.Fig3a()))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCorruptTagDFA(t *testing.T) {
	k := paperfigs.GammaABC().Size()

	t.Run("closure", func(t *testing.T) {
		d := freshTagDFA(t)
		tab, _, _, dead := d.CompiledTable()
		tab[0] = dead + 5
		ds, err := Verify("t", d, testLimits)
		if err != nil {
			t.Fatal(err)
		}
		wantOnlyKind(t, ds, KindClosure)
	})
	t.Run("flags-dead-row", func(t *testing.T) {
		d := freshTagDFA(t)
		tab, _, stride, dead := d.CompiledTable()
		tab[int(dead)*int(stride)] = 0
		ds, err := Verify("t", d, testLimits)
		if err != nil {
			t.Fatal(err)
		}
		wantOnlyKind(t, ds, KindFlags)
	})
	t.Run("flags-dead-accepts", func(t *testing.T) {
		d := freshTagDFA(t)
		_, acc, _, dead := d.CompiledTable()
		acc[dead] = true
		ds, err := Verify("t", d, testLimits)
		if err != nil {
			t.Fatal(err)
		}
		wantOnlyKind(t, ds, KindFlags)
	})
	t.Run("totality", func(t *testing.T) {
		d := freshTagDFA(t)
		tab, _, _, _ := d.CompiledTable()
		tab[k<<1] = 0 // unknown open column of state 0 routed to a live state
		ds, err := Verify("t", d, testLimits)
		if err != nil {
			t.Fatal(err)
		}
		wantOnlyKind(t, ds, KindTotality)
	})
}

// TestCorruptTagDFAEquivalence flips a live entry to a different in-range
// state: statically silent (the compiled table stays well shaped), caught
// only by the bounded-equivalence search, with a counterexample that must
// replay to a real divergence.
func TestCorruptTagDFAEquivalence(t *testing.T) {
	d := freshTagDFA(t)
	tab, acc, stride, dead := d.CompiledTable()

	// Find a live open entry whose acceptance differs from some other live
	// state's, and flip it there.
	n := int(dead)
	flipped := false
	for q := 0; q < n && !flipped; q++ {
		for col := 0; col < int(stride); col += 2 {
			e := tab[q*int(stride)+col]
			if e == dead {
				continue
			}
			for alt := 0; alt < n; alt++ {
				if int32(alt) != e && acc[alt] != acc[e] {
					tab[q*int(stride)+col] = int32(alt)
					flipped = true
					break
				}
			}
			if flipped {
				break
			}
		}
	}
	if !flipped {
		t.Fatal("no flippable entry found")
	}

	if ds, err := StaticVerify("t", d); err != nil || len(ds) != 0 {
		t.Fatalf("flip should be statically silent, got %v, %v", ds, err)
	}
	ds, err := Verify("t", d, testLimits)
	if err != nil {
		t.Fatal(err)
	}
	wantOnlyKind(t, ds, KindEquivalence)
	ce := ds[0]
	if len(ce.Events) == 0 || ce.Counterexample == "" {
		t.Fatalf("equivalence diagnostic without counterexample: %+v", ce)
	}

	// Replay the counterexample through the string and coded paths of the
	// corrupted machine: they must really diverge on an observable.
	str := d.Evaluator()
	cod := d.Evaluator().(core.BatchEvaluator)
	coder := alphabet.NewCoder(d.Alphabet)
	diverged := false
	for _, e := range ce.Events {
		str.Step(e)
		cod.StepBatch(encoding.CodeEvents(coder, []encoding.Event{e}, nil))
		if str.Accepting() != cod.Accepting() {
			diverged = true
		}
	}
	if !diverged {
		t.Errorf("counterexample %q does not replay to an Accepting divergence", ce.Counterexample)
	}
}

func freshStackless(t *testing.T) *core.StacklessEvaluator {
	t.Helper()
	ev, err := core.StacklessQL(classify.Analyze(paperfigs.Fig3c()))
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestCorruptStackless(t *testing.T) {
	an := classify.Analyze(paperfigs.Fig3c())
	n := an.D.NumStates()
	k := an.D.Alphabet.Size()

	t.Run("closure", func(t *testing.T) {
		ev := freshStackless(t)
		delta, _, _, _, _ := ev.CompiledTables()
		delta[0] = int32(n + 7)
		ds, err := Verify("s", ev, testLimits)
		if err != nil {
			t.Fatal(err)
		}
		wantOnlyKind(t, ds, KindClosure)
	})
	t.Run("flags", func(t *testing.T) {
		ev := freshStackless(t)
		_, sel, _, _, _ := ev.CompiledTables()
		sel[0] ^= core.SelAccBit // open column of (state 0, symbol 0)
		ds, err := Verify("s", ev, testLimits)
		if err != nil {
			t.Fatal(err)
		}
		wantOnlyKind(t, ds, KindFlags)
	})
	t.Run("totality", func(t *testing.T) {
		ev := freshStackless(t)
		delta, _, _, _, _ := ev.CompiledTables()
		delta[k] = 0 // unknown column of state 0 routed to a live state
		ds, err := Verify("s", ev, testLimits)
		if err != nil {
			t.Fatal(err)
		}
		wantOnlyKind(t, ds, KindTotality)
	})
	t.Run("equivalence", func(t *testing.T) {
		// Flip a backtrack candidate in both the back table and the fused
		// sel close column, keeping them consistent: statically silent,
		// caught only by running trees through both paths.
		ev := freshStackless(t)
		_, sel, back, _, _ := ev.CompiledTables()
		w := 2 * (k + 1)
		for a := 0; a < k; a++ {
			for p := 0; p < n; p++ {
				cur := back[a*n+p]
				for c := 0; c < n; c++ {
					if int32(c) == cur {
						continue
					}
					back[a*n+p] = int32(c)
					sel[p*w+(a<<1|1)] = int32(c)
					if ds, err := StaticVerify("s", ev); err != nil || len(ds) != 0 {
						t.Fatalf("in-range flip should be statically silent, got %v, %v", ds, err)
					}
					ds, err := Verify("s", ev, testLimits)
					if err != nil {
						t.Fatal(err)
					}
					if len(ds) > 0 {
						wantOnlyKind(t, ds, KindEquivalence)
						if ds[0].Counterexample == "" {
							t.Errorf("equivalence diagnostic without counterexample: %+v", ds[0])
						}
						return
					}
					// This flip is behaviorally invisible within the bounds;
					// restore it and try the next.
					back[a*n+p] = cur
					sel[p*w+(a<<1|1)] = cur
				}
			}
		}
		t.Error("no backtrack-candidate flip was caught by the equivalence search")
	})
}

func TestCorruptDRA(t *testing.T) {
	t.Run("shape", func(t *testing.T) {
		d := core.Example27Minimal()
		d.Start = -1
		ds, err := Verify("d", d, testLimits)
		if err != nil {
			t.Fatal(err)
		}
		wantOnlyKind(t, ds, KindShape)
	})
	t.Run("closure", func(t *testing.T) {
		d := core.Example27Minimal()
		d.SetTransition(0, 0, false, 0, 0, 0, d.States+3)
		ds, err := Verify("d", d, testLimits)
		if err != nil {
			t.Fatal(err)
		}
		wantOnlyKind(t, ds, KindClosure)
	})
	t.Run("flags", func(t *testing.T) {
		d := core.Example27Minimal()
		d.SetTransition(0, 0, false, 0, 0, core.RegSet(1)<<uint(d.Regs), 0)
		ds, err := Verify("d", d, testLimits)
		if err != nil {
			t.Fatal(err)
		}
		wantOnlyKind(t, ds, KindFlags)
	})
}

// TestCompileHook checks the debug hook: a machine compiled while the hook
// is installed is verified on the spot, and a structurally broken machine
// is reported the moment its table is built.
func TestCompileHook(t *testing.T) {
	var got []Diagnostic
	uninstall := InstallCompileHook(func(d Diagnostic) { got = append(got, d) })
	defer uninstall()

	// A clean machine compiles without a report.
	d := freshTagDFA(t)
	d.CompiledTable()
	if len(got) != 0 {
		t.Fatalf("clean machine reported: %v", got)
	}

	// A hand-built TagDFA with an out-of-range successor is reported as a
	// closure violation when its table is built.
	bad := core.NewTagDFA(alphabet.Letters("ab"), 2, 0)
	bad.OpenT[0][0] = 5
	bad.CompiledTable()
	wantOnlyKind(t, got, KindClosure)
	if !strings.Contains(got[0].Machine, "TagDFA") {
		t.Errorf("hook named the machine %q", got[0].Machine)
	}

	// Uninstall restores the previous hook.
	uninstall()
	if core.CompileHook != nil {
		t.Error("uninstall did not restore the previous hook")
	}
}

func TestVerifyUnsupported(t *testing.T) {
	if _, err := StaticVerify("x", 42); err == nil {
		t.Error("expected an error for an unsupported machine type")
	}
	if _, _, err := Equivalence("x", 42, testLimits); err == nil {
		t.Error("expected an error for an unsupported machine type")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Machine: "m", Kind: KindClosure, Detail: "boom"}
	if got := d.String(); got != "m: [closure] boom" {
		t.Errorf("String() = %q", got)
	}
	d.Counterexample = "a ā"
	if got := d.String(); !strings.Contains(got, "counterexample: a ā") {
		t.Errorf("String() = %q", got)
	}
}
