package classify

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"stackless/internal/alphabet"
	"stackless/internal/dfa"
	"stackless/internal/paperfigs"
	"stackless/internal/rex"
)

func analyzeRegex(t *testing.T, expr, gamma string) *Analysis {
	t.Helper()
	d, err := rex.CompileString(expr, alphabet.Letters(gamma))
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	return Analyze(d)
}

// TestFig3Classification checks the syntactic classes of the Figure 3
// automata, which the paper states explicitly below Definition 3.6:
// 3a is almost-reversible; 3b is R-trivial (not almost-reversible);
// 3c is HAR but neither almost-reversible nor R-trivial; 3d is not HAR.
func TestFig3Classification(t *testing.T) {
	type want struct {
		almostRev, har, rtrivial bool
	}
	cases := []struct {
		name, expr string
		want       want
	}{
		{"Fig3a aΓ*b", paperfigs.Fig3aRegex, want{true, true, false}},
		{"Fig3b ab", paperfigs.Fig3bRegex, want{false, true, true}},
		{"Fig3c Γ*aΓ*b", paperfigs.Fig3cRegex, want{false, true, false}},
		{"Fig3d Γ*ab", paperfigs.Fig3dRegex, want{false, false, false}},
	}
	for _, c := range cases {
		a := analyzeRegex(t, c.expr, "abc")
		ar, _ := a.AlmostReversible()
		har, _ := a.HAR()
		if ar != c.want.almostRev {
			t.Errorf("%s: almost-reversible = %v, want %v", c.name, ar, c.want.almostRev)
		}
		if har != c.want.har {
			t.Errorf("%s: HAR = %v, want %v", c.name, har, c.want.har)
		}
		if rt := a.RTrivial(); rt != c.want.rtrivial {
			t.Errorf("%s: R-trivial = %v, want %v", c.name, rt, c.want.rtrivial)
		}
	}
}

// TestExample212Table reproduces the headline table of Example 2.12 for the
// markup encoding via Theorems 3.1 and 3.2.
func TestExample212Table(t *testing.T) {
	for _, row := range paperfigs.Example212() {
		a := analyzeRegex(t, row.Regex, "abc")
		r := a.Report()
		if got := r.QLRegisterless(); got != row.Registerless {
			t.Errorf("%s (%s): registerless = %v, want %v", row.XPath, row.Regex, got, row.Registerless)
		}
		if got := r.QLStackless(); got != row.Stackless {
			t.Errorf("%s (%s): stackless = %v, want %v", row.XPath, row.Regex, got, row.Stackless)
		}
	}
}

// TestExample212TermEncoding checks the Section 4.2 claim: under the term
// encoding the same table holds (first registerless, middle two stackless
// only, last not stackless), using the blind classes.
func TestExample212TermEncoding(t *testing.T) {
	wantReg := []bool{true, false, false, false}
	wantStack := []bool{true, true, true, false}
	for i, row := range paperfigs.Example212() {
		a := analyzeRegex(t, row.Regex, "abc")
		r := a.Report()
		if got := r.TermQLRegisterless(); got != wantReg[i] {
			t.Errorf("%s: term registerless = %v, want %v", row.XPath, got, wantReg[i])
		}
		if got := r.TermQLStackless(); got != wantStack[i] {
			t.Errorf("%s: term stackless = %v, want %v", row.XPath, got, wantStack[i])
		}
	}
}

// TestFig2SeparationMarkupVsTerm checks the Section 4.2 separation: the
// reversible automaton of Figure 2 is registerless under the markup
// encoding but not even stackless under the term encoding.
func TestFig2SeparationMarkupVsTerm(t *testing.T) {
	a := Analyze(paperfigs.Fig2())
	if !a.Reversible() {
		t.Fatal("Fig2 automaton should be reversible")
	}
	if ar, w := a.AlmostReversible(); !ar {
		t.Fatalf("Fig2 should be almost-reversible, witness %+v", w)
	}
	if bhar, _ := a.BlindHAR(); bhar {
		t.Error("Fig2 should NOT be blindly HAR (term encoding costs expressivity)")
	}
	if bar, _ := a.BlindAlmostReversible(); bar {
		t.Error("Fig2 should NOT be blindly almost-reversible")
	}
}

// TestEFlatAFlatKnownLanguages: all finite languages are A-flat, all
// co-finite ones are E-flat (Section 3.3), and Fig 3a is both.
func TestEFlatAFlatKnownLanguages(t *testing.T) {
	finite := analyzeRegex(t, "ab|ba|abc", "abc")
	if ok, w := finite.AFlat(); !ok {
		t.Errorf("finite language should be A-flat, witness %+v", w)
	}
	if ok, _ := finite.EFlat(); ok {
		t.Error("ab|ba|abc should not be E-flat (it is not co-finite and not almost-reversible)")
	}
	// Complement of a finite language is E-flat.
	d, _ := rex.CompileString("ab|ba|abc", alphabet.Letters("abc"))
	cofinite := Analyze(d.Complement())
	if ok, w := cofinite.EFlat(); !ok {
		t.Errorf("co-finite language should be E-flat, witness %+v", w)
	}
	a3a := analyzeRegex(t, paperfigs.Fig3aRegex, "abc")
	if ok, _ := a3a.EFlat(); !ok {
		t.Error("aΓ*b should be E-flat")
	}
	if ok, _ := a3a.AFlat(); !ok {
		t.Error("aΓ*b should be A-flat")
	}
}

// TestFlatnessVerdictsMemoized: each flatness verdict is decided once per
// Analysis. Concurrent first calls, as a Query's machine slots make them,
// agree; a later call returns the same verdict and witness and allocates
// nothing. ab|ba|abc is not E-flat and its complement not A-flat, so both
// kinds of verdict carry witnesses.
func TestFlatnessVerdictsMemoized(t *testing.T) {
	d, err := rex.CompileString("ab|ba|abc", alphabet.Letters("abc"))
	if err != nil {
		t.Fatal(err)
	}
	witnesses := 0
	for name, an := range map[string]*Analysis{"finite": Analyze(d), "cofinite": Analyze(d.Complement())} {
		for _, v := range []struct {
			name    string
			verdict func() (bool, *FlatWitness)
		}{
			{"EFlat", an.EFlat}, {"AFlat", an.AFlat}, {"BlindEFlat", an.BlindEFlat}, {"BlindAFlat", an.BlindAFlat},
		} {
			oks := make([]bool, 4)
			ws := make([]*FlatWitness, 4)
			var wg sync.WaitGroup
			for i := range oks {
				wg.Add(1)
				go func(i int, verdict func() (bool, *FlatWitness)) {
					defer wg.Done()
					oks[i], ws[i] = verdict()
				}(i, v.verdict)
			}
			wg.Wait()
			for i := range oks {
				if oks[i] != oks[0] || ws[i] != ws[0] {
					t.Fatalf("%s %s: concurrent calls returned (%v, %p) and (%v, %p)", name, v.name, oks[0], ws[0], oks[i], ws[i])
				}
			}
			if ws[0] != nil {
				witnesses++
			}
			allocs := testing.AllocsPerRun(10, func() {
				if ok, w := v.verdict(); ok != oks[0] || w != ws[0] {
					t.Fatalf("%s %s: second call returned (%v, %p), first (%v, %p)", name, v.name, ok, w, oks[0], ws[0])
				}
			})
			if allocs != 0 {
				t.Errorf("%s %s: a second call allocates %.1f times, want 0", name, v.name, allocs)
			}
		}
	}
	if witnesses < 2 {
		t.Fatalf("%d verdicts carried a witness, want at least 2", witnesses)
	}
}

// TestLemma310Duality property-checks Lemma 3.10 on random automata:
// (1) L is A-flat iff Lᶜ is E-flat; (2) L is almost-reversible iff it is
// both A-flat and E-flat. Plus Lemma 3.7: HAR is closed under complement.
func TestLemma310Duality(t *testing.T) {
	rng := rand.New(rand.NewSource(31415))
	alph := alphabet.Letters("ab")
	for i := 0; i < 400; i++ {
		d := dfa.Random(rng, alph, 1+rng.Intn(6))
		a := Analyze(d)
		ac := Analyze(d.Complement())

		aflat, _ := a.AFlat()
		eflatC, _ := ac.EFlat()
		if aflat != eflatC {
			t.Fatalf("iter %d: A-flat(L)=%v but E-flat(Lᶜ)=%v\n%s", i, aflat, eflatC, a.D)
		}
		ar, _ := a.AlmostReversible()
		eflat, _ := a.EFlat()
		if ar != (aflat && eflat) {
			t.Fatalf("iter %d: almost-rev=%v, A-flat=%v, E-flat=%v\n%s", i, ar, aflat, eflat, a.D)
		}
		har, _ := a.HAR()
		harC, _ := ac.HAR()
		if har != harC {
			t.Fatalf("iter %d: HAR not complement-closed\n%s", i, a.D)
		}
		// Blind analogues (Appendix B).
		baflat, _ := a.BlindAFlat()
		beflatC, _ := ac.BlindEFlat()
		if baflat != beflatC {
			t.Fatalf("iter %d: blind A-flat(L)=%v but blind E-flat(Lᶜ)=%v", i, baflat, beflatC)
		}
		bar, _ := a.BlindAlmostReversible()
		beflat, _ := a.BlindEFlat()
		if bar != (baflat && beflat) {
			t.Fatalf("iter %d: blind almost-rev=%v, blind A-flat=%v, blind E-flat=%v\n%s", i, bar, baflat, beflat, a.D)
		}
		bhar, _ := a.BlindHAR()
		bharC, _ := ac.BlindHAR()
		if bhar != bharC {
			t.Fatalf("iter %d: blind HAR not complement-closed", i)
		}
	}
}

// TestClassInclusions property-checks the inclusions stated in the paper:
// reversible ⊆ almost-reversible ⊆ HAR; R-trivial ⊆ HAR; blind-X ⊆ X.
func TestClassInclusions(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	alph := alphabet.Letters("ab")
	for i := 0; i < 400; i++ {
		a := Analyze(dfa.Random(rng, alph, 1+rng.Intn(6)))
		ar, _ := a.AlmostReversible()
		har, _ := a.HAR()
		eflat, _ := a.EFlat()
		aflat, _ := a.AFlat()
		if a.Reversible() && !ar {
			t.Fatalf("iter %d: reversible but not almost-reversible\n%s", i, a.D)
		}
		if ar && !har {
			t.Fatalf("iter %d: almost-reversible but not HAR\n%s", i, a.D)
		}
		if a.RTrivial() && !har {
			t.Fatalf("iter %d: R-trivial but not HAR\n%s", i, a.D)
		}
		bar, _ := a.BlindAlmostReversible()
		bhar, _ := a.BlindHAR()
		beflat, _ := a.BlindEFlat()
		baflat, _ := a.BlindAFlat()
		if bar && !ar {
			t.Fatalf("iter %d: blindly almost-reversible but not almost-reversible", i)
		}
		if bhar && !har {
			t.Fatalf("iter %d: blindly HAR but not HAR", i)
		}
		if beflat && !eflat {
			t.Fatalf("iter %d: blindly E-flat but not E-flat", i)
		}
		if baflat && !aflat {
			t.Fatalf("iter %d: blindly A-flat but not A-flat", i)
		}
		if a.RTrivial() && !bhar {
			t.Fatalf("iter %d: R-trivial but not blindly HAR (Section 4.2 states the inclusion)", i)
		}
	}
}

// TestWitnessSoundness validates every field of every witness produced on
// random non-member automata.
func TestWitnessSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	alph := alphabet.Letters("abc")
	checkedFlat, checkedHAR, checkedMeet := 0, 0, 0
	for i := 0; i < 300; i++ {
		a := Analyze(dfa.Random(rng, alph, 2+rng.Intn(6)))
		d := a.D
		if ok, w := a.EFlat(); !ok {
			checkedFlat++
			validateFlat(t, a, w, false)
		}
		if ok, w := a.AFlat(); !ok {
			validateFlat(t, a, w, true)
		}
		if ok, w := a.BlindEFlat(); !ok {
			validateFlat(t, a, w, false)
			if len(w.U) != len(w.U2) {
				t.Fatalf("blind flat witness with |U|=%d |U2|=%d", len(w.U), len(w.U2))
			}
		}
		if ok, w := a.HAR(); !ok {
			checkedHAR++
			validateHAR(t, a, w)
		}
		if ok, w := a.BlindHAR(); !ok {
			validateHAR(t, a, w)
			if len(w.U1) != len(w.U2) {
				t.Fatalf("blind HAR witness with |U1|=%d |U2|=%d", len(w.U1), len(w.U2))
			}
		}
		if ok, w := a.AlmostReversible(); !ok {
			checkedMeet++
			if d.StepWord(w.P, w.U) != w.R {
				t.Fatalf("meet witness: P·U != R")
			}
			if d.StepWord(w.Q, w.U2) != w.R {
				t.Fatalf("meet witness: Q·U2 != R")
			}
			if len(w.T) == 0 || d.Accept[d.StepWord(w.P, w.T)] == d.Accept[d.StepWord(w.Q, w.T)] {
				t.Fatalf("meet witness: T does not distinguish")
			}
		}
	}
	if checkedFlat == 0 || checkedHAR == 0 || checkedMeet == 0 {
		t.Fatalf("witness coverage too low: flat=%d har=%d meet=%d", checkedFlat, checkedHAR, checkedMeet)
	}
}

func validateFlat(t *testing.T, a *Analysis, w *FlatWitness, acceptive bool) {
	t.Helper()
	d := a.D
	if len(w.S) == 0 || d.StepWord(d.Start, w.S) != w.P {
		t.Fatalf("flat witness: bad S")
	}
	if len(w.U) == 0 || d.StepWord(w.P, w.U) != w.Q {
		t.Fatalf("flat witness: bad U")
	}
	if d.StepWord(w.Q, w.U2) != w.Q {
		t.Fatalf("flat witness: U2 is not a loop at Q")
	}
	if d.Accept[d.StepWord(w.Q, w.X)] != acceptive {
		t.Fatalf("flat witness: X has wrong polarity")
	}
	if len(w.T) == 0 || d.Accept[d.StepWord(w.P, w.T)] == d.Accept[d.StepWord(w.Q, w.T)] {
		t.Fatalf("flat witness: T does not distinguish P and Q")
	}
	if !a.Internal[w.P] {
		t.Fatalf("flat witness: P not internal")
	}
}

func validateHAR(t *testing.T, a *Analysis, w *HARWitness) {
	t.Helper()
	d := a.D
	if a.Comp[w.P] != a.Comp[w.Q] || a.Comp[w.P] != a.Comp[w.R] {
		t.Fatalf("HAR witness: P,Q,R not in one SCC")
	}
	if d.StepWord(d.Start, w.S) != w.R {
		t.Fatalf("HAR witness: i·S != R")
	}
	if d.StepWord(w.R, w.V) != w.P || d.StepWord(w.R, w.W) != w.Q {
		t.Fatalf("HAR witness: V/W wrong")
	}
	if d.StepWord(w.P, w.U1) != w.R || d.StepWord(w.Q, w.U2) != w.R {
		t.Fatalf("HAR witness: U1/U2 wrong")
	}
	if !d.Accept[d.StepWord(w.P, w.T)] || d.Accept[d.StepWord(w.Q, w.T)] {
		t.Fatalf("HAR witness: T orientation wrong")
	}
	if d.StepWord(w.R, w.LoopR) != w.R || len(w.LoopR) == 0 {
		t.Fatalf("HAR witness: LoopR wrong")
	}
	for _, word := range [][]int{w.S, w.V, w.W, w.U1, w.U2, w.T} {
		if len(word) == 0 {
			t.Fatalf("HAR witness: empty word component")
		}
	}
}

// TestHARWitnessForFig3d sanity-checks the shape of the witness on the one
// paper language that is not HAR.
func TestHARWitnessForFig3d(t *testing.T) {
	a := analyzeRegex(t, paperfigs.Fig3dRegex, "abc")
	ok, w := a.HAR()
	if ok {
		t.Fatal("Γ*ab must not be HAR")
	}
	validateHAR(t, a, w)
}

// TestMeetWordsBasic exercises the pair-graph searches on Fig 3d where
// states 0 (no progress) and 1 (seen a) meet: both reach 0 on b...
func TestMeetWordsBasic(t *testing.T) {
	a := analyzeRegex(t, paperfigs.Fig3dRegex, "abc")
	d := a.D
	// Find the two non-accepting states; they live in one SCC.
	var p, q = -1, -1
	for s := 0; s < d.NumStates(); s++ {
		if !d.Accept[s] {
			if p == -1 {
				p = s
			} else {
				q = s
			}
		}
	}
	u, ok := a.MeetWord(p, q, nil)
	if !ok {
		t.Fatal("states of Γ*ab's core SCC should meet")
	}
	if d.StepWord(p, u) != d.StepWord(q, u) {
		t.Fatal("meet word does not merge the states")
	}
	u1, u2, ok := a.BlindMeetWords(p, q, nil)
	if !ok || d.StepWord(p, u1) != d.StepWord(q, u2) || len(u1) != len(u2) {
		t.Fatal("blind meet incorrect")
	}
}

// TestReportString smoke-tests the report rendering.
func TestReportString(t *testing.T) {
	r := analyzeRegex(t, paperfigs.Fig3aRegex, "abc").Report()
	s := r.String()
	if len(s) == 0 || s[0] != 's' {
		t.Errorf("unexpected report rendering: %q", s)
	}
}

// TestFullyRecursiveHARIffAFlat property-checks the Section 4.1 remark:
// for automata of the fully-recursive shape, HAR and A-flatness coincide
// (which makes Segoufin–Vianu's sufficiency result a special case of
// Theorem 3.2(2) for path DTDs).
func TestFullyRecursiveHARIffAFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	alph := alphabet.Letters("ab")
	tested := 0
	for i := 0; i < 30000 && tested < 400; i++ {
		a := Analyze(dfa.Random(rng, alph, 1+rng.Intn(7)))
		if !a.FullyRecursiveShaped() {
			continue
		}
		tested++
		har, _ := a.HAR()
		aflat, _ := a.AFlat()
		if har != aflat {
			t.Fatalf("fully-recursive shape but HAR=%v A-flat=%v\n%s", har, aflat, a.D)
		}
	}
	if tested < 100 {
		t.Fatalf("too few fully-recursive samples: %d", tested)
	}
}

// TestExplanationsRenderWitnesses smoke-tests the human-readable output on
// the Figure 3 languages.
func TestExplanationsRenderWitnesses(t *testing.T) {
	aHard := analyzeRegex(t, paperfigs.Fig3dRegex, "abc")
	why := aHard.Explanations(aHard.Report())
	if len(why) < 3 {
		t.Fatalf("Γ*ab should miss several classes, got %d explanations", len(why))
	}
	joined := ""
	for _, w := range why {
		joined += w + "\n"
	}
	for _, needle := range []string{"hierarchically", "E-flat", "Figure 5"} {
		if !containsStr(joined, needle) {
			t.Errorf("explanations missing %q:\n%s", needle, joined)
		}
	}
	aEasy := analyzeRegex(t, paperfigs.Fig3aRegex, "abc")
	if why := aEasy.Explanations(aEasy.Report()); len(why) != 0 {
		t.Errorf("aΓ*b should have no failure explanations, got %v", why)
	}
}

func containsStr(haystack, needle string) bool {
	return strings.Contains(haystack, needle)
}
