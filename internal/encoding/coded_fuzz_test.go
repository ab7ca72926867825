package encoding_test

import (
	"bytes"
	"reflect"
	"testing"

	"stackless/internal/classify"
	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/paperfigs"
	"stackless/internal/rex"
	"stackless/internal/stackeval"
)

// FuzzCodedVsString fuzzes the document bytes (brace notation) and checks
// the compiled symbol-coded pipeline against the per-event string pipeline
// for every compiled machine class: match sets from SelectCoded must equal
// Select's exactly, and RecognizeCoded must agree with Recognize. Labels
// outside the machine alphabets code to the unknown sentinel, so malformed
// and out-of-alphabet documents exercise the poison rows of the compiled
// tables — the coding must be observationally lossless even there.
func FuzzCodedVsString(f *testing.F) {
	f.Add([]byte("b{a{}a{}}"))
	f.Add([]byte("a{b{}a{}b{}}"))
	f.Add([]byte("a{a{b{}b{a{}}}b{}}"))
	f.Add([]byte("c{a{c{b{}}}}"))
	f.Add([]byte("a{}"))
	f.Add([]byte("x{y{}}"))    // outside every alphabet: sentinel paths
	f.Add([]byte("a{x{}b{}}")) // sentinel mid-stream between known labels
	f.Add([]byte("a{b{}"))     // malformed: error parity with a partial batch

	anC := classify.Analyze(rex.MustCompile(paperfigs.Fig3cRegex, paperfigs.GammaABC()))
	anA := classify.Analyze(rex.MustCompile(paperfigs.Fig3aRegex, paperfigs.GammaABC()))
	lAB := rex.MustCompile("(b|ab*a)*", paperfigs.GammaAB())
	type machine struct {
		name  string
		fresh func() core.Evaluator
	}
	var machines []machine
	add := func(name string, ev core.Evaluator, err error) {
		if err != nil {
			f.Fatal(err)
		}
		if _, ok := ev.(core.BatchEvaluator); !ok {
			f.Fatalf("%s does not compile", name)
		}
		machines = append(machines, machine{name, func() core.Evaluator { return ev }})
	}
	stackless3c, err := core.BlindStacklessQL(anC)
	if err != nil {
		f.Fatal(err)
	}
	add("blind stackless .*a.*b", stackless3c, nil)
	add("EL of blind stackless .*a.*b", core.ELFromQL(stackless3c), nil)
	add("AL of blind stackless .*a.*b", core.ALFromQL(stackless3c), nil)
	// .*ab is not HAR: its EL and AL run on the pushdown.
	stackAB := stackeval.QL(rex.MustCompile(".*ab", paperfigs.GammaABC()))
	add("EL of stack .*ab", core.ELFromQL(stackAB), nil)
	add("AL of stack .*ab", core.ALFromQL(stackAB), nil)
	tagA, err := core.BlindRegisterlessQL(anA)
	if err != nil {
		f.Fatal(err)
	}
	add("blind registerless a.*b", tagA.Evaluator(), nil)
	el, err := core.RegisterlessEL(anA)
	if err != nil {
		f.Fatal(err)
	}
	add("synopsis EL a.*b", el, nil)
	al, err := core.RegisterlessAL(classify.Analyze(rex.MustCompile(paperfigs.Fig3bRegex, paperfigs.GammaABC())))
	add("synopsis AL "+paperfigs.Fig3bRegex, al, err)
	add("table DRA ex2.2", core.Example22().Evaluator(), nil)
	add("table DRA ex2.5", core.Example25(lAB).Evaluator(), nil)
	add("table DRA ex2.6", core.Example26().Evaluator(), nil)
	add("table DRA ex2.7", core.Example27Minimal().Evaluator(), nil)

	f.Fuzz(func(t *testing.T, doc []byte) {
		events, scanErr := encoding.ReadAll(encoding.NewTermScanner(bytes.NewReader(doc)))
		if len(events) == 0 && scanErr != nil {
			return
		}
		for _, mc := range machines {
			ev := mc.fresh()
			var want []core.Match
			wantN, wantErr := core.Select(ev, encoding.NewSliceSource(events), func(m core.Match) { want = append(want, m) })
			var got []core.Match
			gotN, gotErr := core.SelectCoded(ev, encoding.NewSliceSource(events), func(m core.Match) { got = append(got, m) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: coded matches %v, string matches %v", mc.name, got, want)
			}
			if gotN != wantN || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: coded (%d, %v), string (%d, %v)", mc.name, gotN, gotErr, wantN, wantErr)
			}
			wantOK, wantErr := core.Recognize(ev, encoding.NewSliceSource(events))
			gotOK, gotErr := core.RecognizeCoded(ev, encoding.NewSliceSource(events))
			if gotOK != wantOK || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: RecognizeCoded (%v, %v), Recognize (%v, %v)", mc.name, gotOK, gotErr, wantOK, wantErr)
			}
		}
	})
}
