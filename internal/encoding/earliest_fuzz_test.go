package encoding_test

import (
	"bytes"
	"reflect"
	"testing"

	"stackless/internal/classify"
	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/paperfigs"
	"stackless/internal/parallel"
	"stackless/internal/rex"
	"stackless/internal/stackeval"
)

// FuzzEarliestVsCurrent fuzzes the document bytes (brace notation) plus one
// chunk-cut position and checks the earliest-emission driver (DESIGN.md
// §14) against the string Select for every compiled machine class, the
// exact tiers (tag DFA, stackless) and the approximated ones (synopsis
// EL/AL, table DRAs, the pushdown). The driver runs twice: over the
// events ReadAll scanned, as a SliceSource, where matches, event count and
// error presence must equal Select's; and straight over a TermScanner on
// the bytes, the eager lexer batches every public earliest call reads,
// where the matches must be Select's and the event count and error
// presence ReadAll's. For chunkable machines the chunk-parallel engine
// cut at the fuzzed position must reproduce the same matches — earliest
// decisions must survive adversarial chunk joins. Out-of-alphabet labels
// exercise the poison path, where the earliest flags decide immediately.
func FuzzEarliestVsCurrent(f *testing.F) {
	f.Add([]byte("b{a{}a{}}"), uint(1))
	f.Add([]byte("a{b{}a{}b{}}"), uint(4))
	f.Add([]byte("a{a{b{}b{a{}}}b{}}"), uint(7))
	f.Add([]byte("c{a{c{b{}}}}"), uint(3))
	f.Add([]byte("a{}"), uint(1))
	f.Add([]byte("x{y{}}"), uint(2))    // outside every alphabet: decided at event 0
	f.Add([]byte("a{x{}b{}}"), uint(3)) // sentinel mid-stream between known labels
	f.Add([]byte("a{b{}"), uint(2))     // malformed: error parity on a partial document

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
		machines = append(machines, machine{name, func() core.Evaluator { return ev }})
	}
	stackless3c, err := core.BlindStacklessQL(anC)
	if err != nil {
		f.Fatal(err)
	}
	add("blind stackless .*a.*b", stackless3c, nil)
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
	add("pushdown .*ab", stackeval.QL(rex.MustCompile(".*ab", paperfigs.GammaABC())), nil)

	f.Fuzz(func(t *testing.T, doc []byte, cut uint) {
		events, scanErr := encoding.ReadAll(encoding.NewTermScanner(bytes.NewReader(doc)))
		for _, mc := range machines {
			ev := mc.fresh()
			var want []core.Match
			wantN, wantErr := core.Select(ev, encoding.NewSliceSource(events), func(m core.Match) { want = append(want, m) })
			var got []core.Match
			gotN, gotErr := core.SelectEarliest(ev, encoding.NewSliceSource(events), func(m core.Match) { got = append(got, m) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: earliest matches %v, string matches %v", mc.name, got, want)
			}
			if gotN != wantN || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: earliest (%d, %v), string (%d, %v)", mc.name, gotN, gotErr, wantN, wantErr)
			}
			var lexed []core.Match
			lexN, lexErr := core.SelectEarliest(ev, encoding.NewTermScanner(bytes.NewReader(doc)), func(m core.Match) { lexed = append(lexed, m) })
			if !reflect.DeepEqual(lexed, want) {
				t.Fatalf("%s: earliest matches over the scanner %v, string matches %v", mc.name, lexed, want)
			}
			if lexN != len(events) || (lexErr == nil) != (scanErr == nil) {
				t.Fatalf("%s: earliest over the scanner (%d, %v), ReadAll (%d, %v)", mc.name, lexN, lexErr, len(events), scanErr)
			}
			cm, ok := ev.(core.Chunkable)
			if !ok || scanErr != nil || wantErr != nil || len(events) < 2 {
				continue
			}
			var par []core.Match
			parallel.SelectAt(parallel.Shared(), cm, events, []int{1 + int(cut)%(len(events)-1)}, func(m core.Match) { par = append(par, m) })
			if !reflect.DeepEqual(par, want) {
				t.Fatalf("%s: parallel-at-cut matches %v, earliest matches %v", mc.name, par, want)
			}
		}
	})
}
