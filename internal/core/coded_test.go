package core

import (
	"math/rand"
	"testing"

	"stackless/internal/alphabet"
	"stackless/internal/classify"
	"stackless/internal/encoding"
	"stackless/internal/paperfigs"
	"stackless/internal/rex"
)

// codedMachine is one compiled evaluator under differential test: the coded
// pipeline must agree with the string pipeline on every stream, including
// malformed ones and labels outside the alphabet ("zz" below).
type codedMachine struct {
	name  string
	fresh func() Evaluator
	blind bool // term encoding: closes carry no label
}

func codedMachines(t *testing.T) []codedMachine {
	t.Helper()
	an3a := classify.Analyze(paperfigs.Fig3a())
	an3b := classify.Analyze(paperfigs.Fig3b())
	an3c := classify.Analyze(paperfigs.Fig3c())
	cof, err := rex.CompileString("ab|ba", paperfigs.GammaABC())
	if err != nil {
		t.Fatal(err)
	}
	anCof := classify.Analyze(cof.Complement())

	mk := func(name string, blind bool, build func() (Evaluator, error)) codedMachine {
		if _, err := build(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return codedMachine{name: name, blind: blind, fresh: func() Evaluator {
			ev, _ := build()
			return ev
		}}
	}
	return []codedMachine{
		mk("tagdfa/markup", false, func() (Evaluator, error) {
			d, err := RegisterlessQL(an3a)
			if err != nil {
				return nil, err
			}
			return d.Evaluator(), nil
		}),
		mk("tagdfa/term", true, func() (Evaluator, error) {
			d, err := BlindRegisterlessQL(an3a)
			if err != nil {
				return nil, err
			}
			return d.Evaluator(), nil
		}),
		mk("stackless/markup", false, func() (Evaluator, error) { return StacklessQL(an3c) }),
		mk("stackless/term", true, func() (Evaluator, error) { return BlindStacklessQL(an3c) }),
		mk("el/stackless", false, func() (Evaluator, error) { return wrapped(ELFromQL, StacklessQL, an3c) }),
		mk("al/stackless-term", true, func() (Evaluator, error) { return wrapped(ALFromQL, BlindStacklessQL, an3c) }),
		mk("el/tagdfa-term", true, func() (Evaluator, error) {
			d, err := BlindRegisterlessQL(an3a)
			if err != nil {
				return nil, err
			}
			return ELFromQL(d.Evaluator().(Chunkable)), nil
		}),
		mk("al/tagdfa", false, func() (Evaluator, error) {
			d, err := RegisterlessQL(an3a)
			if err != nil {
				return nil, err
			}
			return ALFromQL(d.Evaluator().(Chunkable)), nil
		}),
		mk("synopsis/el", false, func() (Evaluator, error) { return RegisterlessEL(an3a) }),
		mk("synopsis/el-cofinite", false, func() (Evaluator, error) { return RegisterlessEL(anCof) }),
		mk("synopsis/al", false, func() (Evaluator, error) { return RegisterlessAL(an3b) }),
		mk("synopsis/al-term", true, func() (Evaluator, error) { return BlindRegisterlessAL(an3b) }),
		{name: "dra/example22", fresh: func() Evaluator { return Example22().Evaluator() }},
		{name: "dra/example26", fresh: func() Evaluator { return Example26().Evaluator() }},
		{name: "dra/example27", fresh: func() Evaluator { return Example27Minimal().Evaluator() }},
	}
}

// wrapped builds an EL or AL wrapper over a stackless machine.
func wrapped(wrap func(Chunkable) Chunkable, build func(*classify.Analysis) (*StacklessEvaluator, error), an *classify.Analysis) (Evaluator, error) {
	m, err := build(an)
	if err != nil {
		return nil, err
	}
	return wrap(m), nil
}

// checkCodedParity runs the same stream through the string and coded
// pipelines and fails on any divergence in events, matches or acceptance.
func checkCodedParity(t *testing.T, m codedMachine, events []encoding.Event) {
	t.Helper()
	ev := m.fresh()
	if _, ok := ev.(BatchEvaluator); !ok {
		t.Fatalf("%s: evaluator does not implement BatchEvaluator", m.name)
	}
	var want, got []Match
	nWant, err1 := Select(ev, encoding.NewSliceSource(events), func(mm Match) { want = append(want, mm) })
	nGot, err2 := SelectCoded(ev, encoding.NewSliceSource(events), func(mm Match) { got = append(got, mm) })
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: select errors %v / %v", m.name, err1, err2)
	}
	if nWant != nGot {
		t.Fatalf("%s: events %d (string) vs %d (coded) on %v", m.name, nWant, nGot, events)
	}
	if len(want) != len(got) {
		t.Fatalf("%s: %d matches (string) vs %d (coded) on %v", m.name, len(want), len(got), events)
	}
	for i := range want {
		if want[i].Pos != got[i].Pos || want[i].Depth != got[i].Depth || want[i].Label != got[i].Label {
			t.Fatalf("%s: match %d: %+v (string) vs %+v (coded) on %v", m.name, i, want[i], got[i], events)
		}
	}
	accWant, err1 := Recognize(ev, encoding.NewSliceSource(events))
	accGot, err2 := RecognizeCoded(ev, encoding.NewSliceSource(events))
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: recognize errors %v / %v", m.name, err1, err2)
	}
	if accWant != accGot {
		t.Fatalf("%s: accept %v (string) vs %v (coded) on %v", m.name, accWant, accGot, events)
	}
}

// enumEvents enumerates every event sequence of the given length over the
// alphabet {a,b} plus the out-of-alphabet label zz, calling f for each.
// Markup closes carry labels; term closes don't.
func enumEvents(length int, blind bool, f func([]encoding.Event)) {
	var alts []encoding.Event
	for _, l := range []string{"a", "b", "zz"} {
		alts = append(alts, encoding.Event{Kind: encoding.Open, Label: l})
	}
	if blind {
		alts = append(alts, encoding.Event{Kind: encoding.Close})
	} else {
		for _, l := range []string{"a", "b", "zz"} {
			alts = append(alts, encoding.Event{Kind: encoding.Close, Label: l})
		}
	}
	seq := make([]encoding.Event, length)
	var rec func(i int)
	rec = func(i int) {
		if i == length {
			f(seq)
			return
		}
		for _, e := range alts {
			seq[i] = e
			rec(i + 1)
		}
	}
	rec(0)
}

// TestCodedParityExhaustive: every stream up to 5 events — balanced or not,
// with labels outside the alphabet anywhere — behaves identically under the
// two pipelines, for every compiled evaluator. This includes the ordering
// corners: unknown labels at popping closes (stackless), the B′ leaf check
// before label resolution (synopsis), and term closes that never look at
// the label (tag DFAs).
func TestCodedParityExhaustive(t *testing.T) {
	for _, m := range codedMachines(t) {
		maxLen := 5
		if m.blind {
			maxLen = 6 // fewer alternatives per position
		}
		for length := 0; length <= maxLen; length++ {
			enumEvents(length, m.blind, func(seq []encoding.Event) {
				checkCodedParity(t, m, seq)
			})
		}
	}
}

// randomEvents draws a random stream: mostly balanced tree prefixes, with
// unbalanced noise and unknown labels mixed in.
func randomEvents(rng *rand.Rand, blind bool, n int) []encoding.Event {
	labels := []string{"a", "b", "c", "zz"}
	events := make([]encoding.Event, 0, n)
	depth := 0
	for len(events) < n {
		if depth > 0 && rng.Intn(2) == 0 {
			e := encoding.Event{Kind: encoding.Close}
			if !blind {
				e.Label = labels[rng.Intn(len(labels))]
			}
			events = append(events, e)
			depth--
			continue
		}
		events = append(events, encoding.Event{Kind: encoding.Open, Label: labels[rng.Intn(len(labels))]})
		depth++
	}
	return events
}

// TestCodedParityRandom: longer random streams, same differential check.
func TestCodedParityRandom(t *testing.T) {
	for _, m := range codedMachines(t) {
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 400; i++ {
			checkCodedParity(t, m, randomEvents(rng, m.blind, 1+rng.Intn(80)))
		}
	}
}

// TestCodedParityBatchBoundary: streams longer than the batch size, so the
// runtime state (depth, records, synopsis, registers) must survive batch
// boundaries intact.
func TestCodedParityBatchBoundary(t *testing.T) {
	for _, m := range codedMachines(t) {
		rng := rand.New(rand.NewSource(99))
		checkCodedParity(t, m, randomEvents(rng, m.blind, 2*encoding.DefaultBatch+37))
	}
}

// TestCodedUnknownSurvivesPoppingClose pins the lazy close resolution of
// the stackless machine: a close that pops its record never consults the
// label, so an unknown label there must NOT poison the run and matches
// after it must still be reported — on both pipelines.
func TestCodedUnknownSurvivesPoppingClose(t *testing.T) {
	ev, err := StacklessQL(classify.Analyze(paperfigs.Fig3c()))
	if err != nil {
		t.Fatal(err)
	}
	// .*a.*b: <a> pushes a record at depth 1 (SCC change out of the start
	// component). The close zz drops the depth below that record, so it pops
	// — reverting to the start state without ever consulting the label — and
	// the subsequent <a><b> must still select its b.
	events := []encoding.Event{
		{Kind: encoding.Open, Label: "a"},
		{Kind: encoding.Close, Label: "zz"},
		{Kind: encoding.Open, Label: "a"},
		{Kind: encoding.Open, Label: "b"},
	}
	var got []Match
	if _, err := SelectCoded(ev, encoding.NewSliceSource(events), func(mm Match) { got = append(got, mm) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Pos != 2 || got[0].Label != "b" || got[0].Depth != 2 {
		t.Fatalf("unknown label at popping close poisoned the coded run: matches %+v", got)
	}
	checkCodedParity(t, codedMachine{name: "stackless/popping", fresh: func() Evaluator {
		e, _ := StacklessQL(classify.Analyze(paperfigs.Fig3c()))
		return e
	}}, events)
}

// TestCodedUnknownOpenPoisons: an out-of-alphabet open is absorbing on
// every compiled evaluator; nothing is ever selected afterwards.
func TestCodedUnknownOpenPoisons(t *testing.T) {
	for _, m := range codedMachines(t) {
		events := []encoding.Event{
			{Kind: encoding.Open, Label: "zz"},
			{Kind: encoding.Open, Label: "a"},
			{Kind: encoding.Open, Label: "b"},
		}
		if _, ok := m.fresh().(*chunkableAL); ok {
			// The AL wrapper accepts until a leaf is rejected: the dead inner
			// selects nothing, so the first leaf below the unknown open
			// fails the run.
			leaf := encoding.Event{Kind: encoding.Close}
			if !m.blind {
				leaf.Label = "b"
			}
			events = append(events, leaf)
			if acc, err := RecognizeCoded(m.fresh(), encoding.NewSliceSource(events)); err != nil || acc {
				t.Fatalf("%s: accepting (%v, %v) after a leaf below an out-of-alphabet open", m.name, acc, err)
			}
			checkCodedParity(t, m, events)
			continue
		}
		n := 0
		if _, err := SelectCoded(m.fresh(), encoding.NewSliceSource(events), func(Match) { n++ }); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if n != 0 {
			t.Fatalf("%s: %d matches after an out-of-alphabet open, want 0", m.name, n)
		}
		acc, err := RecognizeCoded(m.fresh(), encoding.NewSliceSource(events))
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if acc {
			t.Fatalf("%s: accepting after an out-of-alphabet open", m.name)
		}
		checkCodedParity(t, m, events)
	}
}

// TestCodedStepInterleave mixes the two pipelines on one evaluator — string
// Step for a prefix, StepBatch for the rest — the exact access pattern of
// the chunk-parallel join, which replays boundary events through Step
// between coded segments.
func TestCodedStepInterleave(t *testing.T) {
	for _, m := range codedMachines(t) {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 200; i++ {
			events := randomEvents(rng, m.blind, 2+rng.Intn(40))
			cut := rng.Intn(len(events))

			ref := m.fresh()
			ref.Reset()
			for _, e := range events {
				ref.Step(e)
			}

			mixed := m.fresh().(BatchEvaluator)
			mixed.Reset()
			for _, e := range events[:cut] {
				mixed.Step(e)
			}
			coder := alphabet.NewCoder(mixed.CodeAlphabet())
			mixed.StepBatch(encoding.CodeEvents(coder, events[cut:], nil))

			if ref.Accepting() != mixed.Accepting() {
				t.Fatalf("%s: interleaved run diverges (cut %d) on %v", m.name, cut, events)
			}
		}
	}
}

// Segment kernel parity: the coded all-states kernels must produce the
// same exits and candidate sets as SimulateSegmentGeneric, which steps each
// entry state's run through Step, unknown labels and all.
func TestCodedSegmentKernelParity(t *testing.T) {
	an3a := classify.Analyze(paperfigs.Fig3a())
	an3c := classify.Analyze(paperfigs.Fig3c())
	tagM, err := RegisterlessQL(an3a)
	if err != nil {
		t.Fatal(err)
	}
	tagB, err := BlindRegisterlessQL(an3a)
	if err != nil {
		t.Fatal(err)
	}
	stM, err := StacklessQL(an3c)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := BlindStacklessQL(an3c)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		ev    Evaluator
		blind bool
	}{
		{"tagdfa/markup", tagM.Evaluator(), false},
		{"tagdfa/term", tagB.Evaluator(), true},
		{"stackless/markup", stM, false},
		{"stackless/term", stB, true},
	}
	for _, c := range cases {
		ck := c.ev.(CodedSegmentKernel)
		ch := c.ev.(Chunkable)
		be := c.ev.(BatchEvaluator)
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 300; i++ {
			seg := randomEvents(rng, c.blind, 1+rng.Intn(30))
			want := NewCandSet(ch.ChunkStates())
			got := NewCandSet(ch.ChunkStates())
			exWant := SimulateSegmentGeneric(ch.Fork(), seg, want)
			exGot := ck.SimulateSegmentCoded(encoding.CodeEvents(alphabet.NewCoder(be.CodeAlphabet()), seg, nil), got)
			if len(exWant) != len(exGot) {
				t.Fatalf("%s: exit count %d vs %d", c.name, len(exWant), len(exGot))
			}
			for q := range exWant {
				if exWant[q].State != exGot[q].State {
					t.Fatalf("%s: exit[%d] state %d (generic) vs %d (coded) on %v", c.name, q, exWant[q].State, exGot[q].State, seg)
				}
				rw, _ := exWant[q].Regs.([]record)
				rg, _ := exGot[q].Regs.([]record)
				if len(rw) != len(rg) {
					t.Fatalf("%s: exit[%d] %d records vs %d on %v", c.name, q, len(rw), len(rg), seg)
				}
				for j := range rw {
					if rw[j] != rg[j] {
						t.Fatalf("%s: exit[%d] record %d: %+v vs %+v", c.name, q, j, rw[j], rg[j])
					}
				}
			}
			if len(want.Cands) != len(got.Cands) {
				t.Fatalf("%s: %d candidates (generic) vs %d (coded) on %v", c.name, len(want.Cands), len(got.Cands), seg)
			}
			for j := range want.Cands {
				if want.Cands[j] != got.Cands[j] {
					t.Fatalf("%s: candidate %d: %+v vs %+v", c.name, j, want.Cands[j], got.Cands[j])
				}
				for w := 0; w < want.Words; w++ {
					if want.Masks[j*want.Words+w] != got.Masks[j*got.Words+w] {
						t.Fatalf("%s: candidate %d mask word %d: %x vs %x", c.name, j, w, want.Masks[j*want.Words+w], got.Masks[j*got.Words+w])
					}
				}
			}
		}
	}
}
