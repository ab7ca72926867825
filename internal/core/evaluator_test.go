package core

import (
	"slices"
	"testing"

	"stackless/internal/alphabet"
	"stackless/internal/encoding"
	"stackless/internal/tree"
)

// Direct unit tests for the ELFromQL/ALFromQL wrappers (previously only
// exercised through the end-to-end recognizers), including the
// unspecified-after-Close convention: a node-selecting evaluator's
// Accepting value after Close events is unspecified (Section 2.3), so the
// wrappers must never consult it there. Every case runs both by Step and
// by the batch kernels, at several batch sizes.

// mockAlphabet codes the mock's labels.
var mockAlphabet = alphabet.Letters("abc")

// mockQL selects nodes whose label is in sel, tracked with an explicit
// label stack, on the events Step gets and on the coded batches the batch
// kernels get. After Close events its Accepting value is deliberately
// garbage when poisonAfterClose is set, and every Accepting call made
// while the last event was a Close is counted — the wrappers must make
// none. The embedded Chunkable stays nil: the wrappers' Step and batch
// kernels reach only the methods below, never the segment ones.
type mockQL struct {
	Chunkable
	sel              map[string]bool
	poisonAfterClose bool

	stack           []string
	lastWasClose    bool
	calls           int
	callsAfterClose int
}

func (m *mockQL) Reset() {
	m.stack = m.stack[:0]
	m.lastWasClose = false
}

func (m *mockQL) Step(e encoding.Event) {
	if e.Kind == encoding.Open {
		m.stack = append(m.stack, e.Label)
		m.lastWasClose = false
		return
	}
	if n := len(m.stack); n > 0 {
		m.stack = m.stack[:n-1]
	}
	m.lastWasClose = true
}

func (m *mockQL) Accepting() bool {
	m.calls++
	if m.lastWasClose {
		m.callsAfterClose++
		if m.poisonAfterClose {
			return m.calls%2 == 0 // garbage: alternates per call
		}
	}
	return m.selected()
}

func (m *mockQL) selected() bool { return len(m.stack) > 0 && m.sel[m.stack[len(m.stack)-1]] }

// JoinState reports a live run: the mock never poisons.
func (m *mockQL) JoinState() int { return 0 }

func (m *mockQL) CodeAlphabet() *alphabet.Alphabet { return mockAlphabet }

func (m *mockQL) StepBatch(batch []encoding.CodedEvent) { m.SelectBatch(batch, nil) }

func (m *mockQL) SelectBatch(batch []encoding.CodedEvent, hits []int32) []int32 {
	for i, e := range batch {
		label := ""
		if e.Kind == encoding.Open {
			label = mockAlphabet.Symbol(int(e.Sym))
		}
		m.Step(encoding.Event{Kind: e.Kind, Label: label})
		if e.Kind == encoding.Open && m.selected() {
			hits = append(hits, int32(i))
		}
	}
	return hits
}

// batchSizes are the batch sizes every wrapper case runs at: one event per
// batch, sizes that split the documents at every offset, and one batch.
var batchSizes = []int{1, 2, 3, 7, encoding.DefaultBatch}

func runWrapper(w Evaluator, events []encoding.Event) bool {
	w.Reset()
	for _, e := range events {
		w.Step(e)
	}
	return w.Accepting()
}

// runWrapperBatched is runWrapper through StepBatch, size events a batch.
func runWrapperBatched(w Chunkable, events []encoding.Event, size int) bool {
	coded := encoding.CodeEvents(alphabet.NewCoder(w.CodeAlphabet()), events, nil)
	w.Reset()
	for len(coded) > 0 {
		n := min(size, len(coded))
		w.StepBatch(coded[:n])
		coded = coded[n:]
	}
	return w.Accepting()
}

// wrapperHits lists the Opens after which w accepts, by Step.
func wrapperHits(w Evaluator, events []encoding.Event) []int32 {
	var hits []int32
	w.Reset()
	for i, e := range events {
		w.Step(e)
		if e.Kind == encoding.Open && w.Accepting() {
			hits = append(hits, int32(i))
		}
	}
	return hits
}

// wrapperHitsBatched is wrapperHits through SelectBatch, size events a
// batch, with the hits shifted to stream indices.
func wrapperHitsBatched(w Chunkable, events []encoding.Event, size int) []int32 {
	coded := encoding.CodeEvents(alphabet.NewCoder(w.CodeAlphabet()), events, nil)
	var hits []int32
	w.Reset()
	for lo := 0; lo < len(coded); lo += size {
		hi := min(lo+size, len(coded))
		n := len(hits)
		hits = w.SelectBatch(coded[lo:hi], hits)
		for j := n; j < len(hits); j++ {
			hits[j] += int32(lo)
		}
	}
	return hits
}

func TestELALWrapperVerdicts(t *testing.T) {
	cases := []struct {
		doc    string
		sel    []string
		wantEL bool // some leaf selected
		wantAL bool // every leaf selected
	}{
		{"a", []string{"a"}, true, true},
		{"a", []string{"b"}, false, false},
		{"a(b,c)", []string{"b"}, true, false},
		{"a(b,c)", []string{"b", "c"}, true, true},
		{"a(b(c),b)", []string{"b"}, true, false},
		{"a(b(c),b)", []string{"c", "b"}, true, true},
		{"a(a(a(a)))", []string{"a"}, true, true},
		{"a(a(a(a)))", []string{"b"}, false, false},
		{"a(b,b,b,c)", []string{"b"}, true, false},
		{"b(a(c,c),a(c))", []string{"c"}, true, true},
	}
	for _, tc := range cases {
		sel := map[string]bool{}
		for _, s := range tc.sel {
			sel[s] = true
		}
		events := encoding.Markup(tree.MustParse(tc.doc))
		for _, w := range []struct {
			name string
			wrap func(Chunkable) Chunkable
			want bool
		}{{"EL", ELFromQL, tc.wantEL}, {"AL", ALFromQL, tc.wantAL}} {
			for _, poison := range []bool{false, true} {
				inner := &mockQL{sel: sel, poisonAfterClose: poison}
				if got := runWrapper(w.wrap(inner), events); got != w.want {
					t.Errorf("%s(%s, sel=%v, poison=%v) = %v, want %v", w.name, tc.doc, tc.sel, poison, got, w.want)
				}
				if inner.callsAfterClose != 0 {
					t.Errorf("%s(%s): %d Accepting calls after Close events (unspecified there)", w.name, tc.doc, inner.callsAfterClose)
				}
			}
			want := wrapperHits(w.wrap(&mockQL{sel: sel}), events)
			for _, size := range batchSizes {
				inner := &mockQL{sel: sel, poisonAfterClose: true}
				if got := runWrapperBatched(w.wrap(inner), events, size); got != w.want {
					t.Errorf("%s(%s, sel=%v) by StepBatch(%d) = %v, want %v", w.name, tc.doc, tc.sel, size, got, w.want)
				}
				if inner.calls != 0 {
					t.Errorf("%s(%s): StepBatch(%d) made %d Accepting calls", w.name, tc.doc, size, inner.calls)
				}
				if got := wrapperHitsBatched(w.wrap(&mockQL{sel: sel}), events, size); !slices.Equal(got, want) {
					t.Errorf("%s(%s, sel=%v) SelectBatch(%d) hits %v, Step hits %v", w.name, tc.doc, tc.sel, size, got, want)
				}
			}
		}
	}
}

// TestELALWrapperEmptyStream pins the boundary convention: with no events,
// EL rejects (no leaf was selected) and AL rejects too (started is false —
// the empty stream encodes no tree).
func TestELALWrapperEmptyStream(t *testing.T) {
	inner := &mockQL{sel: map[string]bool{"a": true}}
	if runWrapper(ELFromQL(inner), nil) || runWrapperBatched(ELFromQL(inner), nil, 1) {
		t.Error("EL accepts the empty stream")
	}
	if runWrapper(ALFromQL(inner), nil) || runWrapperBatched(ALFromQL(inner), nil, 1) {
		t.Error("AL accepts the empty stream")
	}
	// An empty batch starts no tree either.
	al := ALFromQL(inner)
	al.Reset()
	al.StepBatch(nil)
	if al.Accepting() {
		t.Error("AL accepts after an empty batch")
	}
}

// stepModes feed a wrapper one event at a time: by Step, and by StepBatch
// over one-event batches.
var stepModes = []struct {
	name string
	step func(w Chunkable, e encoding.Event)
}{
	{"Step", func(w Chunkable, e encoding.Event) { w.Step(e) }},
	{"StepBatch", func(w Chunkable, e encoding.Event) {
		w.StepBatch(encoding.CodeEvents(alphabet.NewCoder(w.CodeAlphabet()), []encoding.Event{e}, nil))
	}},
}

// TestELWrapperFreezesAfterMatch: once a selected leaf is seen, the EL
// wrapper's verdict is frozen — later events (including rejected leaves)
// cannot unmatch it, and the inner machine is no longer stepped.
func TestELWrapperFreezesAfterMatch(t *testing.T) {
	for _, mode := range stepModes {
		inner := &mockQL{sel: map[string]bool{"b": true}}
		w := ELFromQL(inner)
		events := encoding.Markup(tree.MustParse("a(b,c,c,c)"))
		w.Reset()
		for i, e := range events {
			mode.step(w, e)
			matchedYet := i >= 2 // b's Close is event index 2
			if w.Accepting() != matchedYet {
				t.Fatalf("%s, event %d: Accepting = %v, want %v", mode.name, i, w.Accepting(), matchedYet)
			}
		}
		// The wrapper froze at b's Close: the inner machine never saw the
		// remaining events, so its stack still holds [a b].
		if len(inner.stack) != 2 {
			t.Fatalf("%s: inner stepped after the match: stack %v", mode.name, inner.stack)
		}
		if inner.callsAfterClose != 0 {
			t.Fatalf("%s: inner consulted after Close: %d", mode.name, inner.callsAfterClose)
		}
	}
}

// TestALWrapperFailsOnFirstRejectedLeaf: the AL wrapper latches failure at
// the first leaf read in a rejecting state.
func TestALWrapperFailsOnFirstRejectedLeaf(t *testing.T) {
	for _, mode := range stepModes {
		inner := &mockQL{sel: map[string]bool{"b": true}}
		w := ALFromQL(inner)
		events := encoding.Markup(tree.MustParse("a(b,c,b)"))
		w.Reset()
		failedAt := -1
		for i, e := range events {
			mode.step(w, e)
			if failedAt < 0 && !w.Accepting() && i > 0 {
				failedAt = i
			}
		}
		if failedAt != 4 { // c's Close is event index 4: the first rejected leaf
			t.Fatalf("%s: failure latched at event %d, want 4", mode.name, failedAt)
		}
		if w.Accepting() {
			t.Fatalf("%s: AL accepted despite a rejected leaf", mode.name)
		}
	}
}

// TestWrapperVariantSelection: the wrappers over a chunkable inner machine
// are the chunkable EL and AL machines.
func TestWrapperVariantSelection(t *testing.T) {
	tag := NewTagDFA(alphabet.Letters("ab"), 1, 0)
	chunkInner, ok := tag.Evaluator().(Chunkable)
	if !ok {
		t.Fatal("tag evaluator is not chunkable")
	}
	el := ELFromQL(chunkInner)
	if _, ok := el.(*chunkableEL); !ok {
		t.Errorf("EL over a chunkable inner: got %T, want *chunkableEL", el)
	}
	al := ALFromQL(chunkInner)
	if _, ok := al.(*chunkableAL); !ok {
		t.Errorf("AL over a chunkable inner: got %T, want *chunkableAL", al)
	}
}
