package encoding

import (
	"errors"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"stackless/internal/alphabet"
	"stackless/internal/gen"
)

// checkBuffer holds ReadBuffer to ReadAll on two fresh copies of one
// source: the same events, kind and label (through the names), and the
// same error, with the events read before it. It also codes the buffer
// through a Remap and checks the codes against CodeEvents over ReadAll's
// events, Open count included.
func checkBuffer(t *testing.T, name string, mk func() Source) {
	t.Helper()
	want, wantErr := ReadAll(mk())
	buf, err := ReadBuffer(mk())
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, ReadAll %v", name, err, wantErr)
	}
	if buf.Len() != len(want) {
		t.Fatalf("%s: %d events, ReadAll %d", name, buf.Len(), len(want))
	}
	opens := 0
	for i, e := range want {
		if got := buf.Event(i); got != e {
			t.Fatalf("%s: event %d = %+v, ReadAll %+v", name, i, got, e)
		}
		if e.Kind == Open {
			opens++
		}
	}
	if buf.Names[0] != "" {
		t.Fatalf("%s: local id 0 is %q, want the empty label", name, buf.Names[0])
	}
	a := alphabet.New("a", "b", "late", "name_straddling_a_refill", "$")
	coded := make([]CodedEvent, buf.Len())
	if got := buf.Remap(a).Recode(coded, buf.Events); got != opens {
		t.Fatalf("%s: Recode counts %d opens, want %d", name, got, opens)
	}
	ref := CodeEvents(alphabet.NewCoder(a), want, nil)
	for i := range ref {
		if coded[i] != ref[i] {
			t.Fatalf("%s: coded event %d = %+v, CodeEvents %+v", name, i, coded[i], ref[i])
		}
	}
}

// TestReadBufferMatchesReadAll runs the buffered read against ReadAll over
// every kind of Source: the XML and term lexers (guard on and off), the
// JSON bridge, a SliceSource and the balance guard over one. The documents
// carry a label first seen after the first 64 KiB window, a name split
// across two reads, stray closes, and a reader that fails mid-stream.
func TestReadBufferMatchesReadAll(t *testing.T) {
	rng := rand.New(rand.NewSource(1913))
	body := XMLString(gen.RandomTree(rng, []string{"a", "b"}, 20000))
	if len(body) <= windowSize {
		t.Fatalf("body of %d bytes fits one window", len(body))
	}
	lateXML := "<r>" + body + "<late><late/></late></r>"
	termBody := TermString(gen.RandomTree(rng, []string{"a", "b"}, 40000))
	if len(termBody) <= windowSize {
		t.Fatalf("term body of %d bytes fits one window", len(termBody))
	}
	lateTerm := "r{" + termBody + "late{late{}}}"
	chunks := func(parts ...string) io.Reader { return &countingReader{chunks: parts} }
	errBoom := errors.New("boom")
	failing := func(prefix string) io.Reader {
		return io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(errBoom))
	}
	tree := gen.RandomTree(rng, []string{"a", "b", "late", "zz"}, 300)

	cases := []struct {
		name string
		mk   func() Source
	}{
		{"xml late label", func() Source { return NewXMLScanner(strings.NewReader(lateXML)) }},
		{"xml late label, odd reads", func() Source { return NewXMLScanner(iotest.HalfReader(strings.NewReader(lateXML))) }},
		{"xml guarded", func() Source { return CheckBalance(NewXMLScanner(strings.NewReader(lateXML))) }},
		{"xml name straddles a read", func() Source {
			return NewXMLScanner(chunks("<a><name_straddl", "ing_a_refill/><b>x</b></a>"))
		}},
		{"xml stray close, unguarded", func() Source { return NewXMLScanner(strings.NewReader("<a></a></b><late/>")) }},
		{"xml stray close, guarded", func() Source { return CheckBalance(NewXMLScanner(strings.NewReader("<a></a></b><late/>"))) }},
		{"xml reader error", func() Source { return NewXMLScanner(failing("<a><b/><late>")) }},
		{"xml truncated", func() Source { return CheckBalance(NewXMLScanner(strings.NewReader("<a><b/><la"))) }},
		{"term late label", func() Source { return NewTermScanner(strings.NewReader(lateTerm)) }},
		{"term guarded", func() Source { return CheckBalance(NewTermScanner(strings.NewReader(lateTerm))) }},
		{"term name straddles a read", func() Source {
			return CheckBalance(NewTermScanner(chunks("a{name_straddl", "ing_a_refill{}b{}}")))
		}},
		{"term stray close, unguarded", func() Source { return NewTermScanner(strings.NewReader("a{}}b{}")) }},
		{"term stray close, guarded", func() Source { return CheckBalance(NewTermScanner(strings.NewReader("a{}}b{}"))) }},
		{"term reader error", func() Source { return NewTermScanner(failing("a{b{}late{")) }},
		{"json", func() Source {
			return NewJSONSource(strings.NewReader(`{"a":{"b":1,"c":[2,{"late":3}]},"late":null}`))
		}},
		{"json truncated", func() Source { return CheckBalance(NewJSONSource(strings.NewReader(`{"a":{"b":[1,`))) }},
		{"slice", func() Source { return NewSliceSource(Markup(tree)) }},
		{"slice term", func() Source { return NewSliceSource(Term(tree)) }},
		{"slice guarded", func() Source { return CheckBalance(NewSliceSource(Term(tree))) }},
	}
	for _, tc := range cases {
		checkBuffer(t, tc.name, tc.mk)
	}
	// The reader's error comes back as is, after the events it completed.
	for _, src := range []Source{NewXMLScanner(failing("<a><b/><late>")), NewTermScanner(failing("a{b{}late{"))} {
		if buf, err := ReadBuffer(src); !errors.Is(err, errBoom) || buf.Len() != 4 {
			t.Fatalf("failing reader: %d events, %v; want 4 events and the reader's error", buf.Len(), err)
		}
	}
}

// TestReadBufferAfterNext: a scanner whose Source view already holds
// events lexed ahead of Next is read through the generic path, from the
// next undelivered event on.
func TestReadBufferAfterNext(t *testing.T) {
	const doc = "<a><b/><late>text</late><b/></a>"
	mk := func() Source {
		s := NewXMLScanner(strings.NewReader(doc))
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	checkBuffer(t, "after one Next", mk)
	buf, err := ReadBuffer(mk())
	if err != nil || buf.Len() != 7 || buf.Event(0) != (Event{Open, "b"}) {
		t.Fatalf("buffer %+v, %v: want the 7 events after the root's Open", buf, err)
	}
}

// TestBufferEventsInternsOnce: each distinct label gets one local id, in
// order of first appearance, and the buffer survives the pooled state.
func TestBufferEventsInternsOnce(t *testing.T) {
	events := []Event{{Open, "b"}, {Open, "a"}, {Close, ""}, {Open, "b"}, {Close, ""}, {Close, ""}}
	buf := BufferEvents(events)
	if want := []string{"", "b", "a"}; !slices.Equal(buf.Names, want) {
		t.Fatalf("names %q, want %q", buf.Names, want)
	}
	ids := make([]alphabet.Sym, buf.Len())
	for i, e := range buf.Events {
		ids[i] = e.Sym
	}
	if want := []alphabet.Sym{1, 2, 0, 1, 0, 0}; !slices.Equal(ids, want) {
		t.Fatalf("local ids %v, want %v", ids, want)
	}
	BufferEvents([]Event{{Open, "x"}, {Close, ""}}) // reuses the pooled table
	if buf.Names[1] != "b" || buf.Names[2] != "a" {
		t.Fatalf("names changed after the pooled state was reused: %q", buf.Names)
	}
}

// TestRecodeShortDestination: Recode writes nothing into a destination
// shorter than its source.
func TestRecodeShortDestination(t *testing.T) {
	buf := BufferEvents([]Event{{Open, "a"}, {Close, "a"}})
	dst := make([]CodedEvent, 1)
	if n := buf.Remap(alphabet.Letters("a")).Recode(dst, buf.Events); n != 0 || dst[0] != (CodedEvent{}) {
		t.Fatalf("Recode into a short destination: %d opens, %+v", n, dst)
	}
}
