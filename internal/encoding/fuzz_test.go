package encoding

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
	"testing"

	"stackless/internal/alphabet"
	"stackless/internal/gen"
	"stackless/internal/tree"
)

// Fuzz targets: anything the lexers decode must round-trip through the
// text writers, the lexers must agree with the reference scanners (for
// JSON, encoding/json) on arbitrary bytes, and generated trees written out
// with noise must scan back to their encodings.

func FuzzXMLScanner(f *testing.F) {
	f.Add("<a><b/></a>")
	f.Add("<a><b></b></a>")
	f.Add("<?xml?><!-- c --><a x='1'/>")
	f.Add("<a><b></a></b>")
	f.Add("<<<>>>")
	f.Add("")
	f.Add("<a")
	f.Add(`<a k="/>" j='>'/><!--->--><![CDATA[]]]>]]><!DOCTYPE a>`)
	f.Add("<a/><b/>")
	f.Fuzz(func(t *testing.T, doc string) {
		if n, err := Decode(NewXMLScanner(strings.NewReader(doc))); err == nil {
			back, err := ParseXML(XMLString(n))
			if err != nil || !back.Equal(n) {
				t.Fatalf("decoded tree %s does not round-trip", n)
			}
		}
		checkAgainstReference(t, doc, false)
		rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE([]byte(doc)))))
		n := gen.RandomTree(rng, fuzzLabels, 1+rng.Intn(40))
		text := noisyXML(rng, n)
		got, err := ReadAll(CheckBalance(NewXMLScanner(&chunkReader{data: []byte(text), n: 1 + rng.Intn(9)})))
		if err != nil || !sameEvents(got, Markup(n)) {
			t.Fatalf("noisy XML of %s scanned to %v (err %v):\n%s", n, got, err, text)
		}
	})
}

func FuzzTermScanner(f *testing.F) {
	f.Add("a{b{}c{}}")
	f.Add("a{")
	f.Add("}}}{")
	f.Add("")
	f.Add("label with spaces{}")
	f.Add("{{}a}b{},{}")
	f.Fuzz(func(t *testing.T, doc string) {
		if n, err := Decode(NewTermScanner(strings.NewReader(doc))); err == nil {
			back, err := ParseTerm(TermString(n))
			if err != nil || !back.Equal(n) {
				t.Fatalf("decoded tree %s does not round-trip", n)
			}
		}
		checkAgainstReference(t, doc, true)
		rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE([]byte(doc)))))
		n := gen.RandomTree(rng, fuzzLabels, 1+rng.Intn(40))
		text := spacedTerm(rng, n)
		got, err := ReadAll(CheckBalance(NewTermScanner(&chunkReader{data: []byte(text), n: 1 + rng.Intn(9)})))
		if err != nil || !sameEvents(got, Term(n)) {
			t.Fatalf("spaced term of %s scanned to %v (err %v):\n%s", n, got, err, text)
		}
	})
}

func FuzzJSONSource(f *testing.F) {
	f.Add(`{"a": 1}`)
	f.Add(`[1,[2],{"k":3}]`)
	f.Add(`{`)
	f.Add(`tru`)
	f.Add(`{"a": {"b": [1,2,{"c": null}]}}`)
	f.Add(`{"a\/b":1e400,"\u0073ku":-0.5e+3,"\ud83d\ude00":"\u00e9\t"}`)
	f.Add("{\"\xff\xfe\":[true,false,null,\"\\ud800x\"]} trailing")
	f.Fuzz(func(t *testing.T, doc string) {
		// The lexer and encoding/json reach the same verdict, and on
		// accepted input the same events and labels, read whole and in
		// reads of 1–9 bytes, so refills land inside every token.
		sum := crc32.ChecksumIEEE([]byte(doc))
		checkJSONAgainstReference(t, doc, 0, 1+int(sum%9))
		// A Batcher over the same bytes delivers what ReadAll reads, coded
		// as CodeEvents codes it, with the same Open counts, labels and
		// terminal error.
		want, wantErr := ReadAll(NewJSONSource(strings.NewReader(doc)))
		coder := alphabet.NewCoder(alphabet.New("$", "item", "a", "k"))
		ref := CodeEvents(coder, want, nil)
		b := NewBatcher(NewJSONSource(strings.NewReader(doc)), coder, 7)
		var got []CodedEvent
		var labels []string
		opens, wantOpens := 0, 0
		var err error
		for err == nil {
			var batch []CodedEvent
			var n int
			batch, n, err = b.NextBatch()
			got = append(got, batch...)
			for i := range batch {
				labels = append(labels, b.BatchLabel(i))
			}
			opens += n
		}
		if err == io.EOF {
			err = nil
		}
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("Batcher error %v, ReadAll error %v", err, wantErr)
		}
		if len(got) != len(ref) {
			t.Fatalf("Batcher read %d events, ReadAll %d", len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] || labels[i] != want[i].Label {
				t.Fatalf("event %d: Batcher %+v %q, ReadAll %+v %q", i, got[i], labels[i], ref[i], want[i].Label)
			}
			if want[i].Kind == Open {
				wantOpens++
			}
		}
		if opens != wantOpens {
			t.Fatalf("Batcher counted %d Opens, ReadAll read %d", opens, wantOpens)
		}
		// A generated tree under a $ root, written as JSON with noise,
		// scans back to its term encoding.
		rng := rand.New(rand.NewSource(int64(sum)))
		n := gen.RandomTree(rng, fuzzLabels, 1+rng.Intn(40))
		text := noisyJSON(rng, n)
		events, err := ReadAll(CheckBalance(NewJSONSource(&chunkReader{data: []byte(text), n: 1 + rng.Intn(9)})))
		if err != nil || !sameEvents(events, Term(tree.New(RootLabel, n))) {
			t.Fatalf("noisy JSON of %s scanned to %v (err %v):\n%s", n, events, err, text)
		}
	})
}

// checkJSONAgainstReference runs doc through the JSON lexer, read in each
// of the chunk sizes given (0: whole), with the guard on and off, and
// requires encoding/json's verdict from each: both reject, with typed
// errors and the lexer's naming its offset, or both accept with the same
// events and labels.
func checkJSONAgainstReference(t *testing.T, doc string, chunks ...int) {
	t.Helper()
	for _, guard := range []bool{false, true} {
		var ref Source = newRefJSONSource(strings.NewReader(doc))
		if guard {
			ref = CheckBalance(ref)
		}
		want, refErr := ReadAll(ref)
		if refErr != nil && !errors.Is(refErr, ErrMalformed) {
			t.Fatalf("guard=%v: encoding/json's error %v is untyped on %q", guard, refErr, doc)
		}
		for _, chunk := range chunks {
			var s Source = NewJSONSource(&chunkReader{data: []byte(doc), n: chunk})
			if guard {
				s = CheckBalance(s)
			}
			got, err := ReadAll(s)
			if (err != nil) != (refErr != nil) {
				t.Fatalf("guard=%v chunk=%d: lexer error %v, encoding/json error %v on %q", guard, chunk, err, refErr, doc)
			}
			if err != nil {
				if !errors.Is(err, ErrMalformed) || errorOffset(err) < 0 {
					t.Fatalf("guard=%v chunk=%d: error %v is untyped or names no offset on %q", guard, chunk, err, doc)
				}
				continue
			}
			if !sameEvents(got, want) {
				t.Fatalf("guard=%v chunk=%d: lexer read %q, encoding/json %q on %q", guard, chunk, got, want, doc)
			}
		}
	}
}

var fuzzLabels = []string{"a", "b", "item", "x-y", "ns:c"}

// chunkReader hands out at most n bytes per Read (all when n is 0).
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	if r.n > 0 && len(p) > r.n {
		p = p[:r.n]
	}
	k := copy(p, r.data)
	r.data = r.data[k:]
	return k, nil
}

func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAgainstReference runs doc through the lexer's Source view and its
// coded view (a Batcher), read in each of the chunk sizes given (0: whole;
// by default whole, 1 byte and 7 bytes at a time), with the guard on and
// off, and requires the reference scanner's events, labels and
// error-or-not verdict from each.
func checkAgainstReference(t *testing.T, doc string, term bool, chunks ...int) {
	t.Helper()
	if len(chunks) == 0 {
		chunks = []int{0, 1, 7}
	}
	coder := alphabet.NewCoder(alphabet.New("a", "b", "item", ""))
	for _, guard := range []bool{false, true} {
		var ref Source = newRefXMLScanner(strings.NewReader(doc))
		if term {
			ref = newRefTermScanner(strings.NewReader(doc))
		}
		if guard {
			ref = CheckBalance(ref)
		}
		want, refErr := ReadAll(ref)
		for _, chunk := range chunks {
			lexed := func() Source {
				r := &chunkReader{data: []byte(doc), n: chunk}
				var s Source = NewXMLScanner(r)
				if term {
					s = NewTermScanner(r)
				}
				if guard {
					s = CheckBalance(s)
				}
				return s
			}
			got, err := ReadAll(lexed())
			if (err != nil) != (refErr != nil) || !sameEvents(got, want) {
				t.Fatalf("term=%v guard=%v chunk=%d: Source view %v (err %v), reference %v (err %v) on %q",
					term, guard, chunk, got, err, want, refErr, doc)
			}
			b := NewBatcher(lexed(), coder, 5)
			var coded []CodedEvent
			var labels []string
			for {
				batch, opens, err := b.NextBatch()
				o := 0
				for i, e := range batch {
					coded = append(coded, e)
					labels = append(labels, b.BatchLabel(i))
					o += 1 - int(e.Kind)
				}
				if o != opens {
					t.Fatalf("batch reports %d opens, holds %d", opens, o)
				}
				if err != nil {
					if (err != io.EOF) != (refErr != nil) {
						t.Fatalf("term=%v guard=%v chunk=%d: coded view error %v, reference %v on %q",
							term, guard, chunk, err, refErr, doc)
					}
					break
				}
			}
			b.Release()
			if len(coded) != len(want) {
				t.Fatalf("term=%v guard=%v chunk=%d: coded view has %d events, reference %d on %q",
					term, guard, chunk, len(coded), len(want), doc)
			}
			for i, e := range want {
				if coded[i] != (CodedEvent{Sym: coder.Code(e.Label), Kind: e.Kind}) || labels[i] != e.Label {
					t.Fatalf("term=%v guard=%v chunk=%d: coded event %d is %+v %q, reference %v on %q",
						term, guard, chunk, i, coded[i], labels[i], e, doc)
				}
			}
		}
	}
}

// noisyXML writes n as XML with the noise real documents carry: a prolog,
// comments, CDATA sections, processing instructions, text, and attributes
// whose quoted values hold '>' and '/'.
func noisyXML(rng *rand.Rand, n *tree.Node) string {
	var b strings.Builder
	noise := func() {
		switch rng.Intn(7) {
		case 0:
			b.WriteString("<!-- a > b / c -- d -->")
		case 1:
			b.WriteString("<![CDATA[ <fake/> ] > ]]>")
		case 2:
			b.WriteString("<?pi x > y ?>")
		case 3:
			b.WriteString("\n  text / > & more ")
		case 4:
			b.WriteString(" \t")
		}
	}
	var rec func(n *tree.Node)
	rec = func(n *tree.Node) {
		noise()
		b.WriteString("<" + n.Label)
		for k := rng.Intn(3); k > 0; k-- {
			if rng.Intn(2) == 0 {
				b.WriteString(` k="v>/x"`)
			} else {
				b.WriteString(" j = '/>' ")
			}
		}
		if len(n.Children) == 0 && rng.Intn(2) == 0 {
			b.WriteString("/>")
			return
		}
		b.WriteString(">")
		for _, c := range n.Children {
			rec(c)
		}
		noise()
		b.WriteString("</" + n.Label)
		if rng.Intn(2) == 0 {
			b.WriteString(" ")
		}
		b.WriteString(">")
	}
	b.WriteString(`<?xml version="1.0"?><!DOCTYPE root>`)
	rec(n)
	noise()
	return b.String()
}

// spacedTerm writes n in brace notation with separators between tokens.
func spacedTerm(rng *rand.Rand, n *tree.Node) string {
	var b bytes.Buffer
	sep := func() {
		b.WriteString([]string{"", " ", ",", "\n\t", ", "}[rng.Intn(5)])
	}
	var rec func(n *tree.Node)
	rec = func(n *tree.Node) {
		sep()
		b.WriteString(n.Label + "{")
		for _, c := range n.Children {
			rec(c)
		}
		sep()
		b.WriteString("}")
	}
	rec(n)
	sep()
	return b.String()
}

// noisyJSON writes n as the value of the one key of a root object, so it
// reads back as $(n), with whitespace between every token, keys written
// with escapes, and leaves written as every kind of scalar or as an empty
// object or array. A node whose children are all labelled ArrayItem may be
// written as an array.
func noisyJSON(rng *rand.Rand, n *tree.Node) string {
	var b strings.Builder
	ws := func() {
		b.WriteString([]string{"", "", " ", "\n\t", "\r\n  "}[rng.Intn(5)])
	}
	key := func(label string) {
		b.WriteByte('"')
		for i := 0; i < len(label); i++ {
			switch c := label[i]; {
			case rng.Intn(4) == 0:
				fmt.Fprintf(&b, []string{`\u%04x`, `\u%04X`}[rng.Intn(2)], c)
			case c == '/' && rng.Intn(2) == 0:
				b.WriteString(`\/`)
			default:
				b.WriteByte(c)
			}
		}
		b.WriteByte('"')
	}
	leaves := []string{
		`0`, `-0`, `12`, `-0.5e+3`, `1e400`, `3.25E-2`, `true`, `false`, `null`,
		`""`, `"plain"`, `"esc \" \\ \/ \b\f\n\r\t"`, `"\u00e9\ud83d\ude00 \udc00"`, "\"\xff\"",
		`{}`, `[]`, `{ }`, `[ ]`,
	}
	var value func(n *tree.Node)
	value = func(n *tree.Node) {
		ws()
		if len(n.Children) == 0 {
			b.WriteString(leaves[rng.Intn(len(leaves))])
			ws()
			return
		}
		array := rng.Intn(2) == 0
		for _, c := range n.Children {
			array = array && c.Label == ArrayItem
		}
		if array {
			b.WriteByte('[')
			for i, c := range n.Children {
				if i > 0 {
					b.WriteByte(',')
				}
				value(c)
			}
			b.WriteByte(']')
			ws()
			return
		}
		b.WriteByte('{')
		for i, c := range n.Children {
			if i > 0 {
				b.WriteByte(',')
			}
			ws()
			key(c.Label)
			ws()
			b.WriteByte(':')
			value(c)
		}
		b.WriteByte('}')
		ws()
	}
	value(tree.New(RootLabel, n))
	return b.String()
}
