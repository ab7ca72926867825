package stackless

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"stackless/internal/encoding"
	"stackless/internal/gen"
)

// failingReader serves its bytes, then fails with its own error.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	k := copy(p, r.data)
	r.data = r.data[k:]
	return k, nil
}

var errTransport = errors.New("transport failed")

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// TestReaderErrorsPassThrough: a reader that fails — inside text, inside a
// tag or key, or after a complete document — fails the call with its own
// error, whichever notation and call shape read it: never a clean end of
// stream, never a truncation reported by the balance guard.
func TestReaderErrorsPassThrough(t *testing.T) {
	withProcs(t, 2)
	labels := []string{"$", "a", "b", "c", "d", "item"}
	q := MustCompileRegex(".*b", labels)
	type call func(r io.Reader) error
	sel := func(f func(io.Reader, Options, func(Match)) (Stats, error), opt Options) call {
		return func(r io.Reader) error { _, err := f(r, opt, nil); return err }
	}
	rec := func(f func(io.Reader, Options) (bool, Stats, error)) call {
		return func(r io.Reader) error { _, _, err := f(r, Options{}); return err }
	}
	for _, nt := range []struct {
		name  string
		doc   string
		cuts  map[string]int // where the reader fails: a prefix length
		calls map[string]call
	}{
		{
			name: "xml",
			doc:  `<a><b>some text</b><c x="1"/><d/></a>`,
			cuts: map[string]int{"mid-text": 12, "mid-tag": 27, "after-root": -1},
			calls: map[string]call{
				"select":    sel(q.SelectXML, Options{}),
				"recognize": rec(q.RecognizeEL),
				"earliest":  sel(q.SelectXML, Options{Earliest: true}),
				"workers2":  sel(q.SelectXML, Options{Workers: 2}),
			},
		},
		{
			name: "term",
			doc:  "a{b{} c{d{}} item{}}",
			cuts: map[string]int{"mid-text": 6, "mid-tag": 15, "after-root": -1},
			calls: map[string]call{
				"select":    sel(q.SelectTerm, Options{}),
				"recognize": rec(q.RecognizeELTerm),
				"earliest":  sel(q.SelectTerm, Options{Earliest: true}),
				"workers2":  sel(q.SelectTerm, Options{Workers: 2}),
			},
		},
		{
			// JSON has no recognizer in the API; its three select shapes
			// cover the same read paths.
			name: "json",
			doc:  `{"a": {"b": "some text", "c": [1, 2]}}`,
			cuts: map[string]int{"mid-text": 18, "mid-tag": 27, "after-root": -1},
			calls: map[string]call{
				"select":   sel(q.SelectJSON, Options{}),
				"earliest": sel(q.SelectJSON, Options{Earliest: true}),
				"workers2": sel(q.SelectJSON, Options{Workers: 2}),
			},
		},
	} {
		for cut, n := range nt.cuts {
			data := nt.doc
			if n >= 0 {
				data = data[:n]
			}
			for shape, f := range nt.calls {
				err := f(&failingReader{data: []byte(data), err: errTransport})
				if !errors.Is(err, errTransport) {
					t.Errorf("%s %s %s (%q): error %v, want the reader's", nt.name, cut, shape, data, err)
				}
			}
		}
	}
}

// TestSelectXMLPooledAllocs: the scan state of a sequential SelectXML —
// the lexer's window, intern table and remap, the coded batch, local-id
// and hit buffers — comes from pools, so a call over a ~300 KB
// catalog allocates a few KiB whatever the document's size.
func TestSelectXMLPooledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random")
	}
	var buf bytes.Buffer
	if err := gen.WriteCatalogXML(&buf, rand.New(rand.NewSource(5)), 3000, 6); err != nil {
		t.Fatal(err)
	}
	doc := buf.Bytes()
	if len(doc) < 250_000 {
		t.Fatalf("catalog is %d bytes, want ~300 KB", len(doc))
	}
	q, err := CompileXPath("//category//name", []string{"catalog", "item", "name", "price", "category", "discount"})
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	call := func() {
		if _, err := q.SelectXML(bytes.NewReader(doc), Options{}, func(Match) { matches++ }); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if matches == 0 {
		t.Fatal("the query selects nothing; the hit buffer goes unexercised")
	}
	const calls = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		call()
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / calls; per >= 16<<10 {
		t.Errorf("SelectXML allocates %d bytes per call, want < 16 KiB", per)
	}
}

// orderLabels are the keys of the order messages orderJSON writes, with
// the synthetic root and array-item labels.
var orderLabels = []string{"$", "item", "id", "customer", "name", "city", "items", "sku", "qty", "price", "category", "tags", "total", "shipping"}

var orderWords = []string{"oak", "teal", "amber", "north", "linen", "cedar", "slate", "ivory"}

// orderJSON writes one order message of 0.2–2 KB: a customer, 1–16 line
// items with a nested category, up to 3 tags and a shipping object, over
// string and number leaves.
func orderJSON(rng *rand.Rand) []byte {
	word := func() string { return orderWords[rng.Intn(len(orderWords))] }
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"id":%d,"customer":{"name":"%s %s","city":"%s"},"items":[`, rng.Intn(1e9), word(), word(), word())
	for i, k := 0, 1+rng.Intn(16); i < k; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"sku":"SKU-%06d","qty":%d,"price":%d,"category":{"id":%d,"name":"%s %s"}}`,
			rng.Intn(1e6), 1+rng.Intn(9), rng.Intn(10000), rng.Intn(500), word(), word())
	}
	b.WriteString(`],"tags":[`)
	for i, k := 0, rng.Intn(4); i < k; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"%s"`, word())
	}
	fmt.Fprintf(&b, `],"shipping":{"city":"%s","price":%d},"total":%d}`, word(), rng.Intn(2000), rng.Intn(1e6))
	return b.Bytes()
}

// TestSelectJSONPooledAllocs is TestSelectXMLPooledAllocs for JSON: the
// JSON lexer's state comes from the same pools, so a sequential SelectJSON
// of an order message allocates little more than its Source.
func TestSelectJSONPooledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random")
	}
	doc := orderJSON(rand.New(rand.NewSource(5)))
	q, err := CompileJSONPath("$..items..sku", orderLabels)
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	call := func() {
		if _, err := q.SelectJSON(bytes.NewReader(doc), Options{}, func(Match) { matches++ }); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if matches == 0 {
		t.Fatal("the query selects nothing; the hit buffer goes unexercised")
	}
	const calls = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		call()
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / calls; per >= 2<<10 {
		t.Errorf("SelectJSON allocates %d bytes per call, want < 2 KiB", per)
	}
}

// TestSelectJSONEscapedKey: a key written with escapes is decoded before it
// is coded, so $..sku selects "\u0073ku", and a number too large for a
// float64 is valid JSON.
func TestSelectJSONEscapedKey(t *testing.T) {
	q, err := CompileJSONPath("$..sku", []string{"$", "item", "sku", "a/b"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	doc := `{"a\/b":[{"\u0073ku":1e400},{"sku":-0.5e+3},{"skU":1}]}`
	if _, err := q.SelectJSON(strings.NewReader(doc), Options{}, func(m Match) { got = append(got, m.Label) }); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []string{"sku", "sku"}) {
		t.Errorf("$..sku selected %q, want both sku keys", got)
	}
}

// TestScannerErrorsNameOffsets: malformed XML, term and JSON input fails
// with ErrMalformed naming the byte where the lexer or its guard stopped.
func TestScannerErrorsNameOffsets(t *testing.T) {
	q := MustCompileRegex(".*b", []string{"a", "b"})
	for _, c := range []struct {
		doc, want  string
		term, json bool
	}{
		{doc: "<a><b></a", want: "at byte 9: truncated name"},
		{doc: "<a/><b/>", want: "at byte 8: content after the root element"},
		{doc: "<a><>", want: "at byte 4: empty tag name"},
		{doc: "a{b{}}}", want: "at byte 7: content after the root element", term: true},
		{doc: "a{b", want: "at byte 3: truncated term label", term: true},
		{doc: `{"a":"xy`, want: "at byte 8: truncated string", json: true},
		{doc: `{"a":"x\`, want: "at byte 8: truncated escape", json: true},
		{doc: `{"a":"\u00`, want: `at byte 10: truncated \u escape`, json: true},
		{doc: `{"a":-1.`, want: "at byte 8: truncated number", json: true},
		{doc: `{"a":tru`, want: "at byte 8: truncated literal", json: true},
		{doc: `[1}`, want: "at byte 2: invalid character '}' after a value", json: true},
		{doc: `{"a":}`, want: "at byte 5: invalid character '}', want a value", json: true},
		{doc: `{"a"`, want: "at byte 4: truncated JSON: key without value", json: true},
		{doc: `{"` + strings.Repeat("k", encoding.MaxLabelBytes+1) + `":1}`,
			want: fmt.Sprintf("at byte 2: JSON key longer than %d bytes", encoding.MaxLabelBytes), json: true},
	} {
		var err error
		switch {
		case c.term:
			_, err = q.SelectTerm(strings.NewReader(c.doc), Options{}, nil)
		case c.json:
			_, err = q.SelectJSON(strings.NewReader(c.doc), Options{}, nil)
		default:
			_, err = q.SelectXML(strings.NewReader(c.doc), Options{}, nil)
		}
		if !errors.Is(err, encoding.ErrMalformed) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%.40q: error %v, want ErrMalformed %s", c.doc, err, c.want)
		}
	}
}
