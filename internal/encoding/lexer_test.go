package encoding

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"stackless/internal/alphabet"
	"stackless/internal/gen"
)

var offsetRe = regexp.MustCompile(`at byte (\d+)`)

// errorOffset returns the byte offset an ErrMalformed names, or -1.
func errorOffset(err error) int {
	m := offsetRe.FindStringSubmatch(err.Error())
	if m == nil {
		return -1
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// drainCoded reads src through a Batcher, returning the event count and
// the terminal error (nil at a clean end).
func drainCoded(src Source) (int, error) {
	b := NewBatcher(src, alphabet.NewCoder(alphabet.Letters("ab")), 0)
	defer b.Release()
	n := 0
	for {
		batch, _, err := b.NextBatch()
		n += len(batch)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// TestTruncationTyped cuts a document at every byte: under the guard, each
// strict prefix fails with ErrMalformed naming an offset no later than the
// cut, through the Source view and the coded view alike.
func TestTruncationTyped(t *testing.T) {
	xmlDoc := `<?xml version="1.0"?>
<!-- catalog export -->
<!DOCTYPE catalog>
<catalog kind="test">
  <item id="1" note='a > b'><name>Red <![CDATA[ <oak/> ]]> chair</name><price cur="eur">12.50</price></item>
  <?render fast?>
  <item id="2"/>
  <!-- end -->
</catalog>`
	termDoc := "catalog{item{name{} price{}}, item{}}"
	jsonDoc := `{"id":-1.5e+3,"k\u0065y":"a\"\u00e9","items":[true,false,null,{"sku":[]}]}`
	for _, c := range []struct {
		doc  string
		scan func(io.Reader) Source
	}{
		{xmlDoc, func(r io.Reader) Source { return NewXMLScanner(r) }},
		{termDoc, func(r io.Reader) Source { return NewTermScanner(r) }},
		{jsonDoc, func(r io.Reader) Source { return NewJSONSource(r) }},
	} {
		if _, err := ReadAll(CheckBalance(c.scan(strings.NewReader(c.doc)))); err != nil {
			t.Fatalf("whole document: %v", err)
		}
		for n := 0; n < len(c.doc); n++ {
			prefix := c.doc[:n]
			_, err := ReadAll(CheckBalance(c.scan(strings.NewReader(prefix))))
			_, cerr := drainCoded(CheckBalance(c.scan(strings.NewReader(prefix))))
			for view, err := range map[string]error{"source": err, "coded": cerr} {
				if !errors.Is(err, ErrMalformed) {
					t.Fatalf("%s view, prefix %d %q: error %v, want ErrMalformed", view, n, prefix, err)
				}
				if off := errorOffset(err); off < 0 || off > n {
					t.Fatalf("%s view, prefix %d %q: error %v names no offset within the prefix", view, n, prefix, err)
				}
			}
		}
	}
}

// TestLongLabelBounded: a label or JSON key longer than MaxLabelBytes fails
// at its offset without being buffered, and one of exactly MaxLabelBytes
// passes.
func TestLongLabelBounded(t *testing.T) {
	long := strings.Repeat("n", 1<<20)
	for _, c := range []struct {
		doc  string
		scan func(io.Reader) Source
	}{
		{"<" + long + ">", func(r io.Reader) Source { return NewXMLScanner(r) }},
		{"a{" + long + "{}}", func(r io.Reader) Source { return NewTermScanner(r) }},
		{`{"` + long + `":1}`, func(r io.Reader) Source { return NewJSONSource(r) }},
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := ReadAll(c.scan(strings.NewReader(c.doc)))
		runtime.ReadMemStats(&m1)
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "longer than") {
			t.Fatalf("1 MiB label: error %v, want ErrMalformed for its length", err)
		}
		if off := errorOffset(err); off != 1 && off != 2 {
			t.Errorf("1 MiB label: error %v, want the label's offset", err)
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got >= 256<<10 {
			t.Errorf("1 MiB label: scanning allocated %d bytes, want < 256 KiB", got)
		}
	}
	edge := strings.Repeat("n", MaxLabelBytes)
	for _, doc := range []string{"<" + edge + "/>", "<a></" + edge + ">"} {
		events, err := ReadAll(NewXMLScanner(strings.NewReader(doc)))
		if err != nil || events[len(events)-1].Label != edge {
			t.Errorf("label of MaxLabelBytes: error %v", err)
		}
	}
	if _, err := ReadAll(NewTermScanner(strings.NewReader(edge + "{}"))); err != nil {
		t.Errorf("term label of MaxLabelBytes: error %v", err)
	}
	if events, err := ReadAll(NewJSONSource(strings.NewReader(`{"` + edge + `":1}`))); err != nil || events[1].Label != edge {
		t.Errorf("JSON key of MaxLabelBytes: error %v", err)
	}
}

// countingReader serves one chunk per Read and counts the reads.
type countingReader struct {
	chunks []string
	reads  int
}

func (r *countingReader) Read(p []byte) (int, error) {
	r.reads++
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	k := copy(p, r.chunks[0])
	r.chunks[0] = r.chunks[0][k:]
	if r.chunks[0] == "" {
		r.chunks = r.chunks[1:]
	}
	return k, nil
}

// TestSourceViewStreams: the Source view hands out every event the bytes
// read so far complete before it reads again, so a consumer of a live
// stream is never held back by input the events do not need yet.
func TestSourceViewStreams(t *testing.T) {
	r := &countingReader{chunks: []string{"<a><b/><c", "/></a>"}}
	s := NewXMLScanner(r)
	for i, want := range []Event{{Open, "a"}, {Open, "b"}, {Close, "b"}} {
		e, err := s.Next()
		if err != nil || e != want || r.reads != 1 {
			t.Fatalf("event %d: %v %v after %d reads, want %v after 1", i, e, err, r.reads, want)
		}
	}
	rest, err := ReadAll(s)
	if err != nil || len(rest) != 3 {
		t.Fatalf("rest of the stream: %v %v", rest, err)
	}
}

// TestCheckBalanceKeepsLexer: the guard of a scanner runs inside its lexer,
// so CheckBalance returns the scanner itself and a Batcher over it still
// takes the lexer's batches; a Source view with undelivered events stays
// on the generic path and loses none.
func TestCheckBalanceKeepsLexer(t *testing.T) {
	x := NewXMLScanner(strings.NewReader("<a><b/></a>"))
	if CheckBalance(x) != Source(x) {
		t.Fatal("CheckBalance wrapped an XMLScanner")
	}
	b := NewBatcher(x, alphabet.NewCoder(alphabet.Letters("ab")), 0)
	if b.lx == nil {
		t.Fatal("Batcher over a guarded XMLScanner missed the lexer path")
	}
	b.Release()
	tm := NewTermScanner(strings.NewReader("a{b{}}"))
	if e, err := tm.Next(); err != nil || e != (Event{Open, "a"}) {
		t.Fatalf("first term event: %v %v", e, err)
	}
	if n, err := drainCoded(tm); err != nil || n != 3 {
		t.Fatalf("batcher after a partly read view: %d events, %v; want the 3 left", n, err)
	}
}

// TestReaderWithoutProgress: a reader that keeps returning nothing fails
// the stream instead of spinning.
func TestReaderWithoutProgress(t *testing.T) {
	_, err := ReadAll(NewXMLScanner(emptyReader{}))
	if !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("error %v, want io.ErrNoProgress", err)
	}
}

type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, nil }

// TestLexerInternsManyLabels grows the intern table well past its initial
// size and checks every label comes back intact, long ones included.
func TestLexerInternsManyLabels(t *testing.T) {
	var doc bytes.Buffer
	var want []Event
	doc.WriteString("<root>")
	want = append(want, Event{Open, "root"})
	for i := 0; i < 3000; i++ {
		l := "label-with-a-long-common-prefix-" + strconv.Itoa(i%1000)
		doc.WriteString("<" + l + "/>")
		want = append(want, Event{Open, l}, Event{Close, l})
	}
	doc.WriteString("</root>")
	want = append(want, Event{Close, "root"})
	got, err := ReadAll(CheckBalance(NewXMLScanner(&doc)))
	if err != nil || !sameEvents(got, want) {
		t.Fatalf("interned labels differ (err %v)", err)
	}
}

// TestInternSharedPrefix: interning does not slow down on many distinct
// labels of one length that share a long prefix. 50,000 such labels scan
// within a small factor of as many labels that differ in their first byte.
func TestInternSharedPrefix(t *testing.T) {
	const labels = 50000
	doc := func(format string) []byte {
		var b bytes.Buffer
		b.WriteString("<root>")
		for i := 0; i < labels; i++ {
			fmt.Fprintf(&b, "<"+format+"/>", i)
		}
		b.WriteString("</root>")
		return b.Bytes()
	}
	fastest := func(d []byte) time.Duration {
		best := time.Duration(math.MaxInt64)
		for range 3 {
			start := time.Now()
			n, err := drainCoded(CheckBalance(NewXMLScanner(bytes.NewReader(d))))
			if err != nil || n != 2*labels+2 {
				t.Fatalf("%d events, error %v; want %d", n, err, 2*labels+2)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	shared, spread := fastest(doc("column_name_%05d")), fastest(doc("%05d_name_column"))
	if shared > 10*spread {
		t.Errorf("labels sharing a prefix scanned in %v, labels differing early in %v", shared, spread)
	}
}

// TestWindowBoundaries runs documents several windows long, with
// constructs longer than a window, against the reference scanner: read
// whole, every refill fills the window, so its edge falls inside names,
// attribute values, comments, CDATA sections and text; leading padding
// and 4093-byte reads move the edges.
func TestWindowBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	big := strings.Repeat("x/>-]?", 15000) // ~90 KB, longer than a window
	var xml strings.Builder
	xml.WriteString("<root a='" + big + "'>")
	for i := 0; i < 4; i++ {
		xml.WriteString(noisyXML(rng, gen.RandomTree(rng, fuzzLabels, 2000)))
		xml.WriteString("<!--" + big + "-->" + big + "<![CDATA[" + big + "]]>")
	}
	xml.WriteString("</root>")
	term := spacedTerm(rng, gen.RandomTree(rng, fuzzLabels, 20000))
	for _, pad := range []int{0, 1, 5, 13} {
		sp := strings.Repeat(" ", pad)
		checkAgainstReference(t, sp+xml.String(), false, 0, 4093)
		checkAgainstReference(t, sp+term, true, 0, 4093)
	}
}
