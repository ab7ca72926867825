package stackless

import (
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/gen"
	"stackless/internal/parallel"
)

// Differential battery for the earliest-emission contract (DESIGN.md §14):
// Options.Earliest must never change the observable result — matches,
// order, event counts, Recognize-style errors — against the default coded
// run AND against the pushdown oracle (ForceStack), across every strategy
// family and every worker count. What it may change is *when* a match is
// emitted, and that direction is pinned too: the earliest driver reports
// each match at the exact event deciding it, never later than the default
// pipeline does.

// earliestQueries spans the strategy families: registerless (tag DFA,
// exact flags), stackless (exact flags), and the pushdown fallback (safe
// approximation only).
func earliestQueries(t *testing.T) map[string]*Query {
	t.Helper()
	return map[string]*Query{
		"registerless": MustCompileRegex("a.*b", abc),
		"stackless":    MustCompileRegex(".*a.*b", abc),
		"stack":        MustCompileRegex(".*ab", abc), // not chunkable, no flags
	}
}

// TestEarliestMatchesOracle: sequential earliest runs agree with the
// default pipeline and the pushdown oracle on random documents, and the
// Stats report the right mode and pipeline.
func TestEarliestMatchesOracle(t *testing.T) {
	wantMode := map[string]EarliestMode{
		"registerless": EarliestExact,
		"stackless":    EarliestExact,
		"stack":        EarliestApprox,
	}
	rng := rand.New(rand.NewSource(23))
	for name, q := range earliestQueries(t) {
		for i := 0; i < 60; i++ {
			doc := encoding.XMLString(gen.RandomTree(rng, abc, 1+rng.Intn(60)))
			want, defStats := collectMatches(t, q, doc, Options{})
			oracle, _ := collectMatches(t, q, doc, Options{ForceStack: true})
			got, stats := collectMatches(t, q, doc, Options{Earliest: true})
			if defStats.Earliest != EarliestOff {
				t.Fatalf("%s: default run reports earliest mode %v", name, defStats.Earliest)
			}
			if stats.Earliest != wantMode[name] {
				t.Fatalf("%s: earliest mode %v, want %v", name, stats.Earliest, wantMode[name])
			}
			if stats.Pipeline != PipelineCoded {
				t.Fatalf("%s: earliest run on pipeline %v, want %v", name, stats.Pipeline, PipelineCoded)
			}
			if stats.Events != defStats.Events {
				t.Fatalf("%s doc %d: earliest counted %d events, default %d", name, i, stats.Events, defStats.Events)
			}
			if len(got) != len(want) || len(got) != len(oracle) {
				t.Fatalf("%s doc %d: %d matches (earliest) vs %d (default) vs %d (oracle)", name, i, len(got), len(want), len(oracle))
			}
			for j := range want {
				if got[j] != want[j] || got[j] != oracle[j] {
					t.Fatalf("%s doc %d match %d: %+v (earliest) vs %+v (default) vs %+v (oracle)", name, i, j, got[j], want[j], oracle[j])
				}
			}
		}
	}
}

// TestEarliestWorkers: Workers ∈ {1, 2, GOMAXPROCS} with Earliest set
// still produce the sequential match set in document order; fanned-out
// chunkable runs degrade to the safe approximation, non-chunkable ones
// keep their sequential mode.
func TestEarliestWorkers(t *testing.T) {
	withProcs(t, 8)
	rng := rand.New(rand.NewSource(29))
	for name, q := range earliestQueries(t) {
		for i := 0; i < 30; i++ {
			doc := encoding.XMLString(gen.RandomTree(rng, abc, 1+rng.Intn(80)))
			want, _ := collectMatches(t, q, doc, Options{})
			for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				got, stats := collectMatches(t, q, doc, Options{Earliest: true, Workers: w})
				if stats.Earliest == EarliestOff {
					t.Fatalf("%s workers %d: earliest run reports mode off", name, w)
				}
				if stats.Workers > 1 && stats.Earliest != EarliestApprox {
					t.Fatalf("%s workers %d: fanned-out run reports mode %v, want %v", name, w, stats.Earliest, EarliestApprox)
				}
				if len(got) != len(want) {
					t.Fatalf("%s doc %d workers %d: %d matches, want %d", name, i, w, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s doc %d workers %d: match %d = %+v, want %+v", name, i, w, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestEarliestEmissionPosition pins the latency contract itself: wrapping
// the source in a counter, every earliest-mode match is emitted at exactly
// the event that decides it — consumed = 2·Pos + 2 − Depth, the index of
// the node's Open plus one — and never later than the default pipeline
// emits the same match. The rows cover each tier's Query, MultiQuery sets
// whose members are all exact or mixed, and the encoding/xml bridge of
// SelectXMLFull, a Source that is neither a byte lexer nor a SliceSource.
func TestEarliestEmissionPosition(t *testing.T) {
	exact, err := NewMultiQuery(MustCompileRegex("a.*b", abc), MustCompileRegex("a.*c", abc))
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := NewMultiQuery(MustCompileRegex("a.*b", abc), MustCompileRegex(".*ab", abc))
	if err != nil {
		t.Fatal(err)
	}
	type selectFn func(src encoding.Source, opt Options, fn func(Match)) error
	query := func(q *Query) selectFn {
		return func(src encoding.Source, opt Options, fn func(Match)) error {
			_, err := q.selectSource(src, MarkupEncoding, opt, fn)
			return err
		}
	}
	multi := func(mq *MultiQuery) selectFn {
		return func(src encoding.Source, opt Options, fn func(Match)) error {
			_, err := mq.selectSource(src, MarkupEncoding, opt, func(m MultiMatch) { fn(m.Match) })
			return err
		}
	}
	queries := earliestQueries(t)
	rows := []struct {
		name string
		sel  selectFn
		full bool // read the document's XML through the encoding/xml bridge
	}{
		{"registerless", query(queries["registerless"]), false},
		{"stackless", query(queries["stackless"]), false},
		{"stack", query(queries["stack"]), false},
		{"multi all-exact", multi(exact), false},
		{"multi mixed", multi(mixed), false},
		{"SelectXMLFull registerless", query(queries["registerless"]), true},
		{"SelectXMLFull stack", query(queries["stack"]), true},
	}
	rng := rand.New(rand.NewSource(31))
	for _, row := range rows {
		for i := 0; i < 40; i++ {
			tr := gen.RandomTree(rng, abc, 1+rng.Intn(120))
			source := func() *encoding.CountingSource {
				if row.full {
					return encoding.Counting(encoding.NewStdXMLSource(strings.NewReader(encoding.XMLString(tr))))
				}
				return encoding.Counting(encoding.NewSliceSource(encoding.Markup(tr)))
			}
			var earliestAt, defaultAt []int
			src := source()
			if err := row.sel(src, Options{Earliest: true}, func(m Match) {
				earliestAt = append(earliestAt, src.Consumed())
				if want := 2*m.Pos + 2 - m.Depth; src.Consumed() != want {
					t.Fatalf("%s doc %d: match %+v emitted after %d events, deciding event is %d", row.name, i, m, src.Consumed(), want)
				}
			}); err != nil {
				t.Fatal(err)
			}
			src = source()
			if err := row.sel(src, Options{}, func(m Match) {
				defaultAt = append(defaultAt, src.Consumed())
			}); err != nil {
				t.Fatal(err)
			}
			if len(earliestAt) != len(defaultAt) {
				t.Fatalf("%s doc %d: %d matches (earliest) vs %d (default)", row.name, i, len(earliestAt), len(defaultAt))
			}
			for j := range earliestAt {
				if earliestAt[j] > defaultAt[j] {
					t.Fatalf("%s doc %d match %d: earliest emitted after %d events, default after %d", row.name, i, j, earliestAt[j], defaultAt[j])
				}
			}
		}
	}
}

// byteReader hands out its string one byte per Read and counts the bytes
// read.
type byteReader struct {
	s string
	n int
}

func (r *byteReader) Read(p []byte) (int, error) {
	if r.n == len(r.s) {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	p[0] = r.s[r.n]
	r.n++
	return 1, nil
}

// openTagEnds returns, in document order, the number of bytes of doc
// through each opening tag: through its '>' in XML, its '{' in the brace
// notation.
func openTagEnds(doc string, xml bool) []int {
	var ends []int
	for i := 0; i < len(doc); i++ {
		switch {
		case !xml && doc[i] == '{':
			ends = append(ends, i+1)
		case xml && doc[i] == '<' && doc[i+1] != '/':
			i += strings.IndexByte(doc[i:], '>')
			ends = append(ends, i+1)
		}
	}
	return ends
}

// TestEarliestEmissionBytes pins the contract at the byte lexers, which
// every public earliest call reads: over a reader that returns one byte
// per Read, SelectXML and SelectTerm with Earliest emit each match when
// exactly the bytes through its deciding tag have been read.
func TestEarliestEmissionBytes(t *testing.T) {
	queries := earliestQueries(t)
	rng := rand.New(rand.NewSource(59))
	for _, name := range []string{"registerless", "stackless", "stack"} {
		q := queries[name]
		for i := 0; i < 30; i++ {
			tr := gen.RandomTree(rng, abc, 1+rng.Intn(80))
			for _, notation := range []struct {
				xml bool
				doc string
				sel func(*Query, io.Reader, Options, func(Match)) (Stats, error)
			}{
				{true, encoding.XMLString(tr), (*Query).SelectXML},
				{false, encoding.TermString(tr), (*Query).SelectTerm},
			} {
				ends := openTagEnds(notation.doc, notation.xml)
				r := &byteReader{s: notation.doc}
				matches := 0
				if _, err := notation.sel(q, r, Options{Earliest: true}, func(m Match) {
					matches++
					if r.n != ends[m.Pos] {
						t.Fatalf("%s doc %d (xml=%v): match %+v emitted after %d bytes, its tag ends at byte %d of %q", name, i, notation.xml, m, r.n, ends[m.Pos], notation.doc)
					}
				}); err != nil {
					t.Fatal(err)
				}
				want, _ := collectMatches(t, q, encoding.XMLString(tr), Options{})
				if matches != len(want) {
					t.Fatalf("%s doc %d (xml=%v): %d matches, want %d", name, i, notation.xml, matches, len(want))
				}
			}
		}
	}
}

// TestEarliestAdversarialCuts: the chunk-parallel engine with a cut forced
// at every interior position still reproduces the earliest driver's match
// set — earliest emission and chunking compose through the document-order
// join.
func TestEarliestAdversarialCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for name, q := range earliestQueries(t) {
		ev, _, err := q.machine(semQL, MarkupEncoding, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cm, ok := ev.(core.Chunkable)
		if !ok {
			continue // the pushdown fallback cannot be chunked
		}
		for i := 0; i < 20; i++ {
			events := encoding.Markup(gen.RandomTree(rng, abc, 1+rng.Intn(40)))
			var want []Match
			if _, err := q.selectSource(encoding.NewSliceSource(events), MarkupEncoding, Options{Earliest: true}, func(m Match) {
				want = append(want, m)
			}); err != nil {
				t.Fatal(err)
			}
			for cut := 1; cut < len(events); cut++ {
				var got []core.Match
				parallel.SelectAt(parallel.Shared(), cm, events, []int{cut}, func(m core.Match) { got = append(got, m) })
				if len(got) != len(want) {
					t.Fatalf("%s doc %d cut %d: %d matches, want %d", name, i, cut, len(got), len(want))
				}
				for j := range want {
					if got[j].Pos != want[j].Pos || got[j].Depth != want[j].Depth || got[j].Label != want[j].Label {
						t.Fatalf("%s doc %d cut %d: match %d = %+v, want %+v", name, i, cut, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestEarliestMultiQuery: earliest mode on a query set — exact only when
// every member carries flags, the safe approximation as soon as one
// doesn't or the run fans out; a sequential earliest run steps every
// member on its own, without product groups; the per-query match sets
// never change.
func TestEarliestMultiQuery(t *testing.T) {
	withProcs(t, 8)
	exact, err := NewMultiQuery(MustCompileRegex("a.*b", abc), MustCompileRegex("a.*c", abc))
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := NewMultiQuery(MustCompileRegex("a.*b", abc), MustCompileRegex(".*ab", abc))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	for _, tc := range []struct {
		name string
		mq   *MultiQuery
		want EarliestMode
	}{
		{"all-exact", exact, EarliestExact},
		{"mixed", mixed, EarliestApprox},
	} {
		for i := 0; i < 30; i++ {
			doc := encoding.XMLString(gen.RandomTree(rng, abc, 1+rng.Intn(60)))
			collect := func(opt Options) (map[int][]Match, MultiStats) {
				out := map[int][]Match{}
				stats, err := tc.mq.SelectXML(strings.NewReader(doc), opt, func(m MultiMatch) {
					out[m.Query] = append(out[m.Query], m.Match)
				})
				if err != nil {
					t.Fatal(err)
				}
				return out, stats
			}
			want, defStats := collect(Options{})
			if defStats.Earliest != EarliestOff {
				t.Fatalf("%s: default multi run reports mode %v", tc.name, defStats.Earliest)
			}
			got, stats := collect(Options{Earliest: true})
			if stats.Earliest != tc.want {
				t.Fatalf("%s: earliest mode %v, want %v", tc.name, stats.Earliest, tc.want)
			}
			if stats.ProductGroups != 0 {
				t.Fatalf("%s: sequential earliest run merged %d product groups, want 0", tc.name, stats.ProductGroups)
			}
			gotW, statsW := collect(Options{Earliest: true, Workers: 4})
			if statsW.Workers > 1 && statsW.Earliest != EarliestApprox {
				t.Fatalf("%s: fanned-out multi run reports mode %v", tc.name, statsW.Earliest)
			}
			for qn := range want {
				for _, g := range []map[int][]Match{got, gotW} {
					if len(g[qn]) != len(want[qn]) {
						t.Fatalf("%s query %d: %d matches, want %d", tc.name, qn, len(g[qn]), len(want[qn]))
					}
					for j := range want[qn] {
						if g[qn][j] != want[qn][j] {
							t.Fatalf("%s query %d match %d: %+v, want %+v", tc.name, qn, j, g[qn][j], want[qn][j])
						}
					}
				}
			}
		}
	}
}
