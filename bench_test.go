package stackless

// The benchmark harness regenerates every experiment of DESIGN.md §4:
// one benchmark (or test) per paper table/figure plus the motivating
// throughput/memory sweeps. EXPERIMENTS.md records the measured shapes.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"stackless/internal/alphabet"
	"stackless/internal/classify"
	"stackless/internal/core"
	"stackless/internal/dfa"
	"stackless/internal/dtd"
	"stackless/internal/encoding"
	"stackless/internal/gen"
	"stackless/internal/paperfigs"
	"stackless/internal/parallel"
	"stackless/internal/rex"
	"stackless/internal/stackeval"
	"stackless/internal/tree"
	"stackless/internal/treeauto"
)

// --- shared fixtures ---

var fixtures struct {
	once       sync.Once
	catalogXML []byte           // ~2 MB catalog document
	abcDoc     []encoding.Event // random tree over {a,b,c}, ~200k events
	abcTree    *tree.Node
	deepDocs   map[int][]encoding.Event // depth → events, ~100k events each
}

func loadFixtures() {
	fixtures.once.Do(func() {
		rng := rand.New(rand.NewSource(2021))
		var buf bytes.Buffer
		if err := gen.WriteCatalogXML(&buf, rng, 20_000, 6); err != nil {
			panic(err)
		}
		fixtures.catalogXML = buf.Bytes()

		fixtures.abcTree = gen.RandomTree(rng, []string{"a", "b", "c"}, 100_000)
		fixtures.abcDoc = encoding.Markup(fixtures.abcTree)

		fixtures.deepDocs = map[int][]encoding.Event{}
		for _, depth := range []int{4, 64, 1024, 4096} {
			// ~100k events regardless of depth: chains of the given depth
			// with a,b,c labels glued under a root.
			root := tree.New("a")
			total := 0
			for total < 50_000 {
				c := gen.DeepChain(rng, []string{"a", "b", "c"}, depth)
				root.Children = append(root.Children, c)
				total += depth
			}
			fixtures.deepDocs[depth] = encoding.Markup(root)
		}
	})
}

// stackMachine is an instance of q's pushdown baseline under enc.
func stackMachine(q *Query, enc Encoding) core.Evaluator {
	ev, _, _ := q.machine(semQL, enc, Options{ForceStack: true})
	return ev
}

func benchEvaluator(b *testing.B, ev core.Evaluator, events []encoding.Event) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Reset()
		for _, e := range events {
			ev.Step(e)
		}
		_ = ev.Accepting()
	}
	b.StopTimer()
	nsPerEvent := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(events))
	b.ReportMetric(nsPerEvent, "ns/event")
}

// --- T1: the Example 2.12 table ---
//
// For each row, benchmark the best evaluator the theorems allow next to
// the stack baseline on the same event stream. The verdict pattern
// (which strategies exist) is asserted by TestExample212EndToEnd.

func BenchmarkTable212(b *testing.B) {
	loadFixtures()
	for _, row := range paperfigs.Example212() {
		q := MustCompileRegex(row.Regex, abc)
		ev, st, err := q.machine(semQL, MarkupEncoding, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/%s", row.XPath[1:], st), func(b *testing.B) {
			benchEvaluator(b, ev, fixtures.abcDoc)
		})
		b.Run(fmt.Sprintf("%s/stack", row.XPath[1:]), func(b *testing.B) {
			benchEvaluator(b, stackMachine(q, MarkupEncoding), fixtures.abcDoc)
		})
	}
}

// --- F1: Figure 1 / Example 2.9 ---
//
// The strict pattern is not stackless; the benchmark measures the
// Proposition 2.8 matcher (the stackless non-strict semantics) against the
// in-memory strict oracle on K_n trees.

func BenchmarkFig1Kn(b *testing.B) {
	pat := gen.Fig1Pattern()
	for _, n := range []int{8, 12, 16} {
		match, _ := gen.Fig1Pair(n, n/2)
		events := encoding.Markup(match)
		b.Run(fmt.Sprintf("pattern-matcher/n=%d", n), func(b *testing.B) {
			m := core.NewPatternMatcher(pat)
			benchEvaluator(b, m, events)
		})
		b.Run(fmt.Sprintf("strict-oracle/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = tree.StrictlyContains(match, pat)
			}
		})
	}
}

// --- F2: Figure 2 ---
//
// The reversible automaton's language is registerless under markup; under
// the term encoding it is not even stackless, so the stack baseline is the
// only option there.

func BenchmarkFig2(b *testing.B) {
	loadFixtures()
	rng := rand.New(rand.NewSource(5))
	tr := gen.RandomTree(rng, []string{"a", "b"}, 100_000)
	markup := encoding.Markup(tr)
	term := encoding.Term(tr)
	q := MustCompileRegex(paperfigs.Fig2Regex, []string{"a", "b"})

	ev, st, err := q.machine(semQL, MarkupEncoding, Options{ForbidStack: true})
	if err != nil || st != Registerless {
		b.Fatalf("Fig2 must be registerless under markup (err=%v st=%v)", err, st)
	}
	b.Run("markup/registerless", func(b *testing.B) { benchEvaluator(b, ev, markup) })
	b.Run("markup/stack", func(b *testing.B) { benchEvaluator(b, stackMachine(q, MarkupEncoding), markup) })
	if _, _, err := q.machine(semQL, TermEncoding, Options{ForbidStack: true}); err == nil {
		b.Fatal("Fig2 must NOT be stackless under the term encoding")
	}
	b.Run("term/stack-only", func(b *testing.B) { benchEvaluator(b, stackMachine(q, TermEncoding), term) })
}

// --- F3: Figure 3 (same languages as T1, deep-document variant) ---

func BenchmarkFig3DeepDocs(b *testing.B) {
	loadFixtures()
	events := fixtures.deepDocs[1024]
	for _, row := range paperfigs.Example212() {
		q := MustCompileRegex(row.Regex, abc)
		ev, st, err := q.machine(semQL, MarkupEncoding, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/%v", row.Regex, st), func(b *testing.B) {
			benchEvaluator(b, ev, events)
		})
	}
}

// --- F4 / F5 / F7: fooling-tree construction ---
//
// The membership and indistinguishability claims are covered by tests in
// internal/gen; the benchmarks measure the generator cost as the pump
// exponent grows.

func BenchmarkFig4Build(b *testing.B) {
	an := classify.Analyze(rex.MustCompile(paperfigs.Fig3dRegex, paperfigs.GammaABC()))
	_, w := an.EFlat()
	for _, n := range []int{4, 6, 8} {
		e := gen.PumpExponent(n)
		b.Run(fmt.Sprintf("n=%d(e=%d)", n, e), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, sp := gen.Fig4Trees(an.D, w, e)
				if s.Size() == 0 || sp.Size() == 0 {
					b.Fatal("empty fooling trees")
				}
			}
		})
	}
}

func BenchmarkFig5Build(b *testing.B) {
	an := classify.Analyze(rex.MustCompile(paperfigs.Fig3dRegex, paperfigs.GammaABC()))
	_, w := an.HAR()
	for _, e := range []int{6, 12, 24} { // e = PumpExponent(2k) explodes at k=3; sweep e directly
		b.Run(fmt.Sprintf("e=%d", e), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				r, rp := gen.Fig5Trees(an.D, w, e)
				size = r.Size() + rp.Size()
			}
			b.ReportMetric(float64(size), "nodes")
		})
	}
}

func BenchmarkFig7Build(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var an *classify.Analysis
	var w *classify.FlatWitness
	for {
		an = classify.Analyze(dfa.Random(rng, alphabet.Letters("ab"), 4))
		if ok, ww := an.BlindEFlat(); !ok {
			w = ww
			break
		}
	}
	for _, e := range []int{6, 12, 60} {
		b.Run(fmt.Sprintf("e=%d", e), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, sp, _ := gen.Fig7Trees(an.D, w, e)
				if s.Size() == 0 || sp.Size() == 0 {
					b.Fatal("empty fooling trees")
				}
			}
		})
	}
}

// --- F6: Figure 6 pipeline ---

func BenchmarkFig6Pipeline(b *testing.B) {
	s := dtd.Fig6()
	for i := 0; i < b.N; i++ {
		if s.NaiveAFlat() != true {
			b.Fatal("naive check changed")
		}
		proj, err := s.ProjectedPathLanguage()
		if err != nil {
			b.Fatal(err)
		}
		if ok, _ := classify.Analyze(proj).AFlat(); ok {
			b.Fatal("projection became A-flat")
		}
	}
}

// --- X1/X2: depth sweep — flat O(1) working state for the stackless
// machine versus Θ(depth) for the pushdown baseline. Each run reports its
// peak working-state size in machine words ("state-words").

func BenchmarkDepthSweepStackless(b *testing.B) {
	loadFixtures()
	q := MustCompileRegex(paperfigs.Fig3cRegex, abc) // HAR: stackless exists
	for _, depth := range []int{4, 64, 1024, 4096} {
		ev, st, err := q.machine(semQL, MarkupEncoding, Options{ForbidStack: true})
		if err != nil || st != Stackless {
			b.Fatal("expected a stackless evaluator")
		}
		sl := ev.(*core.StacklessEvaluator)
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			peak := 0
			sl.Reset()
			for _, e := range fixtures.deepDocs[depth] {
				sl.Step(e)
				if r := sl.Registers(); r > peak {
					peak = r
				}
			}
			benchEvaluator(b, ev, fixtures.deepDocs[depth])
			b.ReportMetric(float64(2*peak+2), "state-words")
		})
	}
}

func BenchmarkDepthSweepStack(b *testing.B) {
	loadFixtures()
	q := MustCompileRegex(paperfigs.Fig3cRegex, abc)
	for _, depth := range []int{4, 64, 1024, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			sq := stackeval.QL(q.automaton())
			peak := 0
			sq.Reset()
			for _, e := range fixtures.deepDocs[depth] {
				sq.Step(e)
				if d := sq.StackDepth(); d > peak {
					peak = d
				}
			}
			benchEvaluator(b, sq, fixtures.deepDocs[depth])
			b.ReportMetric(float64(peak+1), "state-words")
		})
	}
}

// --- X2: end-to-end over XML bytes (scanner + evaluator), with -benchmem
// showing the O(1)-register vs Θ(depth)-stack allocation difference. ---

func BenchmarkEndToEndCatalog(b *testing.B) {
	loadFixtures()
	q := MustCompileXPathB(b, "//category//name")
	for _, mode := range []struct {
		name string
		opt  Options
	}{{"auto", Options{}}, {"stack", Options{ForceStack: true}}} {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(len(fixtures.catalogXML)))
			for i := 0; i < b.N; i++ {
				if _, err := q.SelectXML(bytes.NewReader(fixtures.catalogXML), mode.opt, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// MustCompileXPathB compiles an XPath query for benchmarks.
func MustCompileXPathB(b *testing.B, expr string) *Query {
	b.Helper()
	q, err := CompileXPath(expr, []string{"catalog", "item", "name", "price", "category", "discount"})
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// --- X3: classification cost vs automaton size ---

func BenchmarkClassifySweep(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		rng := rand.New(rand.NewSource(int64(n)))
		ds := make([]*dfa.DFA, 16)
		for i := range ds {
			ds[i] = dfa.Random(rng, alphabet.Letters("ab"), n)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				an := classify.Analyze(ds[i%len(ds)])
				an.Report()
			}
		})
	}
}

// --- P1: Proposition 2.8 pattern matching ---

func BenchmarkPatternMatcher(b *testing.B) {
	loadFixtures()
	pat := tree.MustParse("a(b(c),b)")
	b.Run("stream", func(b *testing.B) {
		benchEvaluator(b, core.NewPatternMatcher(pat), fixtures.abcDoc)
	})
	b.Run("in-memory-oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tree.Contains(fixtures.abcTree, pat)
		}
	})
}

// --- P2: Propositions 2.3 / 2.13 ---

func BenchmarkProp23Conversion(b *testing.B) {
	d := core.Example26()
	for i := 0; i < b.N; i++ {
		if _, err := treeauto.FromRestrictedDRA(d, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProp213Decision(b *testing.B) {
	l := rex.MustCompile("a(a|b)*", alphabet.Letters("ab"))
	an := classify.Analyze(l)
	tag, err := core.RegisterlessQL(an)
	if err != nil {
		b.Fatal(err)
	}
	d := core.NewDRA(tag.Alphabet, tag.NumStates(), tag.Start, 0)
	copy(d.Accept, tag.Accept)
	for q := 0; q < tag.NumStates(); q++ {
		for a := 0; a < tag.Alphabet.Size(); a++ {
			d.SetForAllTests(q, a, false, 0, tag.OpenT[q][a])
			d.SetForAllTests(q, a, true, 0, tag.CloseT[q][a])
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := treeauto.IsPathQuery(d, 1<<18)
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// --- Tree-language recognition: the stack baseline (the registerless and
// stackless tiers run in BenchmarkRecognizeWrappers) ---

func BenchmarkELRecognizers(b *testing.B) {
	loadFixtures()
	an := classify.Analyze(rex.MustCompile(paperfigs.Fig3aRegex, paperfigs.GammaABC()))
	b.Run("stack", func(b *testing.B) {
		benchEvaluator(b, stackeval.EL(an.D), fixtures.abcDoc)
	})
}

// --- Weak validation: DTD validators (Section 4.1) ---

func BenchmarkDTDValidation(b *testing.B) {
	d := &dtd.PathDTD{
		Root: "doc",
		Prods: map[string]dtd.Production{
			"doc":  {Symbols: []string{"item"}},
			"item": {Symbols: []string{"item", "leaf"}},
			"leaf": {},
		},
	}
	rng := rand.New(rand.NewSource(11))
	var build func(depth int) *tree.Node
	build = func(depth int) *tree.Node {
		n := tree.New("item")
		if depth > 0 {
			for i := 0; i < 2; i++ {
				n.Children = append(n.Children, build(depth-1))
			}
		} else {
			n.Children = append(n.Children, tree.New("leaf"))
		}
		return n
	}
	doc := tree.New("doc", build(14)) // ~32k items
	events := encoding.Markup(doc)
	_ = rng

	ev, kind, err := d.Validator()
	if err != nil {
		b.Fatal(err)
	}
	b.Run(kind, func(b *testing.B) { benchEvaluator(b, ev, events) })
	b.Run("stack", func(b *testing.B) {
		benchEvaluator(b, d.AsGeneral().NewStackValidator(), events)
	})
}

// --- Scanner throughput (parsing substrate) ---

func BenchmarkXMLScanner(b *testing.B) {
	loadFixtures()
	b.SetBytes(int64(len(fixtures.catalogXML)))
	for i := 0; i < b.N; i++ {
		src := encoding.NewXMLScanner(bytes.NewReader(fixtures.catalogXML))
		for {
			if _, err := src.Next(); err != nil {
				break
			}
		}
	}
}

// drainEvents drains a Source view, returning its event count.
func drainEvents(src encoding.Source) int {
	n := 0
	for {
		if _, err := src.Next(); err != nil {
			return n
		}
		n++
	}
}

// BenchmarkJSONScanner drains JSON through the JSON lexer's Source view:
// 256 order messages of 0.2–2 KB (the json-small workload's shape), each
// its own stream, and one ~2 MB document of such orders in an array.
func BenchmarkJSONScanner(b *testing.B) {
	rng := rand.New(rand.NewSource(2021))
	var orders [][]byte
	for range 256 {
		orders = append(orders, orderJSON(rng))
	}
	var doc bytes.Buffer
	doc.WriteString(`{"orders":[`)
	for i := 0; doc.Len() < 2<<20; i++ {
		if i > 0 {
			doc.WriteByte(',')
		}
		doc.Write(orderJSON(rng))
	}
	doc.WriteString("]}")
	corpora := []struct {
		name string
		docs [][]byte
	}{{"orders", orders}, {"document", [][]byte{doc.Bytes()}}}
	for _, c := range corpora {
		b.Run(c.name, func(b *testing.B) {
			size, events := 0, 0
			for _, d := range c.docs {
				size += len(d)
				events += drainEvents(encoding.NewJSONSource(bytes.NewReader(d)))
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, d := range c.docs {
					drainEvents(encoding.NewJSONSource(bytes.NewReader(d)))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		})
	}
}

// BenchmarkTermScanner drains the brace notation of a 100,000-node random
// tree over {a,b,c} through the term lexer's Source view.
func BenchmarkTermScanner(b *testing.B) {
	loadFixtures()
	doc := []byte(encoding.TermString(fixtures.abcTree))
	events := drainEvents(encoding.NewTermScanner(bytes.NewReader(doc)))
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainEvents(encoding.NewTermScanner(bytes.NewReader(doc)))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
}

// BenchmarkXMLScannerSharedPrefix drains ~2 MB of empty elements over
// 5,000 distinct 17-byte tag names that share a 12-byte prefix: the label
// shape (long, same length, common prefix) that no catalog label has, so
// an interning shortcut for short or early-differing labels shows its
// cost here.
func BenchmarkXMLScannerSharedPrefix(b *testing.B) {
	var doc bytes.Buffer
	doc.WriteString("<root>")
	for i := 0; doc.Len() < 2<<20; i++ {
		fmt.Fprintf(&doc, "<column_name_%05d/>", i%5000)
	}
	doc.WriteString("</root>")
	b.SetBytes(int64(doc.Len()))
	for i := 0; i < b.N; i++ {
		src := encoding.NewXMLScanner(bytes.NewReader(doc.Bytes()))
		for {
			if _, err := src.Next(); err != nil {
				break
			}
		}
	}
}

func BenchmarkStdXMLBridge(b *testing.B) {
	loadFixtures()
	b.SetBytes(int64(len(fixtures.catalogXML)))
	for i := 0; i < b.N; i++ {
		src := encoding.NewStdXMLSource(bytes.NewReader(fixtures.catalogXML))
		for {
			if _, err := src.Next(); err != nil {
				break
			}
		}
	}
}

// --- Term encoding: under Γ ∪ {◁} the registerless machine resolves no
// labels on closing tags, matching the pushdown's advantage — the honest
// counterpoint to the markup-encoding overhead (see EXPERIMENTS.md). ---

func BenchmarkTermEncoding(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	tr := gen.RandomTree(rng, []string{"a", "b", "c"}, 100_000)
	events := encoding.Term(tr)
	q := MustCompileRegex(paperfigs.Fig3aRegex, abc) // blindly almost-reversible
	ev, st, err := q.machine(semQL, TermEncoding, Options{ForbidStack: true})
	if err != nil || st != Registerless {
		b.Fatalf("aΓ*b should be term-registerless (err=%v)", err)
	}
	b.Run("blind-registerless", func(b *testing.B) { benchEvaluator(b, ev, events) })
	b.Run("stack", func(b *testing.B) { benchEvaluator(b, stackMachine(q, TermEncoding), events) })
}

// --- Multi-query single pass: parsing cost amortized across queries (the
// §1 SAX argument). ---

func BenchmarkMultiQueryCatalog(b *testing.B) {
	loadFixtures()
	labels := []string{"catalog", "item", "name", "price", "category", "discount"}
	exprs := []string{
		"'catalog''item''name'",
		".*'category'.*'name'",
		".*'discount'",
		"'catalog''item''price'",
	}
	for _, k := range []int{1, 2, 4} {
		qs := make([]*Query, k)
		for i := 0; i < k; i++ {
			var err error
			qs[i], err = CompileRegex(exprs[i], labels)
			if err != nil {
				b.Fatal(err)
			}
		}
		mq, err := NewMultiQuery(qs...)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("queries=%d", k), func(b *testing.B) {
			b.SetBytes(int64(len(fixtures.catalogXML)))
			for i := 0; i < b.N; i++ {
				if _, err := mq.SelectXML(bytes.NewReader(fixtures.catalogXML), Options{}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Multi-query product compilation (DESIGN.md §13) ---
//
// The product claim: merging compatible compiled machines into one product
// automaton with bitset accept masks makes the per-event stepping cost of a
// query set nearly independent of its size, where fan-out pays one table
// load per machine per event. Sandwich queries 'xi'.*'yk' over a 48-label
// grid keep the joint state space small at every size. Both modes run the
// same in-memory document through the sequential compiled pass; the
// fan-out/product ns/event ratio at 64 queries is the number quoted in
// EXPERIMENTS.md (BENCH_multi.json, regenerated by make bench-multi).

func BenchmarkMultiQueryProduct(b *testing.B) {
	labels := make([]string, 0, 48)
	for i := 0; i < 32; i++ {
		labels = append(labels, fmt.Sprintf("x%d", i))
	}
	for k := 0; k < 16; k++ {
		labels = append(labels, fmt.Sprintf("y%d", k))
	}
	rng := rand.New(rand.NewSource(2023))
	events := encoding.Markup(gen.RandomTree(rng, labels, 20_000))
	for _, nq := range []int{8, 64, 512} {
		qs := make([]*Query, 0, nq)
		for i := 0; i < 32 && len(qs) < nq; i++ {
			for k := 0; k < 16 && len(qs) < nq; k++ {
				qs = append(qs, MustCompileRegex(fmt.Sprintf("'x%d'.*'y%d'", i, k), labels))
			}
		}
		matchTotals := map[string]int{}
		for _, mode := range []struct {
			name string
			fan  bool
		}{{"product", false}, {"fanout", true}} {
			mq, err := NewMultiQuery(qs...)
			if err != nil {
				b.Fatal(err)
			}
			mq.noProduct = mode.fan
			b.Run(fmt.Sprintf("queries=%d/%s", nq, mode.name), func(b *testing.B) {
				src := encoding.NewSliceSource(events)
				src.Rewind()
				stats, err := mq.selectSource(src, MarkupEncoding, Options{}, nil)
				if err != nil {
					b.Fatal(err)
				}
				if stats.Pipeline != PipelineCoded {
					b.Fatalf("%s mode left the compiled pipeline", mode.name)
				}
				if want := 1; mode.fan {
					want = 0
				} else if stats.ProductGroups != want {
					b.Fatalf("product mode planned %d groups, want 1 (cap blown?)", stats.ProductGroups)
				}
				total := 0
				for _, n := range stats.Matches {
					total += n
				}
				matchTotals[mode.name] = total
				if p, ok := matchTotals["product"]; ok {
					if f, ok := matchTotals["fanout"]; ok && p != f {
						b.Fatalf("modes disagree: product %d matches, fan-out %d", p, f)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					src.Rewind()
					if _, err := mq.selectSource(src, MarkupEncoding, Options{}, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
			})
		}
	}
	benchMultiStacked(b)
}

// benchMultiStacked runs the multi-parallel shape — 16 members over 200
// Zipf(1.2) labels, six registerless .*x, five stackless .*x.*y and five
// stack-tier .*xy, over an ~80 KB XML document of depth at most 12 —
// through the stacked plan at Workers 1 and 2, from the XML bytes to the
// match callback.
func benchMultiStacked(b *testing.B) {
	labels := make([]string, 200)
	for i := range labels {
		labels[i] = fmt.Sprintf("t%03d", i)
	}
	rng := rand.New(rand.NewSource(2026))
	z := rand.NewZipf(rng, 1.2, 1, uint64(len(labels)-1))
	root := &tree.Node{Label: labels[0]}
	for budget := 8000; budget > 0; {
		var grow func(depth int) *tree.Node
		grow = func(depth int) *tree.Node {
			n := &tree.Node{Label: labels[z.Uint64()]}
			budget--
			for budget > 0 && depth < 12 && rng.Intn(depth+2) < 3 {
				n.Children = append(n.Children, grow(depth+1))
			}
			return n
		}
		root.Children = append(root.Children, grow(2))
	}
	doc := []byte(encoding.XMLString(root))
	var qs []*Query
	for _, x := range []int{0, 1, 2, 4, 7, 12} {
		qs = append(qs, MustCompileRegex(fmt.Sprintf(".*'%s'", labels[x]), labels))
	}
	for _, p := range [][2]int{{0, 1}, {1, 0}, {2, 3}, {0, 5}, {3, 1}} {
		qs = append(qs, MustCompileRegex(fmt.Sprintf(".*'%s'.*'%s'", labels[p[0]], labels[p[1]]), labels))
	}
	for _, p := range [][2]int{{0, 1}, {1, 2}, {0, 0}, {2, 1}, {4, 0}} {
		qs = append(qs, MustCompileRegex(fmt.Sprintf(".*'%s''%s'", labels[p[0]], labels[p[1]]), labels))
	}
	mq, err := NewMultiQuery(qs...)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("zipf16/workers=%d/stacked", workers), func(b *testing.B) {
			opt := Options{Workers: workers}
			count := func(MultiMatch) {}
			stats, err := mq.SelectXML(bytes.NewReader(doc), opt, count)
			if err != nil {
				b.Fatal(err)
			}
			if stats.Plan != MultiPlanStacked {
				b.Fatalf("ran the %v plan, want stacked", stats.Plan)
			}
			b.SetBytes(int64(len(doc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mq.SelectXML(bytes.NewReader(doc), opt, count); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(stats.Events), "ns/event")
		})
	}
}

// --- Chunk-parallel evaluation (DESIGN.md §8) ---
//
// The speedup claim needs real cores: on GOMAXPROCS=1 the parallel runs
// only measure the orchestration overhead (see EXPERIMENTS.md). The match
// sets are byte-identical either way — asserted here on every iteration,
// and exhaustively by workers_test.go and internal/parallel.

func benchSelectWorkers(b *testing.B, q *Query, events []encoding.Event, workers int) {
	b.Helper()
	ev, _, err := q.machine(semQL, MarkupEncoding, Options{})
	if err != nil {
		b.Fatal(err)
	}
	var want int
	if _, err := core.Select(ev, encoding.NewSliceSource(events), func(core.Match) { want++ }); err != nil {
		b.Fatal(err)
	}
	cm, ok := ev.(core.Chunkable)
	if !ok {
		b.Fatal("strategy is not chunkable")
	}
	pool := parallel.Shared()
	src := encoding.NewSliceSource(events)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := 0
		if workers <= 1 {
			// The sequential baseline is the coded pipeline the chunk
			// engine runs per segment, over the same events.
			src.Rewind()
			if _, err := core.SelectCoded(ev, src, func(core.Match) { got++ }); err != nil {
				b.Fatal(err)
			}
		} else {
			parallel.Select(pool, cm, events, workers, func(core.Match) { got++ })
		}
		if got != want {
			b.Fatalf("workers=%d: %d matches, want %d", workers, got, want)
		}
	}
	b.StopTimer()
	nsPerEvent := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(events))
	b.ReportMetric(nsPerEvent, "ns/event")
}

// BenchmarkSelectParallelRegisterless sweeps worker counts for the tag-DFA
// strategy (vectorized all-states segment kernel) on the large-tree corpus.
func BenchmarkSelectParallelRegisterless(b *testing.B) {
	loadFixtures()
	q := MustCompileRegex(paperfigs.Fig3aRegex, abc)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchSelectWorkers(b, q, fixtures.abcDoc, w)
		})
	}
}

// BenchmarkSelectParallelStackless sweeps worker counts for the stackless
// strategy (per-run record stacks in the segment kernel).
func BenchmarkSelectParallelStackless(b *testing.B) {
	loadFixtures()
	q := MustCompileRegex(paperfigs.Fig3cRegex, abc)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchSelectWorkers(b, q, fixtures.abcDoc, w)
		})
	}
}

// BenchmarkSelectParallelDeep runs the worker sweep on the depth-4096
// corpus: deep documents stress the cut policies (few CutNewMin boundaries
// near the spikes) and the join's depth-delta accounting.
func BenchmarkSelectParallelDeep(b *testing.B) {
	loadFixtures()
	q := MustCompileRegex(paperfigs.Fig3cRegex, abc)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchSelectWorkers(b, q, fixtures.deepDocs[4096], w)
		})
	}
}

// BenchmarkSelectParallelXML measures the end-to-end path (scan + chunk +
// join) through the public API on the catalog document.
func BenchmarkSelectParallelXML(b *testing.B) {
	loadFixtures()
	q := MustCompileXPathB(b, "//category//name")
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.SetBytes(int64(len(fixtures.catalogXML)))
			for i := 0; i < b.N; i++ {
				if _, err := q.SelectXML(bytes.NewReader(fixtures.catalogXML), Options{Workers: w}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsOverhead pins the cost of the observability layer on the
// stackless kernel: collector=off is the production default (every hook a
// nil check, zero allocations — see TestObsDisabledZeroAllocs), collector=on
// is the fully instrumented run. The off numbers must track the plain
// BenchmarkSelectParallelStackless within noise.
func BenchmarkObsOverhead(b *testing.B) {
	loadFixtures()
	q := MustCompileRegex(paperfigs.Fig3cRegex, abc)
	events := fixtures.abcDoc
	ev, _, err := q.machine(semQL, MarkupEncoding, Options{})
	if err != nil {
		b.Fatal(err)
	}
	cm, ok := ev.(core.Chunkable)
	if !ok {
		b.Fatal("strategy is not chunkable")
	}
	pool := parallel.Shared()
	for _, mode := range []struct {
		name string
		c    *Collector
	}{
		{"off", nil},
		{"on", NewCollector()},
	} {
		b.Run("seq/collector="+mode.name, func(b *testing.B) {
			src := encoding.NewSliceSource(events)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Rewind()
				if _, err := core.SelectObs(ev, mode.c, src, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
		})
		b.Run("parallel4/collector="+mode.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				parallel.SelectObs(pool, cm, events, 4, mode.c, nil)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
		})
	}
}

// --- Compiled symbol-coded pipeline (DESIGN.md §11) ---
//
// Each benchmark runs one machine over the same buffered document through
// the per-event string pipeline and the batched coded pipeline; the
// ns/event ratio between the string/ and coded/ sub-benchmarks is the
// headline number recorded in BENCH_coded.json and EXPERIMENTS.md.

func benchSelectPipelines(b *testing.B, ev core.Evaluator, events []encoding.Event) {
	b.Helper()
	if _, ok := ev.(core.BatchEvaluator); !ok {
		b.Fatal("machine does not support the compiled pipeline")
	}
	var want int
	if _, err := core.Select(ev, encoding.NewSliceSource(events), func(core.Match) { want++ }); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		sel  func(core.Evaluator, encoding.Source, func(core.Match)) (int, error)
	}{
		{"string", core.Select},
		{"coded", core.SelectCoded},
	} {
		b.Run(mode.name, func(b *testing.B) {
			src := encoding.NewSliceSource(events)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Rewind()
				got := 0
				if _, err := mode.sel(ev, src, func(core.Match) { got++ }); err != nil {
					b.Fatal(err)
				}
				if got != want {
					b.Fatalf("%d matches, want %d", got, want)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
		})
	}
}

func codedBenchEvaluator(b *testing.B, regex string) core.Evaluator {
	b.Helper()
	q := MustCompileRegex(regex, abc)
	ev, _, err := q.machine(semQL, MarkupEncoding, Options{ForbidStack: true})
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

// BenchmarkSelectCodedRegisterless: the compiled tag DFA (flat state×symbol
// table, branchless batch stepping) against its per-event twin.
func BenchmarkSelectCodedRegisterless(b *testing.B) {
	loadFixtures()
	benchSelectPipelines(b, codedBenchEvaluator(b, paperfigs.Fig3aRegex), fixtures.abcDoc)
}

// BenchmarkSelectCodedStackless: the compiled HAR evaluator (table-driven
// transitions, record stack pushes only on SCC changes).
func BenchmarkSelectCodedStackless(b *testing.B) {
	loadFixtures()
	benchSelectPipelines(b, codedBenchEvaluator(b, paperfigs.Fig3cRegex), fixtures.abcDoc)
}

// BenchmarkSelectCodedDeep: the stackless machine on the depth-4096 corpus —
// deep documents stress the record-stack side of the compiled step.
func BenchmarkSelectCodedDeep(b *testing.B) {
	loadFixtures()
	benchSelectPipelines(b, codedBenchEvaluator(b, paperfigs.Fig3cRegex), fixtures.deepDocs[4096])
}

// BenchmarkSelectCodedDRA: the table DRA's batched step (branchless
// depth/register comparison bits, direct table indexing).
func BenchmarkSelectCodedDRA(b *testing.B) {
	loadFixtures()
	benchSelectPipelines(b, core.Example26().Evaluator(), fixtures.abcDoc)
}

// wrapperBenchDocs derives from the random tree the two documents on which
// the EL and AL wrappers of .*a.*b and a.*b read every event: every label b
// turned to c, so no leaf is selected and EL rejects at the end; and the
// root relabelled a and every leaf b, so every leaf is selected and AL
// accepts at the end.
func wrapperBenchDocs() (noMatch, allLeaves []encoding.Event) {
	noMatch = slices.Clone(fixtures.abcDoc)
	allLeaves = slices.Clone(fixtures.abcDoc)
	for i, e := range noMatch {
		if e.Label == "b" {
			noMatch[i].Label = "c"
		}
		if e.Kind == encoding.Open && i+1 < len(allLeaves) && allLeaves[i+1].Kind == encoding.Close {
			allLeaves[i].Label, allLeaves[i+1].Label = "b", "b"
		}
	}
	allLeaves[0].Label, allLeaves[len(allLeaves)-1].Label = "a", "a"
	return noMatch, allLeaves
}

// BenchmarkRecognizeWrappers: the EL and AL wrappers (Theorems 3.1 and
// 3.2(3)) of .*a.*b over the stackless machine and the pushdown, and of
// a.*b over its synopsis tables (the registerless EL and AL machines),
// through the per-event string driver and the coded batch driver, on
// documents whose verdict is decided only by the last event.
func BenchmarkRecognizeWrappers(b *testing.B) {
	loadFixtures()
	noMatch, allLeaves := wrapperBenchDocs()
	an := classify.Analyze(rex.MustCompile(paperfigs.Fig3cRegex, paperfigs.GammaABC()))
	sl, err := core.StacklessQL(an)
	if err != nil {
		b.Fatal(err)
	}
	anA := classify.Analyze(rex.MustCompile(paperfigs.Fig3aRegex, paperfigs.GammaABC()))
	elR, err := core.RegisterlessEL(anA)
	if err != nil {
		b.Fatal(err)
	}
	alR, err := core.RegisterlessAL(anA)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name   string
		ev     core.Evaluator
		events []encoding.Event
		want   bool
	}{
		{"el-stackless", core.ELFromQL(sl), noMatch, false},
		{"al-stackless", core.ALFromQL(sl), allLeaves, true},
		{"el-stack", stackeval.EL(an.D), noMatch, false},
		{"al-stack", stackeval.AL(an.D), allLeaves, true},
		{"el-registerless", elR, noMatch, false},
		{"al-registerless", alR, allLeaves, true},
	} {
		for _, mode := range []struct {
			name string
			rec  func(core.Evaluator, encoding.Source) (bool, error)
		}{
			{"string", core.Recognize},
			{"coded", core.RecognizeCoded},
		} {
			b.Run(m.name+"/"+mode.name, func(b *testing.B) {
				src := encoding.NewSliceSource(m.events)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					src.Rewind()
					got, err := mode.rec(m.ev, src)
					if err != nil {
						b.Fatal(err)
					}
					if got != m.want {
						b.Fatalf("verdict %v, want %v", got, m.want)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(m.events)), "ns/event")
			})
		}
	}
}

// --- Earliest emission (DESIGN.md §14). ---

// benchSelectEarliestPipelines runs the same document through the default
// string and coded drivers and the earliest driver (the coded driver in
// one-event windows), reporting ns/event for each — the price of the
// per-event latency contract against both (EXPERIMENTS.md).
func benchSelectEarliestPipelines(b *testing.B, ev core.Evaluator, events []encoding.Event) {
	b.Helper()
	var want int
	if _, err := core.Select(ev, encoding.NewSliceSource(events), func(core.Match) { want++ }); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		sel  func(core.Evaluator, encoding.Source, func(core.Match)) (int, error)
	}{
		{"string", core.Select},
		{"coded", core.SelectCoded},
		{"earliest", core.SelectEarliest},
	} {
		b.Run(mode.name, func(b *testing.B) {
			src := encoding.NewSliceSource(events)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Rewind()
				got := 0
				if _, err := mode.sel(ev, src, func(core.Match) { got++ }); err != nil {
					b.Fatal(err)
				}
				if got != want {
					b.Fatalf("%d matches, want %d", got, want)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
		})
	}
}

// BenchmarkSelectEarliestRegisterless: the tag DFA under the earliest
// contract — one-event windows against the whole-batch coded path and the
// string driver.
func BenchmarkSelectEarliestRegisterless(b *testing.B) {
	loadFixtures()
	benchSelectEarliestPipelines(b, codedBenchEvaluator(b, paperfigs.Fig3aRegex), fixtures.abcDoc)
}

// BenchmarkSelectEarliestStackless: the HAR evaluator under the earliest
// contract.
func BenchmarkSelectEarliestStackless(b *testing.B) {
	loadFixtures()
	benchSelectEarliestPipelines(b, codedBenchEvaluator(b, paperfigs.Fig3cRegex), fixtures.abcDoc)
}

// BenchmarkSelectEarliestEarlyExit: the flag payoff. An out-of-alphabet
// root decides the run at event one — the earliest driver only counts the
// rest of the document's batches, while the default drivers keep stepping
// their dead machine to the end.
func BenchmarkSelectEarliestEarlyExit(b *testing.B) {
	loadFixtures()
	events := make([]encoding.Event, 0, len(fixtures.abcDoc)+2)
	events = append(events, encoding.Event{Kind: encoding.Open, Label: "zz"})
	events = append(events, fixtures.abcDoc...)
	events = append(events, encoding.Event{Kind: encoding.Close, Label: "zz"})
	benchSelectEarliestPipelines(b, codedBenchEvaluator(b, paperfigs.Fig3aRegex), events)
}

// --- Pushdown fallback (DESIGN.md §16) ---
//
// The rebuilt pushdown against (a) the pre-rebuild per-event machine it
// replaced and (b) the stackless coded path it falls back from. The
// acceptance bar recorded in BENCH_stack.json and EXPERIMENTS.md: the coded
// pushdown stays within 2× of the stackless coded ns/event on the same
// query and document, so taking the fallback no longer means falling off
// the compiled pipeline.

// legacyStack is the pre-§16 pushdown baseline: per-event label resolution,
// a growable []int state stack with a parallel aliveness stack, and a
// branch on aliveness at every open. The differential fuzzers in
// internal/encoding hold the rebuilt machine behaviourally identical to it.
type legacyStack struct {
	d     *dfa.DFA
	res   alphabet.Resolver
	state int
	alive bool
	stk   []int
	alv   []bool
}

func newLegacyStack(d *dfa.DFA) *legacyStack {
	return &legacyStack{d: d, res: alphabet.NewResolver(d.Alphabet), state: d.Start, alive: true}
}

func (m *legacyStack) Reset() {
	m.state, m.alive = m.d.Start, true
	m.stk, m.alv = m.stk[:0], m.alv[:0]
}

func (m *legacyStack) Step(e encoding.Event) {
	if e.Kind == encoding.Open {
		m.stk = append(m.stk, m.state)
		m.alv = append(m.alv, m.alive)
		s, ok := m.res.ID(e.Label)
		if !ok || !m.alive {
			m.alive = false
			return
		}
		m.state = m.d.Delta[m.state][s]
		return
	}
	if n := len(m.stk); n > 0 {
		m.state, m.alive = m.stk[n-1], m.alv[n-1]
		m.stk, m.alv = m.stk[:n-1], m.alv[:n-1]
	}
}

func (m *legacyStack) Accepting() bool { return m.alive && m.d.Accept[m.state] }

func benchStackPipelines(b *testing.B, q *Query, events []encoding.Event) {
	b.Helper()
	d := q.automaton()
	pd := stackeval.QL(d)
	var want int
	if _, err := core.Select(pd, encoding.NewSliceSource(events), func(core.Match) { want++ }); err != nil {
		b.Fatal(err)
	}

	b.Run("legacy", func(b *testing.B) {
		m := newLegacyStack(d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Reset()
			got := 0
			for _, e := range events {
				m.Step(e)
				if e.Kind == encoding.Open && m.Accepting() {
					got++
				}
			}
			if got != want {
				b.Fatalf("%d matches, want %d", got, want)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
	})

	for _, mode := range []struct {
		name string
		sel  func(core.Evaluator, encoding.Source, func(core.Match)) (int, error)
	}{
		{"string", core.Select},
		{"coded", core.SelectCoded},
	} {
		b.Run(mode.name, func(b *testing.B) {
			src := encoding.NewSliceSource(events)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Rewind()
				got := 0
				if _, err := mode.sel(pd, src, func(core.Match) { got++ }); err != nil {
					b.Fatal(err)
				}
				if got != want {
					b.Fatalf("%d matches, want %d", got, want)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
		})
	}

	// The fall-from path: the same query through the stackless coded
	// pipeline — the denominator of the ≤2× contract.
	sl, st, err := q.machine(semQL, MarkupEncoding, Options{ForbidStack: true})
	if err != nil || st != Stackless {
		b.Fatalf("expected a stackless evaluator (err=%v st=%v)", err, st)
	}
	b.Run("stackless-coded", func(b *testing.B) {
		src := encoding.NewSliceSource(events)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src.Rewind()
			got := 0
			if _, err := core.SelectCoded(sl, src, func(core.Match) { got++ }); err != nil {
				b.Fatal(err)
			}
			if got != want {
				b.Fatalf("%d matches, want %d", got, want)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
	})
}

// BenchmarkSelectStack: the pushdown family on the large random tree.
func BenchmarkSelectStack(b *testing.B) {
	loadFixtures()
	benchStackPipelines(b, MustCompileRegex(paperfigs.Fig3cRegex, abc), fixtures.abcDoc)
}

// BenchmarkSelectStackDeep: the depth-4096 corpus — long open and close
// cascades keep the pool's free list hot and the legacy baseline's append
// path honest.
func BenchmarkSelectStackDeep(b *testing.B) {
	loadFixtures()
	benchStackPipelines(b, MustCompileRegex(paperfigs.Fig3cRegex, abc), fixtures.deepDocs[4096])
}

// --- Post-selection extension: the stack-based subtree-witness query. ---

func BenchmarkPostSelection(b *testing.B) {
	loadFixtures()
	p, err := CompilePostQuery("'catalog''item'", "discount",
		[]string{"catalog", "item", "name", "price", "category"})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(fixtures.catalogXML)))
	for i := 0; i < b.N; i++ {
		if _, err := p.SelectXML(bytes.NewReader(fixtures.catalogXML), nil); err != nil {
			b.Fatal(err)
		}
	}
}
