package stackless

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"stackless/internal/encoding"
	"stackless/internal/gen"
	"stackless/internal/tree"
)

// End-to-end differential coverage for multi-query product compilation
// (DESIGN.md §13) through the public API: the product path must be
// observationally identical to the fan-out it replaces — same matches, same
// emission order, same stats, same counters — and the instrumented run must
// stay on the compiled pipeline now that its counters flush per batch.

// multiRun collects a full MultiMatch stream through SelectXML.
func multiRun(t *testing.T, mq *MultiQuery, doc string, opt Options) ([]MultiMatch, MultiStats) {
	t.Helper()
	var got []MultiMatch
	stats, err := mq.SelectXML(strings.NewReader(doc), opt, func(m MultiMatch) {
		got = append(got, m)
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

// TestMultiQueryProductDifferential drives random query sets — registerless
// (productable), stackless, and stack-only mixed — over random documents
// including out-of-alphabet labels, and checks three ways: product vs
// fan-out (noProduct) streams are identical, both agree with each query's
// own single-query Select, and ProductGroups reflects the plan actually
// taken at every worker count.
func TestMultiQueryProductDifferential(t *testing.T) {
	withProcs(t, 8)
	pool := []*Query{
		MustCompileRegex("a.*b", abc),
		MustCompileRegex(".*a", abc),
		MustCompileRegex("a.*c", abc),
		MustCompileRegex("b.*a", abc),
		MustCompileRegex("a.*(b.*)?c", abc),
		MustCompileRegex(".*a.*b", abc), // stackless
		MustCompileRegex(".*b.*c", abc), // stackless
		MustCompileRegex(".*ab", abc),   // stack-only
	}
	labels := []string{"a", "b", "c", "zz"} // zz poisons every compiled machine
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 25; trial++ {
		perm := rng.Perm(len(pool))
		set := make([]*Query, 2+rng.Intn(len(pool)-1))
		for i := range set {
			set[i] = pool[perm[i]]
		}
		mq, err := NewMultiQuery(set...)
		if err != nil {
			t.Fatal(err)
		}
		mqNo, err := NewMultiQuery(set...)
		if err != nil {
			t.Fatal(err)
		}
		mqNo.noProduct = true
		doc := encoding.XMLString(gen.RandomTree(rng, labels, 1+rng.Intn(60)))

		// Single-query oracle: each query's own sequential pass.
		single := make([][]Match, len(set))
		for qi, q := range set {
			if _, err := q.SelectXML(strings.NewReader(doc), Options{}, func(m Match) {
				single[qi] = append(single[qi], m)
			}); err != nil {
				t.Fatal(err)
			}
		}

		for _, workers := range []int{1, 2, 8} {
			opt := Options{Workers: workers}
			gotP, statsP := multiRun(t, mq, doc, opt)
			gotF, statsF := multiRun(t, mqNo, doc, opt)
			if !reflect.DeepEqual(gotP, gotF) {
				t.Fatalf("trial %d workers %d: product stream %v, fan-out stream %v", trial, workers, gotP, gotF)
			}
			if !reflect.DeepEqual(statsP.Matches, statsF.Matches) || statsP.Events != statsF.Events {
				t.Fatalf("trial %d workers %d: product stats %+v, fan-out stats %+v", trial, workers, statsP, statsF)
			}
			demux := make([][]Match, len(set))
			for _, m := range gotP {
				demux[m.Query] = append(demux[m.Query], m.Match)
			}
			for qi := range set {
				if !reflect.DeepEqual(demux[qi], single[qi]) {
					t.Fatalf("trial %d workers %d query %d (%s): multi %v, single %v",
						trial, workers, qi, set[qi], demux[qi], single[qi])
				}
			}
			// The plan is built whenever a run is not earliest: a set with
			// a stack-tier member runs as one stacked product, otherwise
			// every registerless member joins one product group.
			registerless, stack := 0, false
			for _, s := range statsP.Strategies {
				if s == Registerless {
					registerless++
				}
				stack = stack || s == Stack
			}
			wantPlan, wantGroups := MultiPlanGrouped, 0
			switch {
			case stack:
				wantPlan, wantGroups = MultiPlanStacked, 1
			case registerless >= 2:
				wantGroups = 1
			}
			if statsP.ProductGroups != wantGroups || statsP.Plan != wantPlan {
				t.Fatalf("trial %d workers %d: ProductGroups = %d, plan %v, want %d, %v (strategies %v, pipeline %v)",
					trial, workers, statsP.ProductGroups, statsP.Plan, wantGroups, wantPlan, statsP.Strategies, statsP.Pipeline)
			}
			if statsF.ProductGroups != 0 || statsF.Plan != MultiPlanGrouped {
				t.Fatalf("trial %d workers %d: noProduct reports %d product groups, plan %v", trial, workers, statsF.ProductGroups, statsF.Plan)
			}
		}
	}
}

// TestMultiQueryProductGroupsStats pins the MultiStats.ProductGroups and
// Plan surface on the three paths a run can take: the compiled pass
// products compatible queries, noProduct fans out, and the pushdown path
// (here forced via ForceStack) runs the set as one stacked product.
func TestMultiQueryProductGroupsStats(t *testing.T) {
	mq, err := NewMultiQuery(MustCompileRegex("a.*b", abc), MustCompileRegex(".*a", abc))
	if err != nil {
		t.Fatal(err)
	}
	doc := "<a><b></b><c></c></a>"
	_, stats := multiRun(t, mq, doc, Options{})
	if stats.Pipeline != PipelineCoded || stats.ProductGroups != 1 {
		t.Fatalf("compiled pass: pipeline %v, groups %d, want coded/1", stats.Pipeline, stats.ProductGroups)
	}
	mq.noProduct = true
	_, stats = multiRun(t, mq, doc, Options{})
	if stats.ProductGroups != 0 {
		t.Fatalf("noProduct: groups %d, want 0", stats.ProductGroups)
	}
	mq.noProduct = false
	_, stats = multiRun(t, mq, doc, Options{ForceStack: true})
	if stats.Pipeline != PipelineCoded || stats.ProductGroups != 1 || stats.Plan != MultiPlanStacked {
		t.Fatalf("stack path: pipeline %v, groups %d, plan %v, want coded/1/stacked", stats.Pipeline, stats.ProductGroups, stats.Plan)
	}
}

// TestMultiQueryInstrumentedStaysCoded is the regression test for the
// instrumented-path gap: attaching a collector used to bump the sequential
// multi-query pass off the compiled pipeline. Now the batched pass flushes
// counters itself, so an instrumented run must report PipelineCoded, emit
// the same matches as an uninstrumented one, and keep the multi-query
// accounting convention — Events per machine, one Depth sample per open,
// one Matches tick per emission.
func TestMultiQueryInstrumentedStaysCoded(t *testing.T) {
	queries := []*Query{
		MustCompileRegex("a.*b", abc),
		MustCompileRegex(".*a", abc),
		MustCompileRegex("a.*c", abc),
	}
	mq, err := NewMultiQuery(queries...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(137))
	for trial, labels := range [][]string{abc, {"a", "b", "c", "zz"}} {
		doc := encoding.XMLString(gen.RandomTree(rng, labels, 150))
		plain, plainStats := multiRun(t, mq, doc, Options{})
		c := NewCollector()
		inst, stats := multiRun(t, mq, doc, Options{Collector: c})
		if stats.Pipeline != PipelineCoded {
			t.Fatalf("trial %d: instrumented pipeline = %v, want coded", trial, stats.Pipeline)
		}
		if stats.ProductGroups != 1 {
			t.Fatalf("trial %d: instrumented ProductGroups = %d, want 1", trial, stats.ProductGroups)
		}
		if !reflect.DeepEqual(inst, plain) || !reflect.DeepEqual(stats.Matches, plainStats.Matches) {
			t.Fatalf("trial %d: instrumented run diverges: %v vs %v", trial, inst, plain)
		}
		if got, want := c.Events.Load(), int64(len(queries)*stats.Events); got != want {
			t.Fatalf("trial %d: Events = %d, want %d (events × queries)", trial, got, want)
		}
		total := 0
		for _, n := range stats.Matches {
			total += n
		}
		if got := c.Matches.Load(); got != int64(total) {
			t.Fatalf("trial %d: Matches = %d, want %d", trial, got, total)
		}
		// Markup encoding: every node is one open and one close.
		if got, want := c.Depth.Count(), int64(stats.Events/2); got != want {
			t.Fatalf("trial %d: Depth samples = %d, want %d (one per open)", trial, got, want)
		}
	}
}

// TestMultiQueryInstrumentedAllocs pins that the batched counter flushing
// costs no per-event allocations: an instrumented sequential run allocates
// no more than a handful of objects beyond the uninstrumented one (both on
// the compiled pipeline, measured over an in-memory event source).
func TestMultiQueryInstrumentedAllocs(t *testing.T) {
	mq, err := NewMultiQuery(
		MustCompileRegex("a.*b", abc),
		MustCompileRegex(".*a", abc),
		MustCompileRegex("a.*c", abc),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(139))
	events := encoding.Markup(gen.RandomTree(rng, abc, 400))
	src := encoding.NewSliceSource(events)
	c := NewCollector()
	run := func(col *Collector) {
		src.Rewind()
		stats, err := mq.selectSource(src, MarkupEncoding, Options{Collector: col}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Pipeline != PipelineCoded {
			t.Fatalf("pipeline = %v, want coded", stats.Pipeline)
		}
	}
	run(nil) // warm-up: compile tables, populate the product cache
	run(c)
	base := testing.AllocsPerRun(20, func() { run(nil) })
	instr := testing.AllocsPerRun(20, func() { run(c) })
	if instr > base+8 {
		t.Errorf("instrumented run allocates %.1f per run vs %.1f plain — counter flushing should be allocation-free", instr, base)
	}
}

// TestMultiQueryMismatchedCloses pins what the engine does with markup
// streams whose tags balance in count but whose closes name the wrong
// label. The O(1) tag-balance guard counts depth only, so no tier rejects
// them: every call returns a nil error. Under the grouped plan, which the
// pool takes without its stack-tier members, every member's MultiQuery
// stream still equals its own Select; under the stacked plan so do the
// registerless and stack-tier members', while a stackless member's may not
// (DESIGN.md §13): its machine reads close labels, and the stacked
// pushdown pops blind. The two pinned documents show both ways it differs.
func TestMultiQueryMismatchedCloses(t *testing.T) {
	pool := []*Query{
		MustCompileRegex("a.*b", abc), // registerless
		MustCompileRegex(".*a", abc),
		MustCompileRegex("a.*c", abc),
		MustCompileRegex("b.*a", abc),
		MustCompileRegex("a.*(b.*)?c", abc),
		MustCompileRegex(".*a.*b", abc), // stackless
		MustCompileRegex(".*b.*c", abc),
		MustCompileRegex(".*ab", abc), // stack
		MustCompileRegex(".*cb", abc),
	}
	stacked, err := NewMultiQuery(pool...)
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := NewMultiQuery(pool[:7]...)
	if err != nil {
		t.Fatal(err)
	}
	// run returns each member's stream over doc through mq, or through its
	// own Select when mq is nil.
	run := func(mq *MultiQuery, doc string) ([][]Match, MultiStats) {
		t.Helper()
		out := make([][]Match, len(pool))
		if mq == nil {
			for qi, q := range pool {
				if _, err := q.SelectXML(strings.NewReader(doc), Options{}, func(m Match) { out[qi] = append(out[qi], m) }); err != nil {
					t.Fatalf("%s over %s: %v", q, doc, err)
				}
			}
			return out, MultiStats{}
		}
		stats, err := mq.SelectXML(strings.NewReader(doc), Options{}, func(m MultiMatch) { out[m.Query] = append(out[m.Query], m.Match) })
		if err != nil {
			t.Fatalf("%v plan over %s: %v", stats.Plan, doc, err)
		}
		return out, stats
	}

	labels := []string{"a", "b", "c", "zz"}
	rng := rand.New(rand.NewSource(149))
	diverged := 0
	for trial := 0; trial < 2000; trial++ {
		var b strings.Builder
		var write func(n *tree.Node)
		write = func(n *tree.Node) {
			b.WriteString("<" + n.Label + ">")
			for _, c := range n.Children {
				write(c)
			}
			close := n.Label
			if rng.Intn(3) == 0 {
				close = labels[rng.Intn(len(labels))]
			}
			b.WriteString("</" + close + ">")
		}
		write(gen.RandomTree(rng, labels, 1+rng.Intn(30)))
		doc := b.String()
		single, _ := run(nil, doc)
		gotG, statsG := run(grouped, doc)
		gotS, statsS := run(stacked, doc)
		if statsG.Plan != MultiPlanGrouped || statsG.ProductGroups == 0 || statsS.Plan != MultiPlanStacked {
			t.Fatalf("plans %v (%d product groups) and %v, want grouped with a product group and stacked",
				statsG.Plan, statsG.ProductGroups, statsS.Plan)
		}
		for qi := range pool {
			if qi < len(grouped.queries) && !reflect.DeepEqual(gotG[qi], single[qi]) {
				t.Fatalf("grouped plan, %s over %s: %v, own Select %v", pool[qi], doc, gotG[qi], single[qi])
			}
			if reflect.DeepEqual(gotS[qi], single[qi]) {
				continue
			}
			if statsS.Strategies[qi] != Stackless {
				t.Fatalf("stacked plan, %v member %s over %s: %v, own Select %v",
					statsS.Strategies[qi], pool[qi], doc, gotS[qi], single[qi])
			}
			diverged++
		}
	}
	t.Logf("stackless members diverged %d times under the stacked plan", diverged)

	// The pinned counterexamples, both for .*a.*b (member 5). The stackless
	// machine parks at </a>, a close with no backtrack candidate, where
	// the pushdown pops back to the root; and at </zz> it pops the record
	// <a> pushed, where the stacked plan poisons the member for a label
	// outside its alphabet.
	for _, tc := range []struct {
		doc          string
		single, stck []Match
	}{
		{"<b><c></a><a><b></b></a></a>", nil, []Match{{Pos: 3, Depth: 3, Label: "b"}}},
		{"<b><a></zz><a><b></b></a></b>", []Match{{Pos: 3, Depth: 3, Label: "b"}}, nil},
	} {
		single, _ := run(nil, tc.doc)
		got, _ := run(stacked, tc.doc)
		if !reflect.DeepEqual(single[5], tc.single) || !reflect.DeepEqual(got[5], tc.stck) {
			t.Errorf("%s over %s: own Select %v, stacked %v; pinned %v and %v", pool[5], tc.doc, single[5], got[5], tc.single, tc.stck)
		}
	}
}

// TestMultiQueryStackedCap: a set whose stacked product passes
// core.DefaultProductMaxStates keeps the grouped plan. Thirteen "contains
// lN" members reach every subset of their flags, 2¹³ tuples before the
// stack-tier member's own states multiply in.
func TestMultiQueryStackedCap(t *testing.T) {
	var labels []string
	for i := 0; i < 13; i++ {
		labels = append(labels, fmt.Sprintf("l%02d", i))
	}
	labels = append(labels, "a", "b")
	var set []*Query
	for _, l := range labels[:13] {
		set = append(set, MustCompileRegex(".*'"+l+"'.*", labels))
	}
	set = append(set, MustCompileRegex(".*ab", labels))
	mq, err := NewMultiQuery(set...)
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.RandomTree(rand.New(rand.NewSource(151)), labels, 200)
	doc := encoding.XMLString(tr)
	got, stats := multiRun(t, mq, doc, Options{})
	if stats.Plan != MultiPlanGrouped || stats.Strategies[13] != Stack {
		t.Fatalf("plan %v, strategies %v: want the grouped plan past the cap", stats.Plan, stats.Strategies)
	}
	demux := make([][]Match, len(set))
	for _, m := range got {
		demux[m.Query] = append(demux[m.Query], m.Match)
	}
	for qi, q := range set {
		var own []Match
		if _, err := q.SelectXML(strings.NewReader(doc), Options{}, func(m Match) { own = append(own, m) }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(demux[qi], own) {
			t.Fatalf("%s: multi %v, own Select %v", q, demux[qi], own)
		}
	}
}
