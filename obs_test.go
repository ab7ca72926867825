package stackless

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/gen"
	"stackless/internal/obs"
	"stackless/internal/tree"
)

// The overhead contract of the observability layer (DESIGN.md §9): with no
// collector attached the engine must not allocate — every hook is a nil
// check — and with one attached, the counters must agree between the
// sequential and chunk-parallel engines so the numbers mean the same thing
// regardless of how a run was scheduled.

// TestObsDisabledZeroAllocs pins the disabled path to zero allocations per
// evaluation, for every strategy, on both engine entry points. A regression
// here means an obs hook moved off the nil-check pattern.
func TestObsDisabledZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	events := encoding.Markup(gen.RandomTree(rng, abc, 200))
	src := encoding.NewSliceSource(events)
	queries := map[string]*Query{
		"registerless": MustCompileRegex("a.*b", abc),
		"stackless":    MustCompileRegex(".*a.*b", abc),
		"stack":        MustCompileRegex(".*ab", abc),
	}
	for name, q := range queries {
		ev, _, err := q.machine(semQL, MarkupEncoding, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		core.Instrument(ev, nil)
		src.Rewind()
		if _, err := core.SelectObs(ev, nil, src, nil); err != nil { // warm-up: grow internal slices
			t.Fatalf("%s: %v", name, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			src.Rewind()
			if _, err := core.SelectObs(ev, nil, src, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Select with nil collector allocates %.1f times per run, want 0", name, allocs)
		}

		// The coded drivers, earliest windows included: a pooled Batcher
		// over a pooled intern table. Under the race detector sync.Pool
		// drops items at random, so only the unpooled entry points are held
		// to zero there.
		src.Rewind()
		if _, err := core.SelectEarliestObs(ev, nil, src, nil); err != nil { // warm-up: lazy earliest-flag build
			t.Fatalf("%s earliest: %v", name, err)
		}
		allocs = testing.AllocsPerRun(50, func() {
			src.Rewind()
			if _, err := core.SelectEarliestObs(ev, nil, src, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 && !raceEnabled {
			t.Errorf("%s: SelectEarliest with nil collector allocates %.1f times per run, want 0", name, allocs)
		}

		src.Rewind()
		if _, err := core.SelectCodedObs(ev, nil, src, nil); err != nil {
			t.Fatalf("%s coded: %v", name, err)
		}
		allocs = testing.AllocsPerRun(50, func() {
			src.Rewind()
			if _, err := core.SelectCodedObs(ev, nil, src, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 && !raceEnabled {
			t.Errorf("%s: SelectCoded with nil collector allocates %.1f times per run, want 0", name, allocs)
		}

		rec, _, err := q.machine(semEL, MarkupEncoding, Options{})
		if err != nil {
			t.Fatalf("%s EL: %v", name, err)
		}
		core.Instrument(rec, nil)
		src.Rewind()
		if _, _, err := core.RecognizeObs(rec, nil, src); err != nil {
			t.Fatalf("%s EL: %v", name, err)
		}
		allocs = testing.AllocsPerRun(50, func() {
			src.Rewind()
			if _, _, err := core.RecognizeObs(rec, nil, src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Recognize with nil collector allocates %.1f times per run, want 0", name, allocs)
		}

		src.Rewind()
		if _, _, err := core.RecognizeCodedObs(rec, nil, src); err != nil {
			t.Fatalf("%s EL coded: %v", name, err)
		}
		allocs = testing.AllocsPerRun(50, func() {
			src.Rewind()
			if _, _, err := core.RecognizeCodedObs(rec, nil, src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 && !raceEnabled {
			t.Errorf("%s: RecognizeCoded with nil collector allocates %.1f times per run, want 0", name, allocs)
		}
	}
}

// TestObsCollectorPublicParity runs the same documents sequentially and
// chunk-parallel through the public API and checks the collector totals are
// identical — events, matches, and the chunking composition invariant.
func TestObsCollectorPublicParity(t *testing.T) {
	withProcs(t, 4)
	rng := rand.New(rand.NewSource(43))
	for name, q := range map[string]*Query{
		"registerless": MustCompileRegex("a.*b", abc),
		"stackless":    MustCompileRegex(".*a.*b", abc),
	} {
		for i := 0; i < 25; i++ {
			doc := encoding.XMLString(gen.RandomTree(rng, abc, 1+rng.Intn(80)))
			seqC := NewCollector()
			seqStats, err := q.SelectXML(strings.NewReader(doc), Options{Collector: seqC}, nil)
			if err != nil {
				t.Fatal(err)
			}
			parC := NewCollector()
			parStats, err := q.SelectXML(strings.NewReader(doc), Options{Workers: 4, Collector: parC}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := seqC.Events.Load(), int64(seqStats.Events); got != want {
				t.Fatalf("%s doc %d: sequential collector Events = %d, Stats.Events = %d", name, i, got, want)
			}
			if got, want := seqC.Matches.Load(), int64(seqStats.Matches); got != want {
				t.Fatalf("%s doc %d: sequential collector Matches = %d, Stats.Matches = %d", name, i, got, want)
			}
			if seqC.Events.Load() != parC.Events.Load() || seqC.Matches.Load() != parC.Matches.Load() {
				t.Fatalf("%s doc %d: collector parity broken: seq events=%d matches=%d, parallel events=%d matches=%d",
					name, i, seqC.Events.Load(), seqC.Matches.Load(), parC.Events.Load(), parC.Matches.Load())
			}
			if parStats.Fallback == "" && parStats.Workers > 1 {
				if got := parC.SegmentEvents.Load() + parC.BoundaryEvents.Load(); got != parC.Events.Load() {
					t.Fatalf("%s doc %d: SegmentEvents+BoundaryEvents = %d, Events = %d", name, i, got, parC.Events.Load())
				}
				if parC.Chunks.Load() != int64(parStats.Chunks) {
					t.Fatalf("%s doc %d: collector Chunks = %d, Stats.Chunks = %d", name, i, parC.Chunks.Load(), parStats.Chunks)
				}
			}
			if parStats.Fallback == "short" && parStats.Chunks != 1 {
				t.Fatalf("%s doc %d: short fallback reports %d chunks", name, i, parStats.Chunks)
			}
		}
	}
}

// TestObsLatencyHistogramParity pins the latency histogram's counting
// convention on every instrumented emission path: exactly one observation
// per reported match — sequential coded, chunk-parallel, and earliest runs
// alike — with an earliest run additionally recording zero latency for
// every match (emission at the deciding event is the §14 contract).
func TestObsLatencyHistogramParity(t *testing.T) {
	withProcs(t, 4)
	rng := rand.New(rand.NewSource(53))
	for name, q := range map[string]*Query{
		"registerless": MustCompileRegex("a.*b", abc),
		"stackless":    MustCompileRegex(".*a.*b", abc),
		"stack":        MustCompileRegex(".*ab", abc),
	} {
		for i := 0; i < 15; i++ {
			doc := encoding.XMLString(gen.RandomTree(rng, abc, 1+rng.Intn(80)))
			for variant, opt := range map[string]Options{
				"sequential": {},
				"parallel":   {Workers: 4},
				"earliest":   {Earliest: true},
			} {
				c := NewCollector()
				opt.Collector = c
				stats, err := q.SelectXML(strings.NewReader(doc), opt, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := c.Latency.Count(), int64(stats.Matches); got != want {
					t.Fatalf("%s doc %d %s: latency count %d, matches %d", name, i, variant, got, want)
				}
				if variant == "earliest" && c.Latency.Sum() != 0 {
					t.Fatalf("%s doc %d: earliest run recorded latency sum %d, want 0", name, i, c.Latency.Sum())
				}
			}
		}
	}
}

// TestObsStatsCutPolicy checks the Stats surface of a parallel request: the
// policy name, the fallback reason for non-chunkable strategies, and the
// stack-depth histogram of the pushdown baseline.
func TestObsStatsCutPolicy(t *testing.T) {
	withProcs(t, 4)
	doc := "<a><a><b></b></a><b></b></a>"

	q := MustCompileRegex(".*a.*b", abc) // HAR: stackless machine, cuts at new minima
	c := NewCollector()
	stats, err := q.SelectXML(strings.NewReader(doc), Options{Workers: 2, Collector: c}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Strategy != Stackless || stats.CutPolicy != "newmin" {
		t.Fatalf("stats = %+v, want stackless/newmin", stats)
	}
	if got := c.RunsByPolicy[core.CutNewMin].Load(); got != 1 {
		t.Fatalf("RunsByPolicy[newmin] = %d, want 1", got)
	}

	qs := MustCompileRegex(".*ab", abc) // not HAR: pushdown fallback
	c = NewCollector()
	stats, err = qs.SelectXML(strings.NewReader(doc), Options{Workers: 4, Collector: c}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The pushdown is chunkable now (speculatively) but this stream is far
	// too deep for its chunk size: the run degrades sequentially and says
	// so ("deep", one chunk).
	if stats.Strategy != Stack || stats.CutPolicy != "boundeddepth" || stats.Fallback != "deep" || stats.Chunks != 1 {
		t.Fatalf("stack stats = %+v, want boundeddepth/deep on 1 chunk", stats)
	}
	if got := c.RunsByPolicy[core.CutBoundedDepth].Load(); got != 1 {
		t.Fatalf("RunsByPolicy[boundeddepth] = %d, want 1", got)
	}
	if c.StackFallbacks.Load() != 1 || c.SeqFallbacks.Load() != 1 {
		t.Fatalf("fallback counters: stack=%d seq=%d, want 1/1", c.StackFallbacks.Load(), c.SeqFallbacks.Load())
	}
	if c.StackPoolReuse.Load() == 0 {
		t.Fatal("pushdown run recorded no stack-pool activity")
	}
}

// TestObsMultiQueryCollector checks the MultiQuery accounting convention —
// every machine steps on every event, so Events counts events × queries in
// both modes — and that the parallel path of a grouped plan times its
// merge phase, while a stacked plan, which merges nothing, times none.
func TestObsMultiQueryCollector(t *testing.T) {
	withProcs(t, 4)
	q1 := MustCompileRegex("a.*b", abc)
	q2 := MustCompileRegex(".*a.*b", abc)
	q3 := MustCompileRegex(".*ab", abc) // stack-only: the set runs stacked
	stacked, err := NewMultiQuery(q1, q2, q3)
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := NewMultiQuery(q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 10; i++ {
		doc := encoding.XMLString(gen.RandomTree(rng, abc, 1+rng.Intn(60)))
		for _, mq := range []*MultiQuery{stacked, grouped} {
			seqC := NewCollector()
			seqStats, err := mq.SelectXML(strings.NewReader(doc), Options{Collector: seqC}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := seqC.Events.Load(), int64(len(mq.queries)*seqStats.Events); got != want {
				t.Fatalf("doc %d: sequential multi Events = %d, want %d (events × queries)", i, got, want)
			}
			parC := NewCollector()
			_, err = mq.SelectXML(strings.NewReader(doc), Options{Workers: 4, Collector: parC}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if seqC.Events.Load() != parC.Events.Load() || seqC.Matches.Load() != parC.Matches.Load() {
				t.Fatalf("doc %d: multi parity broken: seq events=%d matches=%d, parallel events=%d matches=%d",
					i, seqC.Events.Load(), seqC.Matches.Load(), parC.Events.Load(), parC.Matches.Load())
			}
			merges := int64(1)
			if mq == stacked {
				merges = 0
			}
			if got := parC.Phases[obs.PhaseMerge].Count.Load(); got != merges {
				t.Fatalf("doc %d: merge phase observed %d times, want %d", i, got, merges)
			}
		}
	}
}

// TestObsMultiQueryScheduleParity drives random query sets through the
// Workers > 1 schedule on both of its sides — each machine (product group
// or loose member) gets max(1, workers ÷ machines) chunks, so small sets
// chunk every machine and sets with at least as many machines as workers
// run each one whole on one worker — and holds each run to the sequential
// one: the same matches in the same emission order, the same MultiStats,
// and the same collector Events and Matches. A planned whole-machine run
// is not a sequential fallback: those runs leave SeqFallbacks and
// ParallelRuns at 0, while every chunked machine counts one of the two.
// Wide sets then run over every kind of source, sequentially and at
// Workers 2, against the tree oracle (wideSetTrial).
func TestObsMultiQueryScheduleParity(t *testing.T) {
	withProcs(t, 4)
	pool := []*Query{
		MustCompileRegex("a.*b", abc),   // registerless: the product group
		MustCompileRegex(".*a", abc),    // registerless
		MustCompileRegex("b.*c", abc),   // registerless
		MustCompileRegex(".*a.*b", abc), // stackless
		MustCompileRegex(".*b.*c", abc), // stackless
		MustCompileRegex(".*ab", abc),   // stack
		MustCompileRegex(".*cb", abc),   // stack
	}
	// "zz" is outside every alphabet; "c" is kept out of the first part of
	// some documents, so its label first appears late in the stream.
	labels := []string{"a", "b", "c", "zz"}
	rng := rand.New(rand.NewSource(1901))
	for trial := 0; trial < 60; trial++ {
		perm := rng.Perm(len(pool))
		set := make([]*Query, 1+rng.Intn(len(pool)))
		for i := range set {
			set[i] = pool[perm[i]]
		}
		mq, err := NewMultiQuery(set...)
		if err != nil {
			t.Fatal(err)
		}
		tr := gen.RandomTree(rng, labels[:2+rng.Intn(2)], 1+rng.Intn(80))
		tr.Children = append(tr.Children, gen.RandomTree(rng, labels, 1+rng.Intn(40)))
		doc := encoding.XMLString(tr)

		seqC := NewCollector()
		want, seqStats := multiRun(t, mq, doc, Options{Collector: seqC})
		for _, workers := range []int{2, 4} {
			c := NewCollector()
			got, stats := multiRun(t, mq, doc, Options{Workers: workers, Collector: c})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d workers %d: %v, sequential %v", trial, workers, got, want)
			}
			if !reflect.DeepEqual(stats.Matches, seqStats.Matches) || stats.Events != seqStats.Events ||
				!reflect.DeepEqual(stats.Strategies, seqStats.Strategies) || stats.ProductGroups != seqStats.ProductGroups {
				t.Fatalf("trial %d workers %d: stats %+v, sequential %+v", trial, workers, stats, seqStats)
			}
			if c.Events.Load() != seqC.Events.Load() || c.Matches.Load() != seqC.Matches.Load() || c.Matches.Load() != int64(len(want)) {
				t.Fatalf("trial %d workers %d: collector events=%d matches=%d, sequential events=%d matches=%d, %d delivered",
					trial, workers, c.Events.Load(), c.Matches.Load(), seqC.Events.Load(), seqC.Matches.Load(), len(want))
			}
			runs := c.ParallelRuns.Load() + c.SeqFallbacks.Load()
			if stats.Plan == MultiPlanStacked {
				// One machine for the whole set, run sequentially.
				if runs != 0 || stats.Workers != 1 {
					t.Fatalf("trial %d workers %d: stacked plan on %d workers, parallel=%d seqfallbacks=%d",
						trial, workers, stats.Workers, c.ParallelRuns.Load(), c.SeqFallbacks.Load())
				}
				continue
			}
			machines := len(set)
			if stats.ProductGroups > 0 {
				grouped := 0
				for _, st := range stats.Strategies {
					if st == Registerless {
						grouped++
					}
				}
				machines += stats.ProductGroups - grouped
			}
			if chunks := workers / machines; chunks <= 1 && runs != 0 {
				t.Fatalf("trial %d workers %d: %d machines ran whole, yet parallel=%d seqfallbacks=%d",
					trial, workers, machines, c.ParallelRuns.Load(), c.SeqFallbacks.Load())
			} else if chunks > 1 && runs != int64(machines) {
				t.Fatalf("trial %d workers %d: %d machines in %d chunks each, parallel=%d seqfallbacks=%d",
					trial, workers, machines, chunks, c.ParallelRuns.Load(), c.SeqFallbacks.Load())
			}
		}
	}
	// Wide sets: 24 labels besides the JSON root "$", more than a small
	// per-member cache holds.
	wide := []string{"$"}
	for i := 0; i < 24; i++ {
		wide = append(wide, fmt.Sprintf("l%02d", i))
	}
	widePool := []*Query{
		MustCompileRegex(".*'l01'", wide),        // registerless
		MustCompileRegex("'$''l00'.*", wide),     // registerless
		MustCompileRegex(".*'l19'", wide),        // registerless, a late label
		MustCompileRegex(".*'l02'.*'l17'", wide), // stackless
		MustCompileRegex(".*'l05'.*'l03'", wide), // stackless
		MustCompileRegex(".*'l20''l21'", wide),   // stack
	}
	for trial := 0; trial < 6; trial++ {
		perm := rng.Perm(len(widePool))
		set := make([]*Query, 2+rng.Intn(len(widePool)-1))
		for i := range set {
			set[i] = widePool[perm[i]]
		}
		wideSetTrial(t, trial, set, rng, wide)
	}
}

// wideSetTrial runs set over one document in XML, term and JSON text and
// as a SliceSource, sequentially and at Workers 2, and checks every run's
// matches against the tree oracle. The document's first part, longer
// than the first batch, uses only l00…l09; the labels l10…l23 are first
// seen after it, and its last nodes carry labels outside every alphabet
// (zz0…zz2) below a path '$”l00'.* selects, so a label coded to a symbol
// it is not would show. A label outside the alphabet poisons the compiled
// machines for the rest of the stream, so none may follow them for the
// oracle, which only discards their subtrees, to agree.
func wideSetTrial(t *testing.T, trial int, set []*Query, rng *rand.Rand, wide []string) {
	t.Helper()
	mq, err := NewMultiQuery(set...)
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.RandomTree(rng, wide[1:11], 2500)
	tr.Label = encoding.RootLabel
	tr.Children = append(tr.Children, gen.RandomTree(rng, wide[1:], 300),
		tree.MustParse("l00(l20(l21),l19,zz0,zz1(zz2(l01)))"))
	type node struct {
		label string
		depth int
	}
	var nodes []node
	tr.Walk(func(n *tree.Node, depth int) bool {
		nodes = append(nodes, node{n.Label, depth})
		return true
	})
	var want []MultiMatch
	for qi, q := range set {
		for _, pos := range tree.SelectQL(q.automaton(), tr) {
			want = append(want, MultiMatch{Query: qi, Match: Match{Pos: pos, Depth: nodes[pos].depth, Label: nodes[pos].label}})
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].Pos < want[j].Pos })
	var js strings.Builder
	var writeJSON func(n *tree.Node)
	writeJSON = func(n *tree.Node) {
		js.WriteByte('{')
		for i, c := range n.Children {
			if i > 0 {
				js.WriteByte(',')
			}
			fmt.Fprintf(&js, "%q:", c.Label)
			if len(c.Children) == 0 {
				js.WriteByte('0')
			} else {
				writeJSON(c)
			}
		}
		js.WriteByte('}')
	}
	writeJSON(tr)
	xml, term := encoding.XMLString(tr), encoding.TermString(tr)
	for _, workers := range []int{1, 2} {
		opt := Options{Workers: workers}
		for _, run := range []struct {
			name string
			sel  func(fn func(MultiMatch)) (MultiStats, error)
		}{
			{"xml", func(fn func(MultiMatch)) (MultiStats, error) { return mq.SelectXML(strings.NewReader(xml), opt, fn) }},
			{"term", func(fn func(MultiMatch)) (MultiStats, error) { return mq.SelectTerm(strings.NewReader(term), opt, fn) }},
			{"json", func(fn func(MultiMatch)) (MultiStats, error) {
				return mq.SelectJSON(strings.NewReader(js.String()), opt, fn)
			}},
			{"slice", func(fn func(MultiMatch)) (MultiStats, error) {
				return mq.selectSource(encoding.NewSliceSource(encoding.Markup(tr)), MarkupEncoding, opt, fn)
			}},
		} {
			var got []MultiMatch
			stats, err := run.sel(func(m MultiMatch) { got = append(got, m) })
			if err != nil {
				t.Fatalf("wide trial %d %s workers %d: %v", trial, run.name, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("wide trial %d %s workers %d (%v): %d matches, oracle %d; first difference at %d",
					trial, run.name, workers, set, len(got), len(want), firstDiff(got, want))
			}
			if stats.Events != 2*len(nodes) {
				t.Fatalf("wide trial %d %s workers %d: %d events, want %d", trial, run.name, workers, stats.Events, 2*len(nodes))
			}
		}
	}
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []MultiMatch) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestObsMultiQueryPlannedRunsNotFallbacks pins the machine-level schedule
// on a 16-member set at Workers 2: every machine runs whole on one worker,
// which the collector does not count as a degraded chunk-parallel request.
func TestObsMultiQueryPlannedRunsNotFallbacks(t *testing.T) {
	withProcs(t, 2)
	labels := []string{"a", "b", "c", "d"}
	var set []*Query
	for _, x := range labels {
		set = append(set, MustCompileRegex(".*"+x, labels), MustCompileRegex(x+".*", labels))
		for _, y := range labels[:2] {
			set = append(set, MustCompileRegex(".*"+x+".*"+y, labels))
		}
	}
	if len(set) != 16 {
		t.Fatalf("%d members, want 16", len(set))
	}
	mq, err := NewMultiQuery(set...)
	if err != nil {
		t.Fatal(err)
	}
	doc := encoding.XMLString(gen.RandomTree(rand.New(rand.NewSource(1907)), labels, 400))
	want, _ := multiRun(t, mq, doc, Options{})
	c := NewCollector()
	got, stats := multiRun(t, mq, doc, Options{Workers: 2, Collector: c})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Workers 2 changed the match stream")
	}
	if stats.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", stats.Workers)
	}
	if c.SeqFallbacks.Load() != 0 || c.ParallelRuns.Load() != 0 {
		t.Fatalf("seqfallbacks=%d parallel=%d, want 0/0: planned whole-machine runs",
			c.SeqFallbacks.Load(), c.ParallelRuns.Load())
	}
}

// TestObsMultiQueryMachineCounters: the counters the machines batch in
// plain fields (register loads and compares, stack pool reuse) reach the
// collector of a MultiQuery run as they reach a Query run's — a
// one-member MultiQuery reports what Query reports, sequential and
// earliest, at the stackless and stack tiers.
func TestObsMultiQueryMachineCounters(t *testing.T) {
	const doc = "<a><b><a><b/></a></b><c><a><b/></a></c></a>"
	for _, tc := range []struct {
		regex string
		tier  Strategy
	}{{".*a.*b", Stackless}, {".*ab", Stack}} {
		q := MustCompileRegex(tc.regex, abc)
		mq, err := NewMultiQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, earliest := range []bool{false, true} {
			qc, mc := NewCollector(), NewCollector()
			st, err := q.SelectXML(strings.NewReader(doc), Options{Collector: qc, Earliest: earliest}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.Strategy != tc.tier {
				t.Fatalf("%s: strategy %v, want %v", tc.regex, st.Strategy, tc.tier)
			}
			if _, err := mq.SelectXML(strings.NewReader(doc), Options{Collector: mc, Earliest: earliest}, nil); err != nil {
				t.Fatal(err)
			}
			for _, counter := range []struct {
				name   string
				q, mq  int64
				active bool
			}{
				{"register_loads", qc.RegisterLoads.Load(), mc.RegisterLoads.Load(), tc.tier == Stackless},
				{"register_compares", qc.RegisterCompares.Load(), mc.RegisterCompares.Load(), tc.tier == Stackless},
				{"stack_pool_reuse", qc.StackPoolReuse.Load(), mc.StackPoolReuse.Load(), tc.tier == Stack},
			} {
				if counter.active && counter.q == 0 {
					t.Fatalf("%s earliest=%v: Query reports no %s", tc.regex, earliest, counter.name)
				}
				if counter.mq != counter.q {
					t.Errorf("%s earliest=%v: MultiQuery %s = %d, Query %d", tc.regex, earliest, counter.name, counter.mq, counter.q)
				}
			}
		}
	}
}

// TestObsCollectorSnapshotPublic exercises the public aliases: a collector
// accumulated through Options surfaces its numbers via Snapshot and the
// expvar-compatible String.
func TestObsCollectorSnapshotPublic(t *testing.T) {
	q := MustCompileRegex(".*a.*b", abc)
	c := NewCollector()
	stats, err := q.SelectXML(strings.NewReader("<a><a><b></b></a></a>"), Options{Collector: c}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var snap ObsSnapshot = c.Snapshot()
	if snap.Counters["events"] != int64(stats.Events) {
		t.Fatalf("snapshot events = %d, want %d", snap.Counters["events"], stats.Events)
	}
	if s := c.String(); !strings.Contains(s, `"events":`) {
		t.Fatalf("String() = %q, want expvar-style JSON", s)
	}
}
