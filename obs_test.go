package stackless

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/gen"
	"stackless/internal/obs"
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
		if allocs != 0 {
			t.Errorf("%s: SelectEarliest with nil collector allocates %.1f times per run, want 0", name, allocs)
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
// both modes — and that the parallel path times its merge phase.
func TestObsMultiQueryCollector(t *testing.T) {
	withProcs(t, 4)
	q1 := MustCompileRegex("a.*b", abc)
	q2 := MustCompileRegex(".*a.*b", abc)
	q3 := MustCompileRegex(".*ab", abc) // stack-only: sequential inside the fan-out
	mq, err := NewMultiQuery(q1, q2, q3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 10; i++ {
		doc := encoding.XMLString(gen.RandomTree(rng, abc, 1+rng.Intn(60)))
		seqC := NewCollector()
		seqStats, err := mq.SelectXML(strings.NewReader(doc), Options{Collector: seqC}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := seqC.Events.Load(), int64(3*seqStats.Events); got != want {
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
		if parC.Phases[obs.PhaseMerge].Count.Load() != 1 {
			t.Fatalf("doc %d: merge phase observed %d times, want 1", i, parC.Phases[obs.PhaseMerge].Count.Load())
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
			runs := c.ParallelRuns.Load() + c.SeqFallbacks.Load()
			if chunks := workers / machines; chunks <= 1 && runs != 0 {
				t.Fatalf("trial %d workers %d: %d machines ran whole, yet parallel=%d seqfallbacks=%d",
					trial, workers, machines, c.ParallelRuns.Load(), c.SeqFallbacks.Load())
			} else if chunks > 1 && runs != int64(machines) {
				t.Fatalf("trial %d workers %d: %d machines in %d chunks each, parallel=%d seqfallbacks=%d",
					trial, workers, machines, chunks, c.ParallelRuns.Load(), c.SeqFallbacks.Load())
			}
		}
	}
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
