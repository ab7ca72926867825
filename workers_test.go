package stackless

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"stackless/internal/encoding"
	"stackless/internal/gen"
	"stackless/internal/tree"
)

// Options.Workers must never change observable results: matches, their
// order, and the Recognize verdicts are byte-identical to the sequential
// run for every strategy (chunk-parallel where the strategy supports it,
// silent sequential fallback where it does not).

// withProcs raises GOMAXPROCS for the duration of a test: worker counts
// are clamped to GOMAXPROCS, so tests asserting a real fan-out must run
// with enough (virtual) cores regardless of the host's.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func collectMatches(t *testing.T, q *Query, doc string, opt Options) ([]Match, Stats) {
	t.Helper()
	var out []Match
	stats, err := q.SelectXML(strings.NewReader(doc), opt, func(m Match) { out = append(out, m) })
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}

func TestOptionsWorkersMatchesSequential(t *testing.T) {
	withProcs(t, 8)
	queries := map[string]*Query{
		"registerless": MustCompileRegex("a.*b", abc),
		"stackless":    MustCompileRegex(".*a.*b", abc),
		"stack":        MustCompileRegex(".*ab", abc), // pushdown: speculative or "deep" degrade
	}
	rng := rand.New(rand.NewSource(17))
	for name, q := range queries {
		for i := 0; i < 40; i++ {
			doc := encoding.XMLString(gen.RandomTree(rng, abc, 1+rng.Intn(60)))
			want, seqStats := collectMatches(t, q, doc, Options{})
			if seqStats.Workers != 1 {
				t.Fatalf("%s: sequential run reports %d workers", name, seqStats.Workers)
			}
			for _, w := range []int{2, 3, 8} {
				got, stats := collectMatches(t, q, doc, Options{Workers: w})
				if len(got) != len(want) {
					t.Fatalf("%s doc %d workers %d: %d matches, want %d", name, i, w, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s doc %d workers %d: match %d = %+v, want %+v", name, i, w, j, got[j], want[j])
					}
				}
				if stats.Matches != len(want) || stats.Events != seqStats.Events {
					t.Fatalf("%s doc %d workers %d: stats %+v vs sequential %+v", name, i, w, stats, seqStats)
				}
				if stats.Workers != w {
					t.Fatalf("%s: parallel run reports %d workers, want %d", name, stats.Workers, w)
				}
			}
		}
	}
}

func TestOptionsWorkersRecognize(t *testing.T) {
	withProcs(t, 8)
	q := MustCompileRegex(".*a.*b", abc)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 40; i++ {
		doc := encoding.XMLString(gen.RandomTree(rng, abc, 1+rng.Intn(40)))
		for _, rec := range []func(Options) (bool, Stats, error){
			func(o Options) (bool, Stats, error) { return q.RecognizeEL(strings.NewReader(doc), o) },
			func(o Options) (bool, Stats, error) { return q.RecognizeAL(strings.NewReader(doc), o) },
		} {
			want, _, err := rec(Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 8} {
				got, _, err := rec(Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("doc %d workers %d: %v, want %v", i, w, got, want)
				}
			}
		}
	}
}

func TestMultiQueryWorkersMatchesSequential(t *testing.T) {
	withProcs(t, 8)
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
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 30; i++ {
		doc := encoding.XMLString(gen.RandomTree(rng, abc, 1+rng.Intn(60)))
		for _, mq := range []*MultiQuery{stacked, grouped} {
			var want []MultiMatch
			seqStats, err := mq.SelectXML(strings.NewReader(doc), Options{}, func(m MultiMatch) { want = append(want, m) })
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 4, 8} {
				var got []MultiMatch
				stats, err := mq.SelectXML(strings.NewReader(doc), Options{Workers: w}, func(m MultiMatch) { got = append(got, m) })
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("doc %d workers %d: %d matches, want %d", i, w, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("doc %d workers %d: match %d = %+v, want %+v (emission order must be preserved)", i, w, j, got[j], want[j])
					}
				}
				// A stacked plan runs sequentially whatever Workers asks.
				wantPlan, wantWorkers := MultiPlanGrouped, w
				if mq == stacked {
					wantPlan, wantWorkers = MultiPlanStacked, 1
				}
				if stats.Events != seqStats.Events || stats.Workers != wantWorkers || stats.Plan != wantPlan || seqStats.Plan != wantPlan {
					t.Fatalf("doc %d workers %d: stats %+v vs sequential %+v", i, w, stats, seqStats)
				}
				for qi := range stats.Matches {
					if stats.Matches[qi] != seqStats.Matches[qi] {
						t.Fatalf("doc %d workers %d: per-query matches %v vs %v", i, w, stats.Matches, seqStats.Matches)
					}
				}
			}
		}
	}
}

// TestWorkersClampedToGOMAXPROCS: requesting more workers than cores runs
// with the effective count (extra chunks past the core count only cost
// join overhead — EXPERIMENTS.md), with matches unchanged and Stats
// reporting the clamped value.
func TestWorkersClampedToGOMAXPROCS(t *testing.T) {
	q := MustCompileRegex(".*a.*b", abc)
	rng := rand.New(rand.NewSource(31))
	doc := encoding.XMLString(gen.RandomTree(rng, abc, 60))
	withProcs(t, 8)
	want, _ := collectMatches(t, q, doc, Options{})

	withProcs(t, 1)
	got, stats := collectMatches(t, q, doc, Options{Workers: 8})
	if stats.Workers != 1 || stats.Fallback != "" || stats.Chunks != 1 {
		t.Fatalf("1 core, 8 requested: stats %+v, want a sequential run with Workers=1", stats)
	}
	if stats.Pipeline != PipelineCoded {
		t.Fatalf("stackless sequential run reports pipeline %q, want coded", stats.Pipeline)
	}
	if len(got) != len(want) {
		t.Fatalf("clamped run: %d matches, want %d", len(got), len(want))
	}

	withProcs(t, 2)
	got, stats = collectMatches(t, q, doc, Options{Workers: 8})
	if stats.Workers != 2 {
		t.Fatalf("2 cores, 8 requested: Stats.Workers = %d, want 2", stats.Workers)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("clamped parallel run: match %d = %+v, want %+v", j, got[j], want[j])
		}
	}

	mq, err := NewMultiQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	withProcs(t, 1)
	mstats, err := mq.SelectXML(strings.NewReader(doc), Options{Workers: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mstats.Workers != 1 {
		t.Fatalf("multi on 1 core: Workers = %d, want 1", mstats.Workers)
	}
	if mstats.Pipeline != PipelineCoded {
		t.Fatalf("multi sequential pipeline = %q, want coded", mstats.Pipeline)
	}
}

func TestWorkersMalformedInputStillRejected(t *testing.T) {
	withProcs(t, 4)
	q := MustCompileRegex("a.*b", abc)
	for _, doc := range []string{"<a><b></b>", "<a></a><b></b>"} {
		_, seqErr := q.SelectXML(strings.NewReader(doc), Options{}, nil)
		_, parErr := q.SelectXML(strings.NewReader(doc), Options{Workers: 4}, nil)
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("doc %q: sequential err %v, parallel err %v", doc, seqErr, parErr)
		}
		if seqErr == nil {
			t.Fatalf("doc %q: malformed input accepted", doc)
		}
	}
}

// TestWorkersRecognizeSequential pins recognition under Workers > 1: the EL
// and AL machines of every tier are EL/AL wrappers, which have no coded
// segment kernel, so RecognizeEL, RecognizeAL and their Term twins run as
// one chunk on the "strategy" fallback, count one SeqFallbacks on an
// attached collector, and give the Workers 1 verdict.
func TestWorkersRecognizeSequential(t *testing.T) {
	withProcs(t, 4)
	tiers := []struct {
		expr  string
		force bool
		want  Strategy
	}{
		{"a.*b", false, Registerless},
		{".*a.*b", false, Stackless},
		{".*a.*b", true, Stack},
	}
	rng := rand.New(rand.NewSource(29))
	var docs []*tree.Node
	for i := 0; i < 12; i++ {
		docs = append(docs, gen.RandomTree(rng, abc, 1+rng.Intn(300)))
	}
	for _, tier := range tiers {
		q := MustCompileRegex(tier.expr, abc)
		for _, call := range []struct {
			name string
			term bool
			rec  func(io.Reader, Options) (bool, Stats, error)
		}{
			{"RecognizeEL", false, q.RecognizeEL},
			{"RecognizeAL", false, q.RecognizeAL},
			{"RecognizeELTerm", true, q.RecognizeELTerm},
			{"RecognizeALTerm", true, q.RecognizeALTerm},
		} {
			name := fmt.Sprintf("%s %s %s", tier.want, tier.expr, call.name)
			for _, tr := range docs {
				doc := encoding.XMLString(tr)
				if call.term {
					doc = encoding.TermString(tr)
				}
				want, seq, err := call.rec(strings.NewReader(doc), Options{ForceStack: tier.force})
				if err != nil {
					t.Fatal(err)
				}
				if seq.Strategy != tier.want {
					t.Fatalf("%s: ran at the %v tier", name, seq.Strategy)
				}
				c := NewCollector()
				got, stats, err := call.rec(strings.NewReader(doc), Options{ForceStack: tier.force, Workers: 2, Collector: c})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s on %s: Workers 2 says %v, Workers 1 %v", name, tr, got, want)
				}
				if stats.Chunks != 1 || stats.Fallback != "strategy" || stats.Workers != 1 {
					t.Fatalf("%s: Workers 2 ran %d chunks on %d workers, fallback %q; want 1 chunk on 1, \"strategy\"", name, stats.Chunks, stats.Workers, stats.Fallback)
				}
				if n := c.SeqFallbacks.Load(); n != 1 {
					t.Fatalf("%s: %d SeqFallbacks, want 1", name, n)
				}
			}
		}
	}
}
