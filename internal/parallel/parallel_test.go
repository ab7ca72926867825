package parallel_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"stackless/internal/alphabet"
	"stackless/internal/classify"
	"stackless/internal/core"
	"stackless/internal/dfa"
	"stackless/internal/encoding"
	"stackless/internal/gen"
	"stackless/internal/paperfigs"
	"stackless/internal/parallel"
	"stackless/internal/rex"
	"stackless/internal/stackeval"
	"stackless/internal/tree"
)

// The differential harness: for every chunkable machine in internal/core,
// over a corpus of random and adversarially-shaped trees, the parallel
// engine must reproduce the sequential match set (full Match structs, not
// just positions) for every worker count and for adversarial chunk
// boundaries — mid-subtree, at depth spikes, and chunk size 1. For the
// DFA-backed machines the sequential run itself is cross-checked against
// the stack-based oracle.

var workerCounts = []int{1, 2, 3, 8}

func seqMatches(m core.Evaluator, events []encoding.Event) []core.Match {
	var out []core.Match
	if _, err := core.Select(m, encoding.NewSliceSource(events), func(mt core.Match) { out = append(out, mt) }); err != nil {
		panic(err)
	}
	return out
}

func parMatches(p *parallel.Pool, m core.Chunkable, events []encoding.Event, chunks int) []core.Match {
	var out []core.Match
	parallel.Select(p, m, events, chunks, func(mt core.Match) { out = append(out, mt) })
	return out
}

func parMatchesAt(p *parallel.Pool, m core.Chunkable, events []encoding.Event, cuts []int) []core.Match {
	var out []core.Match
	parallel.SelectAt(p, m, events, cuts, func(mt core.Match) { out = append(out, mt) })
	return out
}

// adversarialCuts returns cut sets targeting the boundary cases: every
// single interior position (mid-subtree cuts), the positions around the
// deepest event (depth spikes), and every position at once (chunk size 1).
func adversarialCuts(events []encoding.Event) [][]int {
	n := len(events)
	var cuts [][]int
	for i := 1; i < n; i++ {
		cuts = append(cuts, []int{i})
	}
	depth, maxDepth, spike := 0, -1, 0
	for i, e := range events {
		if e.Kind == encoding.Open {
			depth++
		} else {
			depth--
		}
		if depth > maxDepth {
			maxDepth, spike = depth, i
		}
	}
	cuts = append(cuts, []int{spike, spike + 1})
	if spike > 1 {
		cuts = append(cuts, []int{spike - 1, spike, spike + 1})
	}
	all := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		all = append(all, i)
	}
	cuts = append(cuts, all)
	return cuts
}

// diffSelect checks the parallel engine against the sequential run of the
// same machine on one document, across worker counts and adversarial cuts.
func diffSelect(t *testing.T, p *parallel.Pool, name string, m core.Chunkable, events []encoding.Event) {
	t.Helper()
	want := seqMatches(m, events)
	for _, w := range workerCounts {
		got := parMatches(p, m, events, w)
		if !matchesEqual(got, want) {
			t.Fatalf("%s: %d chunks: parallel %v, sequential %v", name, w, got, want)
		}
	}
	for _, cuts := range adversarialCuts(events) {
		got := parMatchesAt(p, m, events, cuts)
		if !matchesEqual(got, want) {
			t.Fatalf("%s: cuts %v: parallel %v, sequential %v", name, cuts, got, want)
		}
	}
}

func matchesEqual(a, b []core.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// corpus returns the test documents: random trees of varied sizes, deep
// chains, combs, and the paper's running examples.
func corpus(labels string) [][]encoding.Event {
	rng := rand.New(rand.NewSource(2021))
	var ls []string
	for _, r := range labels {
		ls = append(ls, string(r))
	}
	var docs [][]encoding.Event
	for _, size := range []int{1, 2, 3, 4, 5, 8, 20, 60} {
		for rep := 0; rep < 3; rep++ {
			docs = append(docs, encoding.Markup(gen.RandomTree(rng, ls, size)))
		}
	}
	docs = append(docs, encoding.Markup(gen.DeepChain(rng, ls, 12)))
	docs = append(docs, encoding.Markup(gen.Comb(ls[0], ls[len(ls)-1], 6, 3)))
	return docs
}

func TestParallelRegisterlessMatchesSequentialAndOracle(t *testing.T) {
	p := parallel.NewPool(4)
	defer p.Close()
	for _, tc := range []struct {
		expr   string
		alph   *alphabet.Alphabet
		labels string
	}{
		{paperfigs.Fig3aRegex, paperfigs.GammaABC(), "abc"},
		{paperfigs.Fig2Regex, paperfigs.GammaAB(), "ab"},
	} {
		expr := tc.expr
		an := classify.Analyze(rex.MustCompile(expr, tc.alph))
		tag, err := core.RegisterlessQL(an)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		m := tag.Evaluator().(core.Chunkable)
		oracle := stackeval.QL(an.D)
		for di, events := range corpus(tc.labels) {
			if !matchesEqual(seqMatches(m, events), seqMatches(oracle, events)) {
				t.Fatalf("%s doc %d: sequential diverges from stack oracle", expr, di)
			}
			diffSelect(t, p, fmt.Sprintf("registerless %s doc %d", expr, di), m, events)
		}
	}
}

func TestParallelStacklessMatchesSequentialAndOracle(t *testing.T) {
	p := parallel.NewPool(4)
	defer p.Close()
	for _, expr := range []string{paperfigs.Fig3cRegex, paperfigs.Fig3bRegex} {
		an := classify.Analyze(rex.MustCompile(expr, paperfigs.GammaABC()))
		ev, err := core.StacklessQL(an)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		oracle := stackeval.QL(an.D)
		for di, events := range corpus("abc") {
			if !matchesEqual(seqMatches(ev, events), seqMatches(oracle, events)) {
				t.Fatalf("%s doc %d: sequential diverges from stack oracle", expr, di)
			}
			diffSelect(t, p, fmt.Sprintf("stackless %s doc %d", expr, di), ev, events)
		}
	}
}

func TestParallelBlindStacklessTermEncoding(t *testing.T) {
	p := parallel.NewPool(4)
	defer p.Close()
	rng := rand.New(rand.NewSource(7))
	an := classify.Analyze(rex.MustCompile(paperfigs.Fig3cRegex, paperfigs.GammaABC()))
	ev, err := core.BlindStacklessQL(an)
	if err != nil {
		t.Fatal(err)
	}
	oracle := stackeval.QL(an.D)
	for i := 0; i < 20; i++ {
		events := encoding.Term(gen.RandomTree(rng, []string{"a", "b", "c"}, 2+rng.Intn(40)))
		if !matchesEqual(seqMatches(ev, events), seqMatches(oracle, events)) {
			t.Fatalf("doc %d: sequential diverges from stack oracle", i)
		}
		diffSelect(t, p, fmt.Sprintf("blind stackless doc %d", i), ev, events)
	}
}

// TestParallelRandomHARMachines is the property sweep: random minimal
// automata, every compilable strategy, differential on random documents.
func TestParallelRandomHARMachines(t *testing.T) {
	p := parallel.NewPool(4)
	defer p.Close()
	rng := rand.New(rand.NewSource(99))
	alph := alphabet.Letters("ab")
	tested := 0
	for i := 0; i < 3000 && tested < 25; i++ {
		an := classify.Analyze(dfa.Random(rng, alph, 1+rng.Intn(5)))
		ev, err := core.StacklessQL(an)
		if err != nil {
			continue
		}
		tested++
		oracle := stackeval.QL(an.D)
		for j := 0; j < 6; j++ {
			events := encoding.Markup(gen.RandomTree(rng, []string{"a", "b"}, 1+rng.Intn(50)))
			if !matchesEqual(seqMatches(ev, events), seqMatches(oracle, events)) {
				t.Fatalf("machine %d doc %d: sequential diverges from stack oracle", i, j)
			}
			diffSelect(t, p, fmt.Sprintf("random machine %d doc %d", i, j), ev, events)
		}
	}
	if tested == 0 {
		t.Fatal("no HAR machines sampled")
	}
}

// exampleDRAs returns every example/pattern table DRA with the label set
// of its alphabet. Example22 is unrestricted — it exercises the CutAll
// graceful degradation path.
func exampleDRAs(t *testing.T) map[string]*core.DRA {
	t.Helper()
	l := rex.MustCompile("(b|ab*a)*", alphabet.Letters("ab"))
	chain, err := core.ChainPatternDRA(alphabet.Letters("abc"), []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	an := classify.Analyze(rex.MustCompile(paperfigs.Fig3cRegex, paperfigs.GammaABC()))
	formal, err := core.FormalDRA(an, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*core.DRA{
		"Example22":        core.Example22(),
		"Example25":        core.Example25(l),
		"Example26":        core.Example26(),
		"Example27Minimal": core.Example27Minimal(),
		"ChainPattern":     chain,
		"FormalDRA":        formal,
	}
}

func TestParallelTableDRAsMatchSequential(t *testing.T) {
	p := parallel.NewPool(4)
	defer p.Close()
	for name, d := range exampleDRAs(t) {
		m, ok := d.Evaluator().(core.Chunkable)
		if !ok {
			t.Fatalf("%s: table DRA evaluator is not chunkable", name)
		}
		docs := corpus("ab")
		if d.Alphabet.Size() > 2 {
			docs = append(docs, corpus("abc")...)
		}
		for di, events := range docs {
			diffSelect(t, p, fmt.Sprintf("%s doc %d", name, di), m, events)
		}
	}
}

func TestUnrestrictedDRADegradesToCutAll(t *testing.T) {
	m := core.Example22().Evaluator().(core.Chunkable)
	if got := m.Cut(); got != core.CutAll {
		t.Fatalf("Example22 cut policy: got %v, want CutAll", got)
	}
	r := core.Example26().Evaluator().(core.Chunkable)
	if got := r.Cut(); got != core.CutBelowEntry {
		t.Fatalf("Example26 cut policy: got %v, want CutBelowEntry", got)
	}
}

// TestParallelRecognizeELAL checks the EL/AL wrapper chunkability: the
// parallel Recognize verdicts agree with the sequential wrapper and the
// stack-based recognizers for every worker count and adversarial cuts.
func TestParallelRecognizeELAL(t *testing.T) {
	p := parallel.NewPool(4)
	defer p.Close()
	for _, tc := range []struct {
		expr   string
		alph   *alphabet.Alphabet
		labels string
	}{
		{paperfigs.Fig3cRegex, paperfigs.GammaABC(), "abc"},
		{paperfigs.Fig3aRegex, paperfigs.GammaABC(), "abc"},
		{paperfigs.Fig2Regex, paperfigs.GammaAB(), "ab"},
	} {
		expr := tc.expr
		an := classify.Analyze(rex.MustCompile(expr, tc.alph))
		var inner core.Chunkable
		if ev, err := core.StacklessQL(an); err == nil {
			inner = ev
		} else if tag, rerr := core.RegisterlessQL(an); rerr == nil {
			inner = tag.Evaluator().(core.Chunkable)
		} else {
			t.Fatalf("%s: neither stackless (%v) nor registerless (%v)", expr, err, rerr)
		}
		diffRecognize(t, p, expr+" EL", core.ELFromQL(inner), stackeval.EL(an.D), tc.labels)
		diffRecognize(t, p, expr+" AL", core.ALFromQL(inner), stackeval.AL(an.D), tc.labels)
	}
}

func diffRecognize(t *testing.T, p *parallel.Pool, name string, m core.Chunkable, oracle core.Evaluator, labels string) {
	t.Helper()
	for di, events := range corpus(labels) {
		want, err := core.Recognize(oracle, encoding.NewSliceSource(events))
		if err != nil {
			t.Fatal(err)
		}
		seq, err := core.Recognize(m, encoding.NewSliceSource(events))
		if err != nil {
			t.Fatal(err)
		}
		if seq != want {
			t.Fatalf("%s doc %d: sequential wrapper %v, oracle %v", name, di, seq, want)
		}
		if coded, err := core.RecognizeCoded(m, encoding.NewSliceSource(events)); err != nil || coded != want {
			t.Fatalf("%s doc %d: coded wrapper (%v, %v), oracle %v", name, di, coded, err, want)
		}
		for _, w := range workerCounts {
			if got := parallel.Recognize(p, m, events, w); got != want {
				t.Fatalf("%s doc %d: %d chunks: parallel %v, want %v", name, di, w, got, want)
			}
		}
		for _, cuts := range adversarialCuts(events) {
			if got := parallel.RecognizeAt(p, m, events, cuts); got != want {
				t.Fatalf("%s doc %d: cuts %v: parallel %v, want %v", name, di, cuts, got, want)
			}
		}
	}
}

// TestParallelALDeadInnerOnFinalClose pins the AL wrapper edge case that
// forced the explicit dead-inner control states: a blind stackless inner
// that poisons on the very last closing tag (back-table miss) with the
// previous open accepted leaves AL accepting — collapsing the dead inner
// to the poisoned summary would flip the verdict.
func TestParallelALDeadInnerOnFinalClose(t *testing.T) {
	p := parallel.NewPool(4)
	defer p.Close()
	rng := rand.New(rand.NewSource(123))
	alph := alphabet.Letters("ab")
	checked := 0
	for i := 0; i < 4000 && checked < 400; i++ {
		an := classify.Analyze(dfa.Random(rng, alph, 1+rng.Intn(4)))
		ev, err := core.BlindStacklessQL(an)
		if err != nil {
			continue
		}
		m := core.ALFromQL(ev)
		oracle := stackeval.AL(an.D)
		events := encoding.Term(gen.RandomTree(rng, []string{"a", "b"}, 1+rng.Intn(20)))
		want, err := core.Recognize(oracle, encoding.NewSliceSource(events))
		if err != nil {
			t.Fatal(err)
		}
		seq, err := core.Recognize(m, encoding.NewSliceSource(events))
		if err != nil {
			t.Fatal(err)
		}
		if seq != want {
			t.Fatalf("machine %d: sequential AL wrapper %v, oracle %v", i, seq, want)
		}
		if coded, err := core.RecognizeCoded(m, encoding.NewSliceSource(events)); err != nil || coded != want {
			t.Fatalf("machine %d: coded AL wrapper (%v, %v), oracle %v", i, coded, err, want)
		}
		checked++
		for _, w := range workerCounts {
			if got := parallel.Recognize(p, m, events, w); got != want {
				t.Fatalf("machine %d: %d chunks: parallel AL %v, want %v", i, w, got, want)
			}
		}
		for _, cuts := range adversarialCuts(events) {
			if got := parallel.RecognizeAt(p, m, events, cuts); got != want {
				t.Fatalf("machine %d: cuts %v: parallel AL %v, want %v", i, cuts, got, want)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no blind-HAR machines sampled")
	}
}

func TestSplitPoints(t *testing.T) {
	for _, tc := range []struct {
		n, chunks int
		want      []int
	}{
		{10, 2, []int{5}},
		{10, 1, nil},
		{3, 8, []int{1, 2}},
		{0, 4, nil},
		{1, 4, nil},
	} {
		got := parallel.SplitPoints(tc.n, tc.chunks)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitPoints(%d, %d) = %v, want %v", tc.n, tc.chunks, got, tc.want)
		}
	}
}

func TestPoolBasics(t *testing.T) {
	p := parallel.NewPool(0) // clamps to 1
	done := make(chan int, 10)
	for i := 0; i < 10; i++ {
		i := i
		p.Submit(func() { done <- i })
	}
	p.Close()
	p.Close() // idempotent
	if len(done) != 10 {
		t.Fatalf("ran %d tasks, want 10", len(done))
	}
	if parallel.Shared() != parallel.Shared() {
		t.Fatal("Shared pool is not a singleton")
	}
}

// TestParallelDeterministicAcrossSchedules reruns one evaluation many
// times on a busy pool: the output must be bit-identical every time.
func TestParallelDeterministicAcrossSchedules(t *testing.T) {
	p := parallel.NewPool(8)
	defer p.Close()
	an := classify.Analyze(rex.MustCompile(paperfigs.Fig3cRegex, paperfigs.GammaABC()))
	ev, err := core.StacklessQL(an)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	events := encoding.Markup(gen.RandomTree(rng, []string{"a", "b", "c"}, 500))
	want := parMatches(p, ev, events, 8)
	for i := 0; i < 20; i++ {
		if got := parMatches(p, ev, events, 8); !matchesEqual(got, want) {
			t.Fatalf("run %d: nondeterministic output", i)
		}
	}
	if !matchesEqual(want, seqMatches(ev, events)) {
		t.Fatal("parallel diverges from sequential")
	}
}

// TestLongStreamWindows runs a stream several coded windows long, whose
// first windows hold no match, whole and chunked at cuts around the window
// edges: the whole run codes and steps one window at a time and advances a
// hitless window by its Open count alone, a chunked run codes each chunk's
// range. Selection and the EL/AL verdicts must equal the sequential run.
func TestLongStreamWindows(t *testing.T) {
	p := parallel.NewPool(4)
	defer p.Close()
	rng := rand.New(rand.NewSource(1931))
	root := tree.New("a")
	root.Children = append(root.Children,
		gen.RandomTree(rng, []string{"a", "c"}, 6000),
		gen.RandomTree(rng, []string{"a", "b", "c"}, 3000))
	events := encoding.Markup(root)
	n, w := len(events), encoding.DefaultBatch
	machines := obsMachines(t)
	machines["pushdown"] = stackeval.QL(rex.MustCompile(".*ab", paperfigs.GammaABC()))
	for name, m := range machines {
		want := seqMatches(m, events)
		if len(want) == 0 || want[0].Pos <= w {
			t.Fatalf("%s: first match %v, want one after the first windows", name, want[:min(1, len(want))])
		}
		for _, cuts := range [][]int{nil, {n / 3, 2 * n / 3}, {w - 1, w + 1, 2*w + 5}} {
			if got := parMatchesAt(p, m, events, cuts); !matchesEqual(got, want) {
				t.Fatalf("%s cuts %v: %d matches, want %d", name, cuts, len(got), len(want))
			}
			for _, wrap := range []func(core.Chunkable) core.Chunkable{core.ELFromQL, core.ALFromQL} {
				ref, err := core.Recognize(wrap(m.Fork()), encoding.NewSliceSource(events))
				if err != nil {
					t.Fatal(err)
				}
				if got := parallel.RecognizeAt(p, wrap(m.Fork()), events, cuts); got != ref {
					t.Fatalf("%s cuts %v: recognized %v, sequential %v", name, cuts, got, ref)
				}
			}
		}
	}
}
