package product

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"stackless/internal/alphabet"
	"stackless/internal/classify"
	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/gen"
	"stackless/internal/obs"
	"stackless/internal/parallel"
	"stackless/internal/rex"
)

func tagQL(t testing.TB, expr string, alph *alphabet.Alphabet) *core.TagDFA {
	t.Helper()
	l, err := rex.CompileString(expr, alph)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.RegisterlessQL(classify.Analyze(l))
	if err != nil {
		t.Fatalf("RegisterlessQL(%s): %v", expr, err)
	}
	return d
}

func blindQL(t testing.TB, expr string, alph *alphabet.Alphabet) *core.TagDFA {
	t.Helper()
	l, err := rex.CompileString(expr, alph)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.BlindRegisterlessQL(classify.Analyze(l))
	if err != nil {
		t.Fatalf("BlindRegisterlessQL(%s): %v", expr, err)
	}
	return d
}

func TestCacheHitMissPermutation(t *testing.T) {
	abc := alphabet.Letters("abc")
	a := tagQL(t, "a.*b", abc)
	b := tagQL(t, ".*a", abc)
	ch := NewCache(4)
	col := &obs.Collector{}

	p1, o1, err := ch.Get([]*core.TagDFA{a, b}, 0, col)
	if err != nil {
		t.Fatal(err)
	}
	if col.ProductCacheMisses.Load() != 1 || col.ProductCacheHits.Load() != 0 {
		t.Fatalf("first Get: hits=%d misses=%d", col.ProductCacheHits.Load(), col.ProductCacheMisses.Load())
	}
	// Any permutation of the same set is the same entry, with order mapping
	// mask bits back to the caller's slice.
	p2, o2, err := ch.Get([]*core.TagDFA{b, a}, 0, col)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Error("permuted set compiled a second product")
	}
	if col.ProductCacheHits.Load() != 1 {
		t.Fatalf("permuted Get: hits=%d", col.ProductCacheHits.Load())
	}
	mm := p1.MemberMachines()
	for bit := range mm {
		if in := []*core.TagDFA{a, b}[o1[bit]]; in != mm[bit] {
			t.Errorf("order 1 bit %d maps to the wrong machine", bit)
		}
		if in := []*core.TagDFA{b, a}[o2[bit]]; in != mm[bit] {
			t.Errorf("order 2 bit %d maps to the wrong machine", bit)
		}
	}
}

func TestCacheEvictionAndNegativeCaching(t *testing.T) {
	abc := alphabet.Letters("abc")
	a, b, c := tagQL(t, "a.*b", abc), tagQL(t, ".*a", abc), tagQL(t, "a.*c", abc)
	ch := NewCache(1)
	col := &obs.Collector{}

	if _, _, err := ch.Get([]*core.TagDFA{a, b}, 0, col); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ch.Get([]*core.TagDFA{b, c}, 0, col); err != nil {
		t.Fatal(err)
	}
	if ch.Len() != 1 {
		t.Fatalf("capacity-1 cache holds %d entries", ch.Len())
	}
	if _, _, err := ch.Get([]*core.TagDFA{a, b}, 0, col); err != nil {
		t.Fatal(err)
	}
	if got := col.ProductCacheMisses.Load(); got != 3 {
		t.Errorf("evicted set re-fetched with %d misses, want 3", got)
	}

	// Failures cache too: the second request for an over-cap set is a hit.
	if _, _, err := ch.Get([]*core.TagDFA{a, c}, 1, col); !errors.Is(err, core.ErrProductTooLarge) {
		t.Fatalf("maxStates=1 gave %v", err)
	}
	hits := col.ProductCacheHits.Load()
	if _, _, err := ch.Get([]*core.TagDFA{a, c}, 1, col); !errors.Is(err, core.ErrProductTooLarge) {
		t.Fatalf("cached failure gave %v", err)
	}
	if col.ProductCacheHits.Load() != hits+1 {
		t.Error("cached failure did not count as a hit")
	}
}

func TestCacheGenerationInvalidation(t *testing.T) {
	grow := alphabet.Letters("ab")
	a := tagQL(t, "a.*b", grow)
	b := tagQL(t, ".*a", alphabet.Letters("abc"))
	ch := NewCache(4)
	col := &obs.Collector{}

	p1, _, err := ch.Get([]*core.TagDFA{a, b}, 0, col)
	if err != nil {
		t.Fatal(err)
	}
	grow.Add("zz") // the member's alphabet grows after compilation
	p2, _, err := ch.Get([]*core.TagDFA{a, b}, 0, col)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("stale product served after the member alphabet grew")
	}
	if col.ProductCacheMisses.Load() != 2 {
		t.Errorf("misses = %d, want 2 (generation folded into the key)", col.ProductCacheMisses.Load())
	}
}

// TestEvictedMachinesAreCollected: nothing the cache keeps pins the members
// of an evicted set. A set planned through a one-entry cache and then
// evicted by another set must become garbage.
func TestEvictedMachinesAreCollected(t *testing.T) {
	abc := alphabet.Letters("abc")
	ch := NewCache(1)
	var collected atomic.Int32
	plan := func(track bool) {
		a, b := tagQL(t, "a.*b", abc), tagQL(t, ".*a", abc)
		if track {
			for _, m := range []*core.TagDFA{a, b} {
				runtime.SetFinalizer(m, func(*core.TagDFA) { collected.Add(1) })
			}
		}
		if p := BuildPlan([]core.Evaluator{a.Evaluator(), b.Evaluator()}, ch, 0, nil); len(p.Groups) != 1 {
			t.Fatalf("plan %+v, want one product group", p)
		}
	}
	plan(true)
	plan(false) // evicts the first set
	for i := 0; i < 50 && collected.Load() < 2; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := collected.Load(); n != 2 {
		t.Fatalf("%d of 2 evicted machines finalized; something still references them", n)
	}
}

func TestBuildPlanGrouping(t *testing.T) {
	abc := alphabet.Letters("abc")
	mk1, mk2 := tagQL(t, "a.*b", abc), tagQL(t, ".*a", abc)
	tm1, tm2 := blindQL(t, "a.*b", abc), blindQL(t, ".*a", abc)

	t.Run("split-by-encoding", func(t *testing.T) {
		col := &obs.Collector{}
		evs := []core.Evaluator{mk1.Evaluator(), tm1.Evaluator(), mk2.Evaluator(), tm2.Evaluator()}
		plan := BuildPlan(evs, NewCache(4), 0, col)
		if len(plan.Groups) != 2 || len(plan.Loose) != 0 {
			t.Fatalf("plan: %d groups, loose %v; want 2 groups, none loose", len(plan.Groups), plan.Loose)
		}
		if col.ProductGroups.Load() != 2 {
			t.Errorf("ProductGroups = %d, want 2", col.ProductGroups.Load())
		}
		// Queries map bits back to original indices: {0,2} markup, {1,3} term.
		seen := map[int]bool{}
		for _, g := range plan.Groups {
			if g.Machine.Members() != 2 {
				t.Errorf("group has %d members, want 2", g.Machine.Members())
			}
			for _, q := range g.Queries {
				seen[q] = true
			}
		}
		for q := 0; q < 4; q++ {
			if !seen[q] {
				t.Errorf("query %d missing from the plan", q)
			}
		}
	})
	t.Run("singletons-and-foreign-loose", func(t *testing.T) {
		an := classify.Analyze(rex.MustCompile("a.*b", abc))
		st, err := core.StacklessQL(an)
		if err != nil {
			t.Fatal(err)
		}
		evs := []core.Evaluator{mk1.Evaluator(), st, tm1.Evaluator()}
		plan := BuildPlan(evs, NewCache(4), 0, nil)
		if len(plan.Groups) != 0 {
			t.Fatalf("plan built groups from singletons: %+v", plan.Groups)
		}
		if want := []int{0, 1, 2}; len(plan.Loose) != 3 || plan.Loose[0] != want[0] || plan.Loose[1] != want[1] || plan.Loose[2] != want[2] {
			t.Errorf("Loose = %v, want %v", plan.Loose, want)
		}
	})
	t.Run("cap-blowout-degrades-to-fanout", func(t *testing.T) {
		evs := []core.Evaluator{mk1.Evaluator(), mk2.Evaluator()}
		plan := BuildPlan(evs, NewCache(4), 1, nil)
		if len(plan.Groups) != 0 || len(plan.Loose) != 2 {
			t.Fatalf("over-cap plan: groups %d, loose %v", len(plan.Groups), plan.Loose)
		}
	})
	t.Run("instrumented-evaluators-still-group", func(t *testing.T) {
		c := &obs.Collector{}
		evs := []core.Evaluator{mk1.Evaluator(), mk2.Evaluator()}
		for _, ev := range evs {
			core.Instrument(ev, c)
		}
		plan := BuildPlan(evs, NewCache(4), 0, nil)
		if len(plan.Groups) != 1 {
			t.Fatalf("instrumented evaluators did not group: %+v", plan)
		}
	})
	t.Run("fanout-plan", func(t *testing.T) {
		plan := FanoutPlan(3)
		if len(plan.Groups) != 0 || len(plan.Loose) != 3 {
			t.Fatalf("FanoutPlan(3) = %+v", plan)
		}
	})
}

// chunkMatches collects SelectChunksAt's per-bit output.
type bitMatch struct {
	bit int
	m   core.Match
}

func runChunks(pool *parallel.Pool, pd *core.ProductDFA, events []encoding.Event, cuts []int, c *obs.Collector) []bitMatch {
	var out []bitMatch
	SelectChunksAt(pool, pd, events, cuts, c, func(bit int, m core.Match) {
		out = append(out, bitMatch{bit, m})
	})
	return out
}

func TestSelectChunksMatchesSequential(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	abc := alphabet.Letters("abc")
	pd, err := core.NewProductDFA([]*core.TagDFA{
		tagQL(t, "a.*b", abc), tagQL(t, ".*a", alphabet.Letters("ab")), tagQL(t, "a.*c", alphabet.Letters("ac")),
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	labels := []string{"a", "b", "c", "zz"}
	for trial := 0; trial < 40; trial++ {
		tr := gen.RandomTree(rng, labels, 1+rng.Intn(40))
		events := encoding.Markup(tr)
		want := runChunks(pool, pd, events, nil, nil) // no cuts: the sequential fallback
		n := len(events)
		cutSets := [][]int{{n / 2}, {1, 2, 3}, {n - 1}, {-3, 0, n, n + 7, n / 2, n / 2}}
		all := make([]int, 0, n)
		for i := 1; i < n; i++ {
			all = append(all, i)
		}
		cutSets = append(cutSets, all)
		for _, cuts := range cutSets {
			got := runChunks(pool, pd, events, cuts, nil)
			if len(got) != len(want) {
				t.Fatalf("trial %d cuts %v: %d matches, want %d", trial, cuts, len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("trial %d cuts %v match %d: %+v, want %+v", trial, cuts, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSelectChunksCounterParity: an instrumented chunked product run must
// mirror the fan-out accounting — Events = members × events, one Matches per
// (bit, node) — regardless of the cut set.
func TestSelectChunksCounterParity(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	abc := alphabet.Letters("abc")
	pd, err := core.NewProductDFA([]*core.TagDFA{tagQL(t, "a.*b", abc), tagQL(t, ".*a", abc)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	events := encoding.Markup(gen.RandomTree(rng, []string{"a", "b", "c"}, 30))
	for _, cuts := range [][]int{nil, {len(events) / 2}, {3, 9, 11}} {
		c := &obs.Collector{}
		got := runChunks(pool, pd, events, cuts, c)
		if want := int64(pd.Members()) * int64(len(events)); c.Events.Load() != want {
			t.Errorf("cuts %v: Events = %d, want %d", cuts, c.Events.Load(), want)
		}
		if c.Matches.Load() != int64(len(got)) {
			t.Errorf("cuts %v: Matches = %d, want %d", cuts, c.Matches.Load(), len(got))
		}
		if len(cuts) == 0 {
			if c.SeqFallbacks.Load() != 1 {
				t.Errorf("no cuts: SeqFallbacks = %d", c.SeqFallbacks.Load())
			}
		} else if c.ParallelRuns.Load() != 1 || c.Chunks.Load() != int64(len(cuts)+1) {
			t.Errorf("cuts %v: ParallelRuns=%d Chunks=%d", cuts, c.ParallelRuns.Load(), c.Chunks.Load())
		}
	}
}
