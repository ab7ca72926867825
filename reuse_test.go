package stackless

import (
	"io"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/gen"
)

// reuseQueries covers every tier: a registerless query, a stackless one,
// one that needs the stack, and one whose tiers differ per semantics and
// encoding.
var reuseQueries = []string{"a.*b", ".*a.*b", ".*ab", "(b|ab*a)*"}

// slotCalls makes one call per slot of q — each semantics under each
// encoding, with and without ForceStack — on the given documents.
func slotCalls(t *testing.T, q *Query, xml, term string) {
	t.Helper()
	for _, force := range []bool{false, true} {
		opt := Options{ForceStack: force}
		if _, err := q.SelectXML(strings.NewReader(xml), opt, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := q.SelectTerm(strings.NewReader(term), opt, nil); err != nil {
			t.Fatal(err)
		}
		for _, rec := range []func(io.Reader, Options) (bool, Stats, error){q.RecognizeEL, q.RecognizeAL} {
			if _, _, err := rec(strings.NewReader(xml), opt); err != nil {
				t.Fatal(err)
			}
		}
		for _, rec := range []func(io.Reader, Options) (bool, Stats, error){q.RecognizeELTerm, q.RecognizeALTerm} {
			if _, _, err := rec(strings.NewReader(term), opt); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSlotsBuildOnce: every machine construction reports to
// core.CompileHook, so after one call per slot, further calls on the same
// Query must construct nothing — they run instances of the cached machines.
func TestSlotsBuildOnce(t *testing.T) {
	var built atomic.Int64
	old := core.CompileHook
	core.CompileHook = func(any) { built.Add(1) }
	t.Cleanup(func() { core.CompileHook = old })
	rng := rand.New(rand.NewSource(67))
	tr := gen.RandomTree(rng, abc, 60)
	xml, term := encoding.XMLString(tr), encoding.TermString(tr)
	for _, expr := range reuseQueries {
		q := MustCompileRegex(expr, abc)
		slotCalls(t, q, xml, term)
		first := built.Load()
		if first == 0 {
			t.Fatalf("%s: the first calls reported no construction; the hook no longer counts builds", expr)
		}
		for i := 0; i < 3; i++ {
			slotCalls(t, q, xml, term)
		}
		if again := built.Load() - first; again != 0 {
			t.Errorf("%s: repeated calls constructed %d machines, want 0", expr, again)
		}
	}
}

// TestMultiQueryProductCacheHit: members run instances of their cached
// machines, so the second call on a set finds its product in the shared
// cache instead of compiling it again.
func TestMultiQueryProductCacheHit(t *testing.T) {
	mq, err := NewMultiQuery(MustCompileRegex("a.*b", abc), MustCompileRegex(".*a", abc), MustCompileRegex("ab", abc))
	if err != nil {
		t.Fatal(err)
	}
	doc := encoding.XMLString(gen.RandomTree(rand.New(rand.NewSource(71)), abc, 40))
	for call := 1; call <= 2; call++ {
		col := NewCollector()
		stats, err := mq.SelectXML(strings.NewReader(doc), Options{Collector: col}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ProductGroups != 1 {
			t.Fatalf("call %d: %d product groups, want 1", call, stats.ProductGroups)
		}
		if call == 2 {
			if h, m := col.ProductCacheHits.Load(), col.ProductCacheMisses.Load(); h != 1 || m != 0 {
				t.Errorf("second call: product cache hits=%d misses=%d, want 1 and 0", h, m)
			}
		}
	}
}

// TestRecognizeStatsEvents: a Recognize call counts the events it consumed,
// exactly as a Select call on the same document does — on the coded
// recognize driver (registerless EL/AL) and the per-event one (the EL/AL
// wrappers of the stackless and pushdown tiers), sequential or not,
// instrumented or not.
func TestRecognizeStatsEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, expr := range reuseQueries[:3] {
		q := MustCompileRegex(expr, abc)
		for i := 0; i < 5; i++ {
			tr := gen.RandomTree(rng, abc, 1+rng.Intn(200))
			xml, term := encoding.XMLString(tr), encoding.TermString(tr)
			for _, opt := range []Options{{}, {Collector: NewCollector()}, {Workers: 2}} {
				sx, err := q.SelectXML(strings.NewReader(xml), opt, nil)
				if err != nil {
					t.Fatal(err)
				}
				st, err := q.SelectTerm(strings.NewReader(term), opt, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					name string
					rec  func(io.Reader, Options) (bool, Stats, error)
					doc  string
					want int
				}{
					{"RecognizeEL", q.RecognizeEL, xml, sx.Events},
					{"RecognizeAL", q.RecognizeAL, xml, sx.Events},
					{"RecognizeELTerm", q.RecognizeELTerm, term, st.Events},
					{"RecognizeALTerm", q.RecognizeALTerm, term, st.Events},
				} {
					_, stats, err := c.rec(strings.NewReader(c.doc), opt)
					if err != nil {
						t.Fatal(err)
					}
					if stats.Events != c.want {
						t.Errorf("%s %s (%s, %+v): Stats.Events = %d, Select counted %d", expr, c.name, stats.Strategy, opt, stats.Events, c.want)
					}
				}
			}
		}
	}
}
