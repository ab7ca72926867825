package stackless

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"stackless/internal/encoding"
	"stackless/internal/gen"
)

// concurrentLabels is the alphabet of the concurrency test: the tree labels
// plus the JSON bridge's root and array-item labels.
var concurrentLabels = []string{"$", "a", "b", "c", "item"}

// concurrentQueries compiles the shared Query and MultiQuery. The Query's
// slots span every family a call can instance: a stackless machine for
// markup selection and EL, a synopsis table in the AL wrapper for markup
// AL, the pushdown
// for every term-encoding semantics (so ForbidStack fails there) and for
// ForceStack; the set adds a registerless pair that compiles to a product,
// and runs as a stacked product wherever the Query needs the pushdown.
func concurrentQueries(t *testing.T) (*Query, *MultiQuery) {
	t.Helper()
	q := MustCompileRegex(`'$'?(b|ab*a)*`, concurrentLabels)
	mq, err := NewMultiQuery(q, MustCompileRegex("a.*b", concurrentLabels), MustCompileRegex(".*a", concurrentLabels))
	if err != nil {
		t.Fatal(err)
	}
	return q, mq
}

// concurrentTranscript makes every call of the concurrency test once and
// renders the results — matches, stats, verdicts and errors — as text. The
// collector is shared by all callers; its totals are not part of the
// transcript.
func concurrentTranscript(q *Query, mq *MultiQuery, xml, term, js string, col *Collector) []string {
	var out []string
	sel := func(name string, f func(fn func(Match)) (Stats, error)) {
		var ms []Match
		st, err := f(func(m Match) { ms = append(ms, m) })
		out = append(out, fmt.Sprintf("%s: %+v %v %v", name, st, err, ms))
	}
	rec := func(name string, f func() (bool, Stats, error)) {
		ok, st, err := f()
		out = append(out, fmt.Sprintf("%s: %v %+v %v", name, ok, st, err))
	}
	multi := func(name string, f func(fn func(MultiMatch)) (MultiStats, error)) {
		var ms []MultiMatch
		st, err := f(func(m MultiMatch) { ms = append(ms, m) })
		out = append(out, fmt.Sprintf("%s: %+v %v %v", name, st, err, ms))
	}
	sel("xml", func(fn func(Match)) (Stats, error) { return q.SelectXML(strings.NewReader(xml), Options{}, fn) })
	sel("xml/collector", func(fn func(Match)) (Stats, error) {
		return q.SelectXML(strings.NewReader(xml), Options{Collector: col}, fn)
	})
	sel("json", func(fn func(Match)) (Stats, error) { return q.SelectJSON(strings.NewReader(js), Options{}, fn) })
	sel("term/earliest", func(fn func(Match)) (Stats, error) {
		return q.SelectTerm(strings.NewReader(term), Options{Earliest: true}, fn)
	})
	sel("xml/earliest", func(fn func(Match)) (Stats, error) {
		return q.SelectXML(strings.NewReader(xml), Options{Earliest: true}, fn)
	})
	sel("xml/forcestack", func(fn func(Match)) (Stats, error) {
		return q.SelectXML(strings.NewReader(xml), Options{ForceStack: true}, fn)
	})
	sel("term/forbidstack", func(fn func(Match)) (Stats, error) {
		return q.SelectTerm(strings.NewReader(term), Options{ForbidStack: true}, fn)
	})
	sel("xml/workers", func(fn func(Match)) (Stats, error) {
		return q.SelectXML(strings.NewReader(xml), Options{Workers: 2}, fn)
	})
	rec("el", func() (bool, Stats, error) { return q.RecognizeEL(strings.NewReader(xml), Options{}) })
	rec("al", func() (bool, Stats, error) { return q.RecognizeAL(strings.NewReader(xml), Options{}) })
	rec("el/term", func() (bool, Stats, error) { return q.RecognizeELTerm(strings.NewReader(term), Options{}) })
	rec("al/term/workers", func() (bool, Stats, error) {
		return q.RecognizeALTerm(strings.NewReader(term), Options{Workers: 2})
	})
	multi("multi/xml", func(fn func(MultiMatch)) (MultiStats, error) {
		return mq.SelectXML(strings.NewReader(xml), Options{Collector: col}, fn)
	})
	multi("multi/xml/workers", func(fn func(MultiMatch)) (MultiStats, error) {
		return mq.SelectXML(strings.NewReader(xml), Options{Workers: 2}, fn)
	})
	multi("multi/term/workers", func(fn func(MultiMatch)) (MultiStats, error) {
		return mq.SelectTerm(strings.NewReader(term), Options{Workers: 2, Collector: col}, fn)
	})
	multi("multi/xml/forcestack", func(fn func(MultiMatch)) (MultiStats, error) {
		return mq.SelectXML(strings.NewReader(xml), Options{ForceStack: true}, fn)
	})
	multi("multi/term/earliest", func(fn func(MultiMatch)) (MultiStats, error) {
		return mq.SelectTerm(strings.NewReader(term), Options{Earliest: true}, fn)
	})
	multi("multi/json/forbidstack", func(fn func(MultiMatch)) (MultiStats, error) {
		return mq.SelectJSON(strings.NewReader(js), Options{ForbidStack: true}, fn)
	})
	return out
}

// TestConcurrentQueryUse: 8 goroutines share one Query and one MultiQuery
// from their first call on — so they race to build the cached machines —
// and every result equals the sequential reference taken on separately
// compiled copies. Run under -race (ci.sh does), it also checks that no
// call writes state another call reads: a runtime instance, its collector
// attachment, a pushdown pool.
func TestConcurrentQueryUse(t *testing.T) {
	withProcs(t, 2)
	rng := rand.New(rand.NewSource(61))
	tr := gen.RandomTree(rng, []string{"a", "b", "c"}, 300)
	xml, term := encoding.XMLString(tr), encoding.TermString(tr)
	js := `{"a":{"b":[1,{"a":{"a":2,"b":3}}],"c":{"b":4}},"b":[{"b":5},6]}`
	refQ, refMQ := concurrentQueries(t)
	want := concurrentTranscript(refQ, refMQ, xml, term, js, NewCollector())
	for _, line := range want {
		switch line[:strings.Index(line, ":")] {
		case "xml", "json", "term/earliest", "multi/xml", "multi/term/workers":
			if strings.HasSuffix(line, " []") {
				t.Fatalf("reference selects nothing, so matches go uncompared: %s", line)
			}
		}
	}

	q, mq := concurrentQueries(t)
	col := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				got := concurrentTranscript(q, mq, xml, term, js, col)
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("concurrent call differs from the sequential reference:\n got %s\nwant %s", got[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
