package encoding_test

import (
	"bytes"
	"reflect"
	"testing"

	"stackless/internal/alphabet"
	"stackless/internal/core"
	"stackless/internal/dfa"
	"stackless/internal/encoding"
	"stackless/internal/parallel"
	"stackless/internal/rex"
	"stackless/internal/stackeval"
	"stackless/internal/tree"
)

// oldStack is a test-local reimplementation of the pushdown evaluator as it
// was before the pooled coded rebuild: per-event label resolution, a pair of
// append-grown state/aliveness stacks, and an explicit aliveness bool. It is
// the semantic anchor of FuzzStackCodedVsString — the rebuild must be
// observationally identical, including the empty-stack close no-op and the
// per-branch recovery from foreign labels.
type oldStack struct {
	d     *dfa.DFA
	res   alphabet.Resolver
	state int
	alive bool
	stk   []int
	alv   []bool
}

func newOldStack(d *dfa.DFA) *oldStack {
	return &oldStack{d: d, res: alphabet.NewResolver(d.Alphabet), state: d.Start, alive: true}
}

func (m *oldStack) Reset() {
	m.state, m.alive = m.d.Start, true
	m.stk, m.alv = m.stk[:0], m.alv[:0]
}

func (m *oldStack) Step(e encoding.Event) {
	if e.Kind == encoding.Open {
		m.stk = append(m.stk, m.state)
		m.alv = append(m.alv, m.alive)
		if s, ok := m.res.ID(e.Label); ok && m.alive {
			m.state = m.d.Delta[m.state][s]
		} else {
			m.alive = false
		}
		return
	}
	if n := len(m.stk); n > 0 {
		m.state, m.alive = m.stk[n-1], m.alv[n-1]
		m.stk, m.alv = m.stk[:n-1], m.alv[:n-1]
	}
}

func (m *oldStack) Accepting() bool { return m.alive && m.d.Accept[m.state] }

// FuzzStackCodedVsString fuzzes the document bytes (term encoding, so
// labels outside every alphabet come for free) and the chunk cut points,
// and checks four implementations of the same pushdown against each other:
// the old per-event machine above, the rebuilt machine on its string path
// (core.Select drives Step), the rebuilt machine on its coded path
// (core.SelectCoded drives SelectBatch), and the chunk-parallel engine over
// the speculative segment summaries at adversarial cuts (SelectAt bypasses
// the viability gate). Parsable documents are additionally checked against
// the in-memory tree oracle.
func FuzzStackCodedVsString(f *testing.F) {
	f.Add([]byte("a{b{}a{b{}}}"), []byte{3, 7})
	f.Add([]byte("a{z{a{}}a{}}"), []byte{1, 2, 3}) // foreign subtree: per-branch recovery
	f.Add([]byte("b{a{}a{}a{}}"), []byte{4})
	f.Add([]byte("a{a{a{a{}}}}"), []byte{2, 250}) // deep spike + out-of-range cut
	f.Add([]byte("a{}"), []byte{})

	machines := []*dfa.DFA{
		rex.MustCompile("(a|b)*ab", alphabet.Letters("ab")),
		rex.MustCompile("a(a|b)*b", alphabet.Letters("ab")),
		rex.MustCompile("a*", alphabet.Letters("a")),
	}
	pool := parallel.NewPool(3)

	f.Fuzz(func(t *testing.T, doc, cutBytes []byte) {
		term, err := encoding.ReadAll(encoding.NewTermScanner(bytes.NewReader(doc)))
		if err != nil {
			return
		}
		tr, treeErr := encoding.Decode(encoding.NewSliceSource(term))
		for mi, d := range machines {
			old := newOldStack(d)
			old.Reset()
			var want []int
			pos := -1
			for _, e := range term {
				old.Step(e)
				if e.Kind == encoding.Open {
					pos++
					if old.Accepting() {
						want = append(want, pos)
					}
				}
			}

			ev := stackeval.QL(d)
			str, err := core.SelectPositions(ev, encoding.NewSliceSource(term))
			if err != nil {
				t.Fatalf("machine %d: string path: %v", mi, err)
			}
			if !reflect.DeepEqual(str, want) && (len(str) != 0 || len(want) != 0) {
				t.Fatalf("machine %d: string path %v, old machine %v", mi, str, want)
			}

			var coded []int
			if _, err := core.SelectCoded(ev, encoding.NewSliceSource(term), func(mt core.Match) {
				coded = append(coded, mt.Pos)
			}); err != nil {
				t.Fatalf("machine %d: coded path: %v", mi, err)
			}
			if !reflect.DeepEqual(coded, want) && (len(coded) != 0 || len(want) != 0) {
				t.Fatalf("machine %d: coded path %v, old machine %v", mi, coded, want)
			}

			cuts := make([]int, 0, len(cutBytes))
			for _, b := range cutBytes {
				cuts = append(cuts, int(b)%(len(term)+1))
			}
			var par []int
			parallel.SelectAt(pool, ev, term, cuts, func(mt core.Match) { par = append(par, mt.Pos) })
			if !reflect.DeepEqual(par, want) && (len(par) != 0 || len(want) != 0) {
				t.Fatalf("machine %d: cuts %v: parallel %v, old machine %v", mi, cuts, par, want)
			}

			if treeErr == nil {
				oracle := tree.SelectQL(d, tr)
				if !reflect.DeepEqual(oracle, want) && (len(oracle) != 0 || len(want) != 0) {
					t.Fatalf("machine %d: tree oracle %v, old machine %v", mi, oracle, want)
				}
			}
		}
	})
}
