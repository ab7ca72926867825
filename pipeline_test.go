package stackless

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"stackless/internal/encoding"
	"stackless/internal/gen"
	"stackless/internal/tree"
)

// jsonOf writes the JSON document that reads back as t, whose root is
// labelled RootLabel: every inner node an object keyed by its children's
// labels, every leaf a scalar or an empty container.
func jsonOf(t *tree.Node) string {
	leaves := []string{`1`, `"s"`, `null`, `{}`, `[]`, `-2.5e3`, `true`}
	var b strings.Builder
	k := 0
	var value func(n *tree.Node)
	value = func(n *tree.Node) {
		if len(n.Children) == 0 {
			b.WriteString(leaves[k%len(leaves)])
			k++
			return
		}
		b.WriteByte('{')
		for i, c := range n.Children {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Quote(c.Label))
			b.WriteByte(':')
			value(c)
		}
		b.WriteByte('}')
	}
	value(t)
	return b.String()
}

// TestPipelineEveryCall: every Select, RecognizeEL and RecognizeAL call,
// over XML, term and JSON input, at each machine tier, sequential and with
// Workers 2, earliest or not, runs the compiled pipeline and reports
// PipelineCoded.
// SelectJSON reads the tree under a $ root, and its matches are the
// internal/tree oracle's on that tree.
func TestPipelineEveryCall(t *testing.T) {
	withProcs(t, 2)
	rng := rand.New(rand.NewSource(7))
	tr := gen.RandomTree(rng, abc, 200)
	xmlDoc, termDoc := encoding.XMLString(tr), encoding.TermString(tr)
	calls := []struct {
		name string
		run  func(q *Query, opt Options) (Stats, error)
	}{
		{"SelectXML", func(q *Query, opt Options) (Stats, error) {
			return q.SelectXML(strings.NewReader(xmlDoc), opt, nil)
		}},
		{"SelectTerm", func(q *Query, opt Options) (Stats, error) {
			return q.SelectTerm(strings.NewReader(termDoc), opt, nil)
		}},
		{"RecognizeEL", func(q *Query, opt Options) (Stats, error) {
			_, st, err := q.RecognizeEL(strings.NewReader(xmlDoc), opt)
			return st, err
		}},
		{"RecognizeELTerm", func(q *Query, opt Options) (Stats, error) {
			_, st, err := q.RecognizeELTerm(strings.NewReader(termDoc), opt)
			return st, err
		}},
		{"RecognizeAL", func(q *Query, opt Options) (Stats, error) {
			_, st, err := q.RecognizeAL(strings.NewReader(xmlDoc), opt)
			return st, err
		}},
		{"RecognizeALTerm", func(q *Query, opt Options) (Stats, error) {
			_, st, err := q.RecognizeALTerm(strings.NewReader(termDoc), opt)
			return st, err
		}},
	}
	for _, tier := range []struct {
		regex string
		want  Strategy
	}{{"a.*b", Registerless}, {".*a.*b", Stackless}, {".*ab", Stack}} {
		q := MustCompileRegex(tier.regex, abc)
		for _, call := range calls {
			for _, workers := range []int{1, 2} {
				for _, earliest := range []bool{false, true} {
					st, err := call.run(q, Options{Workers: workers, Earliest: earliest})
					if err != nil {
						t.Fatalf("%s %s workers=%d earliest=%v: %v", call.name, tier.regex, workers, earliest, err)
					}
					if st.Strategy != tier.want {
						t.Fatalf("%s %s: strategy %v, want %v", call.name, tier.regex, st.Strategy, tier.want)
					}
					if st.Pipeline != PipelineCoded {
						t.Errorf("%s %s workers=%d earliest=%v: pipeline %v, want %v", call.name, tier.regex, workers, earliest, st.Pipeline, PipelineCoded)
					}
				}
			}
		}
	}
	wrapped := tree.New(encoding.RootLabel, tr)
	jsonDoc := jsonOf(wrapped)
	for _, tier := range []struct {
		regex string
		want  Strategy
	}{{"'$'.*b", Registerless}, {"'$'.*a.*b", Stackless}, {"'$'.*ab", Stack}} {
		q := MustCompileRegex(tier.regex, append([]string{encoding.RootLabel}, abc...))
		want := tree.SelectQL(q.automaton(), wrapped)
		if len(want) == 0 {
			t.Fatalf("%s selects nothing in %s", tier.regex, wrapped)
		}
		for _, workers := range []int{1, 2} {
			for _, earliest := range []bool{false, true} {
				var got []int
				st, err := q.SelectJSON(strings.NewReader(jsonDoc), Options{Workers: workers, Earliest: earliest}, func(m Match) {
					got = append(got, m.Pos)
				})
				if err != nil {
					t.Fatalf("SelectJSON %s workers=%d earliest=%v: %v", tier.regex, workers, earliest, err)
				}
				if st.Strategy != tier.want {
					t.Fatalf("SelectJSON %s: strategy %v, want %v", tier.regex, st.Strategy, tier.want)
				}
				if st.Pipeline != PipelineCoded {
					t.Errorf("SelectJSON %s workers=%d earliest=%v: pipeline %v, want %v", tier.regex, workers, earliest, st.Pipeline, PipelineCoded)
				}
				if !slices.Equal(got, want) {
					t.Errorf("SelectJSON %s workers=%d earliest=%v: matches %v, oracle %v", tier.regex, workers, earliest, got, want)
				}
			}
		}
	}
}
