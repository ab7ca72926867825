package stackless

import (
	"math/rand"
	"strings"
	"testing"

	"stackless/internal/encoding"
	"stackless/internal/gen"
)

// TestPipelineEveryCall: every Select, RecognizeEL and RecognizeAL call,
// over XML and term input, at each machine tier, sequential and with
// Workers 2, runs the compiled pipeline and reports PipelineCoded. Only the
// sequential earliest pass, which steps per event, reports PipelineString.
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
					want := PipelineCoded
					if earliest && workers == 1 && strings.HasPrefix(call.name, "Select") {
						want = PipelineString
					}
					if st.Pipeline != want {
						t.Errorf("%s %s workers=%d earliest=%v: pipeline %v, want %v", call.name, tier.regex, workers, earliest, st.Pipeline, want)
					}
				}
			}
		}
	}
}
