package tablecheck

import (
	"fmt"

	"stackless/internal/alphabet"
	"stackless/internal/classify"
	"stackless/internal/core"
	"stackless/internal/dfa"
	"stackless/internal/paperfigs"
	"stackless/internal/rex"
	"stackless/internal/stackeval"
)

// Machine is one named machine of the repository corpus.
type Machine struct {
	Name string
	M    any
}

// Corpus compiles every machine the repository constructs from the paper —
// the DRAs of Examples 2.2 and 2.5–2.7, the Proposition 2.8 chain machines,
// the Proposition 2.3 FormalDRA translations, and the full registerless
// family (tag DFAs, stackless evaluators, the synopsis tables of the
// registerless EL and AL machines, both encodings) over the Figure 3
// queries. This is the verification corpus of cmd/tablecheck and the
// differential-test corpus of this package's own tests.
func Corpus() ([]Machine, error) {
	var out []Machine

	// Table DRAs, mirroring cmd/dralint's builtin list.
	out = append(out,
		Machine{"dra/example22", core.Example22()},
		Machine{"dra/example26", core.Example26()},
		Machine{"dra/example27", core.Example27Minimal()},
	)
	for _, expr := range []string{"ab*", "(ab)*", ".*a"} {
		l, err := rex.CompileString(expr, alphabet.Letters("ab"))
		if err != nil {
			return nil, fmt.Errorf("corpus: compile %q: %w", expr, err)
		}
		out = append(out, Machine{"dra/example25(" + expr + ")", core.Example25(l)})
	}
	for _, chain := range [][]string{{"a", "b"}, {"a", "b", "c"}} {
		d, err := core.ChainPatternDRA(alphabet.Letters("abc"), chain)
		if err != nil {
			return nil, fmt.Errorf("corpus: chain %v: %w", chain, err)
		}
		out = append(out, Machine{fmt.Sprintf("dra/chain%v", chain), d})
	}
	for _, expr := range []string{paperfigs.Fig3aRegex, paperfigs.Fig3bRegex, paperfigs.Fig3cRegex} {
		an := classify.Analyze(rex.MustCompile(expr, paperfigs.GammaABC()))
		d, err := core.FormalDRA(an, 0)
		if err != nil {
			return nil, fmt.Errorf("corpus: FormalDRA(%s): %w", expr, err)
		}
		out = append(out, Machine{"dra/formal(" + expr + ")", d})
	}

	// The registerless family over the Figure 3 queries, mirroring the
	// coded-pipeline differential tests.
	an3a := classify.Analyze(paperfigs.Fig3a())
	an3b := classify.Analyze(paperfigs.Fig3b())
	an3c := classify.Analyze(paperfigs.Fig3c())
	cof, err := rex.CompileString("ab|ba", paperfigs.GammaABC())
	if err != nil {
		return nil, fmt.Errorf("corpus: compile ab|ba: %w", err)
	}
	anCof := classify.Analyze(cof.Complement())

	add := func(name string, m any, err error) error {
		if err != nil {
			return fmt.Errorf("corpus: %s: %w", name, err)
		}
		out = append(out, Machine{name, m})
		return nil
	}
	tagM, err := core.RegisterlessQL(an3a)
	if err := add("tagdfa/markup", tagM, err); err != nil {
		return nil, err
	}
	tagB, err := core.BlindRegisterlessQL(an3a)
	if err := add("tagdfa/term", tagB, err); err != nil {
		return nil, err
	}
	stM, err := core.StacklessQL(an3c)
	if err := add("stackless/markup", stM, err); err != nil {
		return nil, err
	}
	stB, err := core.BlindStacklessQL(an3c)
	if err := add("stackless/term", stB, err); err != nil {
		return nil, err
	}
	// The registerless EL and AL machines run a synopsis table through the
	// EL/AL wrappers; the table is what gets verified.
	for _, syn := range []struct {
		name  string
		build func(*classify.Analysis, bool) (*core.TagDFA, error)
		an    *classify.Analysis
		blind bool
	}{
		{"synopsis/el", core.SynopsisTable, an3a, false},
		{"synopsis/el-cofinite", core.SynopsisTable, anCof, false},
		{"synopsis/al", core.SynopsisALTable, an3b, false},
		{"synopsis/al-term", core.SynopsisALTable, an3b, true},
	} {
		t, err := syn.build(syn.an, syn.blind)
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", syn.name, err)
		}
		out = append(out, Machine{syn.name, t})
	}

	// The §16 pushdown fallback, compiled for arbitrary regular languages —
	// no HAR restriction, so the members deliberately include the suffix
	// queries no stackless machine realizes.
	for _, expr := range []string{"(a|b)*ab", "a(a|b)*b", "a*"} {
		l, err := rex.CompileString(expr, alphabet.Letters("ab"))
		if err != nil {
			return nil, fmt.Errorf("corpus: compile %q: %w", expr, err)
		}
		out = append(out, Machine{"pushdown/" + expr, stackeval.QL(l)})
	}

	// Products of the §13 multi-query engine: a markup product over one
	// shared alphabet, a term product, and a mixed-alphabet markup product
	// whose members die individually on labels outside their own alphabets.
	tagQL := func(expr string, alph *alphabet.Alphabet) (*core.TagDFA, error) {
		l, err := rex.CompileString(expr, alph)
		if err != nil {
			return nil, err
		}
		return core.RegisterlessQL(classify.Analyze(l))
	}
	blindQL := func(expr string, alph *alphabet.Alphabet) (*core.TagDFA, error) {
		l, err := rex.CompileString(expr, alph)
		if err != nil {
			return nil, err
		}
		return core.BlindRegisterlessQL(classify.Analyze(l))
	}
	abc := paperfigs.GammaABC()
	var prodErr error
	mkProduct := func(name string, members ...*core.TagDFA) {
		if prodErr != nil {
			return
		}
		p, err := core.NewProductDFA(members, 0)
		if err != nil {
			prodErr = fmt.Errorf("corpus: %s: %w", name, err)
			return
		}
		out = append(out, Machine{name, p})
	}
	pm1, err1 := tagQL("a.*b", abc)
	pm2, err2 := tagQL(".*a", abc)
	pm3, err3 := tagQL("a.*c", abc)
	pt1, err4 := blindQL("a.*b", abc)
	pt2, err5 := blindQL(".*a", abc)
	px1, err6 := tagQL("a.*b", alphabet.Letters("ab"))
	px2, err7 := tagQL("a.*c", alphabet.Letters("ac"))
	for _, err := range []error{err1, err2, err3, err4, err5, err6, err7} {
		if err != nil {
			return nil, fmt.Errorf("corpus: product member: %w", err)
		}
	}
	mkProduct("product/markup", pm1, pm2, pm3)
	mkProduct("product/term", pt1, pt2)
	mkProduct("product/mixed-alphabet", px1, px2)
	if prodErr != nil {
		return nil, prodErr
	}

	// Stacked products of a multi-query set with a stack-tier member: a
	// registerless member over {a,b}, a stackless one and a pushdown one
	// over {a,b,c}, the first two poisoning, under both encodings.
	var ds []*dfa.DFA
	for _, m := range []struct {
		expr, labels string
	}{{"a.*b", "ab"}, {".*a.*b", "abc"}, {".*ab", "abc"}} {
		l, err := rex.CompileString(m.expr, alphabet.Letters(m.labels))
		if err != nil {
			return nil, fmt.Errorf("corpus: stacked member %q: %w", m.expr, err)
		}
		ds = append(ds, classify.Analyze(l).D)
	}
	for _, term := range []bool{false, true} {
		p, err := core.NewStackedProduct(ds, []bool{true, true, false}, term)
		if err != nil {
			return nil, fmt.Errorf("corpus: stacked product: %w", err)
		}
		out = append(out, Machine{MachineName(p), p})
	}
	return out, nil
}
