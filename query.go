// Package stackless is a streaming tree-query engine implementing the PODS
// 2021 paper "Stackless Processing of Streamed Trees" (Barloy, Murlak,
// Paperman). It evaluates regular path queries (RPQs) and recognizes the
// tree languages EL ("some branch in L") and AL ("every branch in L") over
// streamed XML (markup encoding) and JSON-style (term encoding) documents
// using the cheapest machine the paper's characterization theorems allow:
//
//	registerless — a plain finite automaton (Theorem 3.2), when the
//	               query language is almost-reversible / E-flat / A-flat;
//	stackless    — a depth-register automaton with one counter and O(1)
//	               registers (Theorem 3.1), when the language is
//	               hierarchically almost-reversible (HAR);
//	stack        — the classical pushdown simulation, Θ(depth) memory,
//	               always available as a fallback.
//
// Queries are written as regular expressions over label paths, or in small
// XPath / JSONPath subsets (downward axes only, as in Example 2.12).
//
// Query sets evaluate together in one streaming pass through MultiQuery;
// compatible compiled machines are merged into product automata stepped
// once per event with per-query accept bits (DESIGN.md §13), so the cost
// of a set is close to one machine's, not the sum of its members'.
package stackless

import (
	"fmt"
	"sort"
	"sync"

	"stackless/internal/alphabet"
	"stackless/internal/classify"
	"stackless/internal/core"
	"stackless/internal/dfa"
	"stackless/internal/obs"
	"stackless/internal/rex"
	"stackless/internal/stackeval"
)

// Encoding selects the serialization the evaluator consumes.
type Encoding int

// The two encodings of Section 2 and Section 4.2.
const (
	// MarkupEncoding: opening and closing tags both carry the label (XML).
	MarkupEncoding Encoding = iota
	// TermEncoding: only opening tags carry the label (JSON).
	TermEncoding
)

func (e Encoding) String() string {
	if e == TermEncoding {
		return "term"
	}
	return "markup"
}

// Strategy identifies the machine class used for an evaluation.
type Strategy int

// Strategies, from cheapest to most expensive.
const (
	Registerless Strategy = iota
	Stackless
	Stack
)

func (s Strategy) String() string {
	switch s {
	case Registerless:
		return "registerless"
	case Stackless:
		return "stackless"
	case Stack:
		return "stack"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Query is a compiled regular path query over a fixed label alphabet.
//
// The machines that evaluate it depend on the query alone. Each is built
// once per query, on the first call that needs it — one per semantics
// (Select, RecognizeEL, RecognizeAL), encoding and ForceStack setting, at
// the cheapest tier the compile-time classification admits — and every
// call runs its own instance over the shared compiled tables. A Query is
// safe for concurrent use by multiple goroutines.
type Query struct {
	source string
	an     *classify.Analysis
	report *classify.Report
	slots  [3][2][2]slot // [semantics][Encoding][ForceStack]
}

// CompileRegex compiles a regular expression over label paths (the syntax
// of internal/rex: «|» union, juxtaposition, «*», «+», «?», «.» any label,
// quoted 'label' for multi-character labels). The alphabet Γ is the set of
// labels the query ranges over; «.» expands to it, and labels must cover
// every symbol in the expression. Extra alphabet labels are allowed (and
// change the meaning of «.»).
func CompileRegex(expr string, labels []string) (*Query, error) {
	node, err := rex.Parse(expr)
	if err != nil {
		return nil, err
	}
	alph := alphabet.New(labels...)
	for _, s := range node.SymbolNames() {
		alph.Add(s)
	}
	d, err := rex.Compile(node, alph)
	if err != nil {
		return nil, err
	}
	an := classify.Analyze(d)
	return &Query{source: expr, an: an, report: an.Report()}, nil
}

// MustCompileRegex is CompileRegex, panicking on error.
func MustCompileRegex(expr string, labels []string) *Query {
	q, err := CompileRegex(expr, labels)
	if err != nil {
		panic(err)
	}
	return q
}

// String returns the source expression.
func (q *Query) String() string { return q.source }

// Alphabet returns the label alphabet Γ, sorted.
func (q *Query) Alphabet() []string {
	out := q.an.D.Alphabet.Symbols()
	sort.Strings(out)
	return out
}

// automaton exposes the minimal DFA for the benchmarks and tests inside
// this module.
func (q *Query) automaton() *dfa.DFA { return q.an.D }

// Classification reports which machine classes can realize the query and
// its associated tree languages, per Theorems 3.1, 3.2, B.1 and B.2.
type Classification struct {
	// Query evaluation (pre-selection semantics).
	Registerless     bool // markup encoding, finite automaton
	StacklessQuery   bool // markup encoding, depth-register automaton
	TermRegisterless bool // term encoding, finite automaton
	TermStackless    bool // term encoding, depth-register automaton
	// Tree languages.
	ELRegisterless bool // EL by a finite automaton (markup)
	ALRegisterless bool // AL by a finite automaton (markup)
	// Underlying syntactic classes (Definitions 3.4, 3.6, 3.9).
	AlmostReversible bool
	HAR              bool
	EFlat            bool
	AFlat            bool
	RTrivial         bool
	Reversible       bool
}

// Classify returns the full classification of the query.
func (q *Query) Classify() Classification {
	r := q.report
	return Classification{
		Registerless:     r.QLRegisterless(),
		StacklessQuery:   r.QLStackless(),
		TermRegisterless: r.TermQLRegisterless(),
		TermStackless:    r.TermQLStackless(),
		ELRegisterless:   r.ELRegisterless(),
		ALRegisterless:   r.ALRegisterless(),
		AlmostReversible: r.AlmostReversible,
		HAR:              r.HAR,
		EFlat:            r.EFlat,
		AFlat:            r.AFlat,
		RTrivial:         r.RTrivial,
		Reversible:       r.Reversible,
	}
}

// Report renders the classification as the table printed by cmd/classify.
func (q *Query) Report() string { return q.report.String() }

// Explain returns human-readable reasons, in the vocabulary of the paper's
// proofs, for every class the query's language misses — empty when the
// query is registerless under both encodings.
func (q *Query) Explain() []string { return q.an.Explanations(q.report) }

// semantics is what a call computes: node selection (QL) or recognition of
// one of the tree languages EL and AL.
type semantics int

const (
	semQL semantics = iota
	semEL
	semAL
)

// slot holds one compiled machine of a query: the cheapest tier the report
// admits for one (semantics, encoding, ForceStack) combination. It is built
// once, on first use, and never run: every call runs its own Fork of it.
type slot struct {
	once sync.Once
	ev   core.Chunkable
	st   Strategy
}

// rung is one stackless tier of a machine ladder: the classify.Report
// verdict that admits it and the constructor that builds it.
type rung struct {
	admit func(*classify.Report) bool
	build func(*classify.Analysis) (core.Chunkable, error)
}

// ladders[sem][enc] holds the Registerless then the Stackless rung; the
// pushdown (stackMachines) closes every ladder and is always admitted. The
// EL and AL machines of both tiers wrap a QL-style machine, as in the
// proofs of Theorems 3.1 and 3.2(3): the registerless ones a synopsis
// table, the stackless ones the QL machine itself.
var ladders = [3][2][2]rung{
	semQL: {
		{{(*classify.Report).QLRegisterless, built(core.RegisterlessQL, (*core.TagDFA).Evaluator)},
			{(*classify.Report).QLStackless, built(core.StacklessQL, asChunkable[*core.StacklessEvaluator])}},
		{{(*classify.Report).TermQLRegisterless, built(core.BlindRegisterlessQL, (*core.TagDFA).Evaluator)},
			{(*classify.Report).TermQLStackless, built(core.BlindStacklessQL, asChunkable[*core.StacklessEvaluator])}},
	},
	semEL: {
		{{(*classify.Report).ELRegisterless, core.RegisterlessEL},
			{(*classify.Report).ELStackless, built(core.StacklessQL, elFromQL)}},
		{{(*classify.Report).TermELRegisterless, core.BlindRegisterlessEL},
			{(*classify.Report).TermQLStackless, built(core.BlindStacklessQL, elFromQL)}},
	},
	semAL: {
		{{(*classify.Report).ALRegisterless, core.RegisterlessAL},
			{(*classify.Report).ALStackless, built(core.StacklessQL, alFromQL)}},
		{{(*classify.Report).TermALRegisterless, core.BlindRegisterlessAL},
			{(*classify.Report).TermQLStackless, built(core.BlindStacklessQL, alFromQL)}},
	},
}

// stackMachines[sem] builds the pushdown, which realizes every semantics
// under both encodings.
var stackMachines = [3]func(*dfa.DFA) core.Chunkable{
	semQL: func(d *dfa.DFA) core.Chunkable { return stackeval.QL(d) },
	semEL: stackeval.EL,
	semAL: stackeval.AL,
}

// stackRefusals[sem] formats the ForbidStack error of a Stack-tier slot.
var stackRefusals = [3]string{
	semQL: "stackless: query %q is not stackless under the %s encoding (Theorem 3.1/B.2)",
	semEL: "stackless: EL of %q needs a stack under the %s encoding",
	semAL: "stackless: AL of %q needs a stack under the %s encoding",
}

// built adapts a typed machine constructor to a rung's, applying wrap to
// what it builds; a failed construction stays a nil interface.
func built[M any](mk func(*classify.Analysis) (M, error), wrap func(M) core.Chunkable) func(*classify.Analysis) (core.Chunkable, error) {
	return func(an *classify.Analysis) (core.Chunkable, error) {
		m, err := mk(an)
		if err != nil {
			return nil, err
		}
		return wrap(m), nil
	}
}

func asChunkable[M core.Chunkable](m M) core.Chunkable   { return m }
func elFromQL(m *core.StacklessEvaluator) core.Chunkable { return core.ELFromQL(m) }
func alFromQL(m *core.StacklessEvaluator) core.Chunkable { return core.ALFromQL(m) }

// build climbs the ladder of sem under enc and returns the first machine
// whose tier the report admits and whose constructor succeeds — a failed
// constructor falls through to the next tier — or the pushdown.
func (q *Query) build(sem semantics, enc Encoding, forceStack bool) (core.Chunkable, Strategy) {
	if !forceStack {
		for i, r := range ladders[sem][enc] {
			if !r.admit(q.report) {
				continue
			}
			if ev, err := r.build(q.an); err == nil {
				return ev, Strategy(i)
			}
		}
	}
	return stackMachines[sem](q.an.D), Stack
}

// slot returns q's slot for sem under enc and opt's ForceStack, building
// its machine on the first call, or opt's ForbidStack refusal of a
// Stack-tier slot.
func (q *Query) slot(sem semantics, enc Encoding, opt Options) (*slot, error) {
	force := 0
	if opt.ForceStack {
		force = 1
	}
	s := &q.slots[sem][enc][force]
	s.once.Do(func() { s.ev, s.st = q.build(sem, enc, opt.ForceStack) })
	if s.st == Stack && opt.ForbidStack && !opt.ForceStack {
		return nil, fmt.Errorf(stackRefusals[sem], q.source, enc)
	}
	return s, nil
}

// machine returns a runtime instance of q's machine for sem under enc, per
// opt's ForceStack and ForbidStack, with opt.Collector attached. The slot's
// machine is built on the first call; later calls only take a Fork of it.
func (q *Query) machine(sem semantics, enc Encoding, opt Options) (core.Chunkable, Strategy, error) {
	s, err := q.slot(sem, enc, opt)
	if err != nil {
		return nil, Stack, err
	}
	return s.fork(opt.Collector), s.st, nil
}

// fork returns a runtime instance of the slot's machine with c attached.
func (s *slot) fork(c *obs.Collector) core.Chunkable {
	ev := s.ev.Fork()
	if c != nil {
		core.Instrument(ev, c)
		if s.st == Stack {
			c.StackFallbacks.Inc()
		}
	}
	return ev
}
