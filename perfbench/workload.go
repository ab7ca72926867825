package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"stackless"
	"stackless/internal/alphabet"
	"stackless/internal/dfa"
	"stackless/internal/encoding"
	"stackless/internal/rex"
	"stackless/internal/tree"
)

// method is the public call an op makes.
type method int

const (
	mSelect   method = iota // Query.Select{XML,JSON,Term}, Options{}
	mEarliest               // Query.SelectTerm, Options{Earliest: true}
	mEL                     // Query.RecognizeELTerm
	mAL                     // Query.RecognizeALTerm
	mMulti                  // MultiQuery.SelectXML, Options{Workers: 2}
)

func (m method) String() string {
	return [...]string{"select", "earliest", "EL", "AL", "multi"}[m]
}

// format is the serialization of a workload's documents.
type format int

const (
	fXML format = iota
	fJSON
	fTerm
)

// task is one call shape an op can take: a method over one query, or over
// the whole subscription set for mMulti. Ops rotate through the tasks.
type task struct {
	method method
	exprs  []string             // public query expressions (one, or the members)
	tiers  []stackless.Strategy // the tier each expression must run on
}

// workload is a seeded pool of documents plus the tasks ops rotate over.
type workload struct {
	name    string
	format  format
	labels  []string
	docs    []doc
	tasks   []task
	workers int
	// compile is the public compiler for the workload's query syntax.
	compile func(expr string, labels []string) (*stackless.Query, error)
	// toRegex turns an expression into the path regex the oracle compiles.
	toRegex func(expr string) (string, error)
	// unit is a one-element document for the per-call overhead probe.
	unit []byte
}

func identity(s string) (string, error) { return s, nil }

func buildWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	R, S, K := stackless.Registerless, stackless.Stackless, stackless.Stack
	switch name {
	case "xml-select":
		w := &workload{name: name, format: fXML, labels: catalogLabels,
			compile: stackless.CompileXPath, toRegex: stackless.XPathToRegex, unit: []byte("<catalog/>")}
		// Sizes evenly spaced over 160–480 KB: op times then form a
		// continuum instead of one cluster per query, whose edge the median
		// of four equal-weight queries would otherwise sit on.
		for i := 0; i < 8; i++ {
			w.docs = append(w.docs, catalogDoc(rng, (160+320*i/7)<<10))
		}
		for _, q := range []struct {
			expr string
			tier stackless.Strategy
		}{{"//name", R}, {"/catalog/item/name", S}, {"//category//name", S}, {"//category/name", K}} {
			w.tasks = append(w.tasks, task{mSelect, []string{q.expr}, []stackless.Strategy{q.tier}})
		}
		return w, nil
	case "json-small":
		w := &workload{name: name, format: fJSON, labels: orderLabels,
			compile: stackless.CompileJSONPath, toRegex: stackless.JSONPathToRegex, unit: []byte("{}")}
		for i := 0; i < 1024; i++ {
			w.docs = append(w.docs, orderDoc(rng))
		}
		for _, q := range []struct {
			expr string
			tier stackless.Strategy
		}{{"$..sku", R}, {"$..items..sku", S}, {"$..category.name", K}} {
			w.tasks = append(w.tasks, task{mSelect, []string{q.expr}, []stackless.Strategy{q.tier}})
		}
		return w, nil
	case "term-validate":
		w := &workload{name: name, format: fTerm, labels: termLabels,
			compile: stackless.CompileRegex, toRegex: identity, unit: []byte("a{}")}
		for i := 0; i < 20; i++ {
			w.docs = append(w.docs, termDoc(rng, 20000, 1000, i%4 == 0))
		}
		// Tiers per method: the QL tiers are the workload's (registerless,
		// stackless, stack); EL and AL of a.*b are registerless as well.
		for _, q := range []struct {
			expr    string
			ql, lan stackless.Strategy
		}{{"a.*b", R, R}, {".*a.*b", S, S}, {".*ab", K, K}} {
			w.tasks = append(w.tasks,
				task{mAL, []string{q.expr}, []stackless.Strategy{q.lan}},
				task{mEL, []string{q.expr}, []stackless.Strategy{q.lan}},
				task{mEarliest, []string{q.expr}, []stackless.Strategy{q.ql}})
		}
		return w, nil
	case "multi-parallel":
		labels := zipfLabels()
		w := &workload{name: name, format: fXML, labels: labels, workers: 2,
			compile: stackless.CompileRegex, toRegex: identity, unit: []byte("<t000/>")}
		// Sizes evenly spaced over 40–120 KB, so the pool's mix does not
		// change with the seed.
		for i := 0; i < 8; i++ {
			w.docs = append(w.docs, zipfDoc(rng, labels, (40+80*i/7)<<10))
		}
		// Six //x subscriptions (registerless: one product group), five
		// //x//y (stackless) and five //x/y (stack), on frequent labels.
		t := task{method: mMulti}
		for _, x := range []int{0, 1, 2, 4, 7, 12} {
			t.exprs = append(t.exprs, fmt.Sprintf(".*'%s'", labels[x]))
			t.tiers = append(t.tiers, R)
		}
		for _, p := range [][2]int{{0, 1}, {1, 0}, {2, 3}, {0, 5}, {3, 1}} {
			t.exprs = append(t.exprs, fmt.Sprintf(".*'%s'.*'%s'", labels[p[0]], labels[p[1]]))
			t.tiers = append(t.tiers, S)
		}
		for _, p := range [][2]int{{0, 1}, {1, 2}, {0, 0}, {2, 1}, {4, 0}} {
			t.exprs = append(t.exprs, fmt.Sprintf(".*'%s''%s'", labels[p[0]], labels[p[1]]))
			t.tiers = append(t.tiers, K)
		}
		w.tasks = []task{t}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want xml-select, json-small, term-validate or multi-parallel)", name)
}

// opAt maps op number i to its task and document so that every (task,
// document) pair recurs once per round of len(tasks)·len(docs) ops.
func (w *workload) opAt(i int) (int, int) {
	return i % len(w.tasks), (i / len(w.tasks)) % len(w.docs)
}

func (w *workload) round() int { return len(w.tasks) * len(w.docs) }

// oracleDFA compiles expr the way the public compiler does, from the
// expression's regex over the workload's labels plus the regex's symbols.
func (w *workload) oracleDFA(expr string) (*dfa.DFA, error) {
	rx, err := w.toRegex(expr)
	if err != nil {
		return nil, err
	}
	node, err := rex.Parse(rx)
	if err != nil {
		return nil, err
	}
	alph := alphabet.New(w.labels...)
	for _, s := range node.SymbolNames() {
		alph.Add(s)
	}
	return rex.Compile(node, alph)
}

// match is one delivered match, normalized across Select and MultiQuery.
type match struct {
	query, pos, depth int
	label             string
}

// expect is the oracle's answer for one (task, document) pair.
type expect struct {
	matches []match
	verdict bool
	wantErr bool
}

// expectations computes every (task, document) answer from the generator's
// trees before anything is timed.
func (w *workload) expectations() ([][]expect, error) {
	dfas := map[string]*dfa.DFA{}
	for _, t := range w.tasks {
		for _, e := range t.exprs {
			if dfas[e] == nil {
				d, err := w.oracleDFA(e)
				if err != nil {
					return nil, fmt.Errorf("oracle for %q: %w", e, err)
				}
				dfas[e] = d
			}
		}
	}
	out := make([][]expect, len(w.tasks))
	for ti, t := range w.tasks {
		out[ti] = make([]expect, len(w.docs))
		for di, d := range w.docs {
			ex := &out[ti][di]
			if d.truncated {
				ex.wantErr = true
				continue
			}
			switch t.method {
			case mEL:
				ex.verdict = tree.InEL(dfas[t.exprs[0]], d.tree)
			case mAL:
				ex.verdict = tree.InAL(dfas[t.exprs[0]], d.tree)
			default:
				ex.matches = oracleMatches(t.exprs, dfas, d.tree)
			}
		}
	}
	return out, nil
}

// oracleMatches merges each query's tree.SelectQL positions into emission
// order: by position, then by query index.
func oracleMatches(exprs []string, dfas map[string]*dfa.DFA, t *tree.Node) []match {
	var depth []int
	var label []string
	t.Walk(func(n *tree.Node, d int) bool {
		depth = append(depth, d)
		label = append(label, n.Label)
		return true
	})
	selected := make([][]bool, len(exprs))
	for q, e := range exprs {
		selected[q] = make([]bool, len(depth))
		for _, p := range tree.SelectQL(dfas[e], t) {
			selected[q][p] = true
		}
	}
	var out []match
	for p := range depth {
		for q := range exprs {
			if selected[q][p] {
				out = append(out, match{q, p, depth[p], label[p]})
			}
		}
	}
	return out
}

// compiled is one set-up's public objects: a query per distinct expression
// and, for mMulti, the subscription set.
type compiled struct {
	queries map[string]*stackless.Query
	multi   *stackless.MultiQuery
}

func (w *workload) compileAll() (*compiled, error) {
	c := &compiled{queries: map[string]*stackless.Query{}}
	for _, t := range w.tasks {
		var members []*stackless.Query
		for _, e := range t.exprs {
			q := c.queries[e]
			if q == nil {
				var err error
				if q, err = w.compile(e, w.labels); err != nil {
					return nil, fmt.Errorf("compile %q: %w", e, err)
				}
				c.queries[e] = q
			}
			members = append(members, q)
		}
		if t.method == mMulti {
			m, err := stackless.NewMultiQuery(members...)
			if err != nil {
				return nil, err
			}
			c.multi = m
		}
	}
	return c, nil
}

// result is what one public call returned.
type result struct {
	verdict    bool
	err        error
	panicked   bool
	strategies []stackless.Strategy
	pipeline   stackless.Pipeline
	groups     int
	events     int
	chunks     int
}

// caller makes public calls with reused buffers, so the harness itself
// allocates nothing per op.
type caller struct {
	w     *workload
	rd    bytes.Reader
	got   []match
	one   [1]stackless.Strategy
	onSel func(stackless.Match)
	onMul func(stackless.MultiMatch)
}

func newCaller(w *workload) *caller {
	c := &caller{w: w}
	c.onSel = func(m stackless.Match) { c.got = append(c.got, match{0, m.Pos, m.Depth, m.Label}) }
	c.onMul = func(m stackless.MultiMatch) { c.got = append(c.got, match{m.Query, m.Pos, m.Depth, m.Label}) }
	return c
}

// call makes task t's public call on data; matches land in c.got. A panic
// is recovered and reported as a failed op.
func (c *caller) call(cq *compiled, t *task, data []byte) (res result) {
	defer func() {
		if p := recover(); p != nil {
			res.panicked = true
			res.err = fmt.Errorf("panic: %v", p)
		}
	}()
	c.got = c.got[:0]
	c.rd.Reset(data)
	if t.method == mMulti {
		st, err := cq.multi.SelectXML(&c.rd, stackless.Options{Workers: c.w.workers}, c.onMul)
		return result{err: err, strategies: st.Strategies, pipeline: st.Pipeline, groups: st.ProductGroups, events: st.Events, chunks: 1}
	}
	q := cq.queries[t.exprs[0]]
	var st stackless.Stats
	var err error
	var ok bool
	switch t.method {
	case mEL:
		ok, st, err = q.RecognizeELTerm(&c.rd, stackless.Options{})
	case mAL:
		ok, st, err = q.RecognizeALTerm(&c.rd, stackless.Options{})
	case mEarliest:
		st, err = q.SelectTerm(&c.rd, stackless.Options{Earliest: true}, c.onSel)
	default:
		switch c.w.format {
		case fXML:
			st, err = q.SelectXML(&c.rd, stackless.Options{}, c.onSel)
		case fJSON:
			st, err = q.SelectJSON(&c.rd, stackless.Options{}, c.onSel)
		default:
			st, err = q.SelectTerm(&c.rd, stackless.Options{}, c.onSel)
		}
	}
	c.one[0] = st.Strategy
	return result{verdict: ok, err: err, strategies: c.one[:], pipeline: st.Pipeline, events: st.Events, chunks: st.Chunks}
}

// check compares a call's outcome with the oracle. A truncated document is
// correct when the call returned an error without panicking.
func check(t *task, ex *expect, res result, got []match) bool {
	if res.panicked {
		return false
	}
	if ex.wantErr {
		return res.err != nil
	}
	if res.err != nil {
		return false
	}
	switch t.method {
	case mEL, mAL:
		return res.verdict == ex.verdict
	}
	if len(got) != len(ex.matches) {
		return false
	}
	for i := range got {
		if got[i] != ex.matches[i] {
			return false
		}
	}
	return true
}

// untyped reports an error that does not wrap encoding.ErrMalformed.
func untyped(err error) bool { return err != nil && !errors.Is(err, encoding.ErrMalformed) }
