package tablecheck

import (
	"fmt"
	"strings"

	"stackless/internal/alphabet"
	"stackless/internal/core"
	"stackless/internal/encoding"
)

// Limits bounds the universe of the equivalence search: all well-formed
// trees of depth at most Depth, at most Width children per node, labelled
// from the first Alpha symbols of the machine's alphabet plus one label
// outside it (exercising the unknown-symbol columns). MaxNodes caps the
// joint-configuration graph the breadth-first search materializes.
type Limits struct {
	Depth, Width, Alpha int
	MaxNodes            int
}

// DefaultLimits are the bounds of the issue's acceptance criteria:
// depth ≤ 4, width ≤ 3, |Σ| ≤ 4.
var DefaultLimits = Limits{Depth: 4, Width: 3, Alpha: 4, MaxNodes: 200000}

// withDefaults fills zero fields from DefaultLimits.
func (l Limits) withDefaults() Limits {
	if l.Depth <= 0 {
		l.Depth = DefaultLimits.Depth
	}
	if l.Width <= 0 {
		l.Width = DefaultLimits.Width
	}
	if l.Alpha <= 0 {
		l.Alpha = DefaultLimits.Alpha
	}
	if l.MaxNodes <= 0 {
		l.MaxNodes = DefaultLimits.MaxNodes
	}
	return l
}

// machineUnderTest is what the search drives: the string path (Step), the
// two batched kernels, and configuration snapshots to fork the run at every
// tree prefix without replaying it.
type machineUnderTest interface {
	core.BatchEvaluator
	SaveConfig() core.SavedConfig
	RestoreConfig(core.SavedConfig)
}

// underTest extracts the evaluator the equivalence search drives, plus
// whether the machine consumes the term encoding (blind).
func underTest(m any) (machineUnderTest, bool, error) {
	switch v := m.(type) {
	case *core.TagDFA:
		mu, ok := v.Evaluator().(machineUnderTest)
		if !ok {
			return nil, false, fmt.Errorf("tablecheck: TagDFA evaluator lost its snapshot support")
		}
		return mu, v.CloseAny != nil, nil
	case *core.StacklessEvaluator:
		return v, v.Blind(), nil
	case *core.DRA:
		mu, ok := v.Evaluator().(machineUnderTest)
		if !ok {
			return nil, false, fmt.Errorf("tablecheck: DRA evaluator lost its snapshot support")
		}
		return mu, false, nil
	case *core.ProductDFA:
		// The explicit case (not the machineUnderTest fallthrough) carries
		// the encoding: a term product is blind, and the generic search must
		// enumerate label-less closes for it.
		return v.Evaluator(), v.TermEncoding(), nil
	case machineUnderTest:
		return v, false, nil
	}
	return nil, false, fmt.Errorf("tablecheck: no equivalence driver for machine type %T", m)
}

// frame is one open ancestor of the enumeration: its label (by symbol code;
// the unknown label is the sentinel) and how many children it already has.
type frame struct {
	sym      alphabet.Sym
	children int
}

// treeCtx is the enumeration state: the open-ancestor stack and whether the
// single root has already closed (no events are legal after that).
type treeCtx struct {
	stack    []frame
	rootDone bool
}

func (c treeCtx) key(b *strings.Builder) {
	if c.rootDone {
		b.WriteByte('!')
	}
	for _, f := range c.stack {
		fmt.Fprintf(b, "%d.%d;", f.sym, f.children)
	}
}

// eqNode is one node of the joint breadth-first search: the string-path and
// coded-path configurations reached by the same event prefix, the
// enumeration state, and the incoming edge for counterexample recovery.
type eqNode struct {
	str, cod core.SavedConfig
	tree     treeCtx
	parent   *eqNode
	ev       encoding.Event
}

// events reconstructs the event prefix leading to n.
func (n *eqNode) events() []encoding.Event {
	var rev []*eqNode
	for p := n; p.parent != nil; p = p.parent {
		rev = append(rev, p)
	}
	out := make([]encoding.Event, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i].ev
	}
	return out
}

// renderEvents joins the prefix in the paper's notation.
func renderEvents(evs []encoding.Event) string {
	parts := make([]string, len(evs))
	for i, e := range evs {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

// unknownLabel returns a label guaranteed to be outside the alphabet.
func unknownLabel(a *alphabet.Alphabet) string {
	s := "∉"
	for a.Contains(s) {
		s += "∉"
	}
	return s
}

// edge is one legal event from a tree prefix: the event, its coded form
// and the enumeration state after it.
type edge struct {
	ev   encoding.Event
	ce   encoding.CodedEvent
	tree treeCtx
}

// universe is the searches' set of trees: well-formed, within lim,
// labelled from the first min(K, Alpha) symbols of alph plus one label
// outside it (coded as the unknown sentinel K), whose closes carry the
// node's label under markup and none when blind.
type universe struct {
	alph  *alphabet.Alphabet
	lim   Limits
	blind bool
	unk   string
	opens []alphabet.Sym // the symbols an Open may carry
}

func newUniverse(alph *alphabet.Alphabet, lim Limits, blind bool) universe {
	u := universe{alph: alph, lim: lim, blind: blind, unk: unknownLabel(alph)}
	for s := 0; s < alph.Size() && s < lim.Alpha; s++ {
		u.opens = append(u.opens, alphabet.Sym(s))
	}
	u.opens = append(u.opens, alphabet.Sym(alph.Size()))
	return u
}

// label returns the label a symbol of the universe stands for.
func (u universe) label(sym alphabet.Sym) string {
	if int(sym) == u.alph.Size() {
		return u.unk
	}
	return u.alph.Symbol(int(sym))
}

// edges returns the legal events after a prefix in state c: an Open of
// each symbol while the tree may grow there, and the Close of the open
// node.
func (u universe) edges(c treeCtx) []edge {
	var edges []edge
	depth := len(c.stack)
	if !c.rootDone && depth < u.lim.Depth && (depth == 0 || c.stack[depth-1].children < u.lim.Width) {
		for _, sym := range u.opens {
			st := make([]frame, depth+1)
			copy(st, c.stack)
			if depth > 0 {
				st[depth-1].children++
			}
			st[depth] = frame{sym: sym}
			edges = append(edges, edge{
				ev:   encoding.Event{Kind: encoding.Open, Label: u.label(sym)},
				ce:   encoding.CodedEvent{Sym: sym, Kind: encoding.Open},
				tree: treeCtx{stack: st},
			})
		}
	}
	if depth > 0 {
		top := c.stack[depth-1]
		st := make([]frame, depth-1)
		copy(st, c.stack[:depth-1])
		ev := encoding.Event{Kind: encoding.Close}
		ce := encoding.CodedEvent{Sym: alphabet.Sym(u.alph.Size()), Kind: encoding.Close}
		if !u.blind {
			ev.Label, ce.Sym = u.label(top.sym), top.sym
		}
		edges = append(edges, edge{ev: ev, ce: ce, tree: treeCtx{stack: st, rootDone: depth == 1}})
	}
	return edges
}

// Equivalence checks the compiled machine against its own string path over
// every well-formed tree within lim, by breadth-first search over joint
// (string configuration, coded configuration, tree prefix) states. Per
// event it checks that (1) Accepting agrees between the paths, (2) after
// Open events, SelectBatch reports a hit exactly when the machine accepts,
// and (3) StepBatch and SelectBatch land in identical configurations. The
// first divergence in BFS order — hence a minimal counterexample — is
// returned as a diagnostic, with the number of joint states explored. A nil
// diagnostic means no divergence within the bounds. A stacked product has
// no string path: its search is the joint one against its member DFAs
// (EquivalenceStacked).
//
//treelint:partial configs are parked in BFS nodes and restored in later iterations; save/restore pairing is per-node, not per-path
func Equivalence(name string, m any, lim Limits) (*Diagnostic, int, error) {
	if sp, ok := m.(*core.StackedProduct); ok {
		return EquivalenceStacked(name, sp, lim)
	}
	lim = lim.withDefaults()
	mu, blind, err := underTest(m)
	if err != nil {
		return nil, 0, err
	}
	u := newUniverse(mu.CodeAlphabet(), lim, blind)

	mu.Reset()
	c0 := mu.SaveConfig()
	root := &eqNode{str: c0, cod: c0, tree: treeCtx{}}

	seen := make(map[string]bool)
	nodeKey := func(n *eqNode) string {
		var b strings.Builder
		b.WriteString(n.str.Key())
		b.WriteByte('|')
		b.WriteString(n.cod.Key())
		b.WriteByte('|')
		n.tree.key(&b)
		return b.String()
	}
	seen[nodeKey(root)] = true
	queue := []*eqNode{root}
	explored := 0

	batch := make([]encoding.CodedEvent, 1)
	diverge := func(n *eqNode, e encoding.Event, format string, args ...any) *Diagnostic {
		evs := append(n.events(), e)
		return &Diagnostic{
			Machine:        name,
			Kind:           KindEquivalence,
			Detail:         fmt.Sprintf(format, args...),
			Counterexample: renderEvents(evs),
			Events:         evs,
		}
	}

	for len(queue) > 0 && explored < lim.MaxNodes {
		n := queue[0]
		queue = queue[1:]
		explored++

		// Both paths absorbed with constant observables: no future event can
		// expose a divergence below this prefix.
		if n.str.Parked() && n.cod.Parked() {
			continue
		}

		for _, ed := range u.edges(n.tree) {
			// String path.
			mu.RestoreConfig(n.str)
			mu.Step(ed.ev)
			strAcc := mu.Accepting()
			strCfg := mu.SaveConfig()

			// Coded path, once through each kernel.
			batch[0] = ed.ce
			mu.RestoreConfig(n.cod)
			mu.StepBatch(batch)
			codAcc := mu.Accepting()
			codCfg := mu.SaveConfig()

			mu.RestoreConfig(n.cod)
			hits := mu.SelectBatch(batch, nil)
			selCfg := mu.SaveConfig()

			if strAcc != codAcc {
				return diverge(n, ed.ev, "Accepting diverges: string path %v, coded path %v", strAcc, codAcc), explored, nil
			}
			if ed.ev.Kind == encoding.Open {
				if hit := len(hits) > 0; hit != codAcc {
					return diverge(n, ed.ev, "SelectBatch hit=%v but Accepting=%v after the Open", hit, codAcc), explored, nil
				}
			}
			if codCfg.Key() != selCfg.Key() {
				return diverge(n, ed.ev, "StepBatch and SelectBatch land in different configurations: %q vs %q",
					codCfg.Key(), selCfg.Key()), explored, nil
			}

			child := &eqNode{str: strCfg, cod: codCfg, tree: ed.tree, parent: n, ev: ed.ev}
			if key := nodeKey(child); !seen[key] {
				seen[key] = true
				queue = append(queue, child)
			}
		}
	}
	return nil, explored, nil
}
