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

// Equivalence checks the compiled machine against its own string path over
// every well-formed tree within lim, by breadth-first search over joint
// (string configuration, coded configuration, tree prefix) states. Per
// event it checks that (1) Accepting agrees between the paths, (2) after
// Open events, SelectBatch reports a hit exactly when the machine accepts,
// and (3) StepBatch and SelectBatch land in identical configurations. The
// first divergence in BFS order — hence a minimal counterexample — is
// returned as a diagnostic, with the number of joint states explored. A nil
// diagnostic means no divergence within the bounds.
//
//treelint:partial configs are parked in BFS nodes and restored in later iterations; save/restore pairing is per-node, not per-path
func Equivalence(name string, m any, lim Limits) (*Diagnostic, int, error) {
	lim = lim.withDefaults()
	mu, blind, err := underTest(m)
	if err != nil {
		return nil, 0, err
	}
	alph := mu.CodeAlphabet()
	k := alph.Size()
	unk := unknownLabel(alph)
	unkSym := alphabet.Sym(k)

	// The open moves: the first min(k, Alpha) symbols plus the unknown one.
	type move struct {
		label string
		sym   alphabet.Sym
	}
	var opens []move
	for s := 0; s < k && s < lim.Alpha; s++ {
		opens = append(opens, move{label: alph.Symbol(s), sym: alphabet.Sym(s)})
	}
	opens = append(opens, move{label: unk, sym: unkSym})

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

		// Legal moves from this prefix.
		type edge struct {
			ev   encoding.Event
			ce   encoding.CodedEvent
			tree treeCtx
		}
		var edges []edge
		depth := len(n.tree.stack)
		canOpen := !n.tree.rootDone && depth < lim.Depth &&
			(depth == 0 || n.tree.stack[depth-1].children < lim.Width)
		if canOpen {
			for _, mv := range opens {
				st := make([]frame, depth+1)
				copy(st, n.tree.stack)
				if depth > 0 {
					st[depth-1].children++
				}
				st[depth] = frame{sym: mv.sym}
				edges = append(edges, edge{
					ev:   encoding.Event{Kind: encoding.Open, Label: mv.label},
					ce:   encoding.CodedEvent{Sym: mv.sym, Kind: encoding.Open},
					tree: treeCtx{stack: st},
				})
			}
		}
		if depth > 0 {
			top := n.tree.stack[depth-1]
			st := make([]frame, depth-1)
			copy(st, n.tree.stack[:depth-1])
			ev := encoding.Event{Kind: encoding.Close}
			ce := encoding.CodedEvent{Sym: unkSym, Kind: encoding.Close}
			if !blind {
				// Markup: the close tag carries the label; an unknown-labelled
				// node closes with the unknown label.
				ce.Sym = top.sym
				if top.sym == unkSym {
					ev.Label = unk
				} else {
					ev.Label = alph.Symbol(int(top.sym))
				}
			}
			edges = append(edges, edge{ev: ev, ce: ce, tree: treeCtx{stack: st, rootDone: depth == 1}})
		}

		for _, ed := range edges {
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
