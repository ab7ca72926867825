package tablecheck

import (
	"fmt"
	"strings"

	"stackless/internal/core"
	"stackless/internal/encoding"
)

// Static and equivalence checks for the stacked product of a multi-query
// set (DESIGN.md §13): a product table with one column per union symbol,
// run as a pushdown, plus the per-column poison masks of its compiled
// members. The static pass mirrors staticProduct over the narrower table
// and recomputes the poison block from its definition; the equivalence
// pass is a joint BFS of the pushdown against the tuple of member DFAs,
// each run over the path to the current node, with each compiled member
// dying at the first label outside its alphabet.

// staticStacked checks the flat (n+1)×(K+1) table, the (n+1)×words mask
// block and the 2(K+1)×words poison block of a stacked product.
func staticStacked(r *reporter, p *core.StackedProduct) {
	tab, masks, anyAcc, poison, pcol, stride, words, dead := p.CompiledStacked()
	n := p.NumStates()
	k := p.Alphabet().Size()
	nm := p.Members()

	// Shape. The scans below index by q*stride+col, q*words+w and
	// c*words+w, so a broken shape would only produce derived noise:
	// report it and stop.
	if stride != int32(k+1) {
		r.add(KindShape, "stride %d, want K+1 = %d for union alphabet size %d", stride, k+1, k)
	}
	if words != int32((nm+63)/64) {
		r.add(KindShape, "mask words %d, want ceil(members/64) = %d for %d members", words, (nm+63)/64, nm)
	}
	if dead != int32(n) {
		r.add(KindShape, "dead state %d, want n = %d", dead, n)
	}
	if len(tab) != (n+1)*int(stride) {
		r.add(KindShape, "table length %d, want (n+1)·stride = %d", len(tab), (n+1)*int(stride))
	}
	if len(masks) != (n+1)*int(words) || len(anyAcc) != n+1 {
		r.add(KindShape, "mask block length %d and anyAcc length %d, want (n+1)·words = %d and n+1 = %d",
			len(masks), len(anyAcc), (n+1)*int(words), n+1)
	}
	if len(poison) != 2*(k+1)*int(words) || len(pcol) != 2*(k+1) {
		r.add(KindShape, "poison block length %d and flag length %d, want 2(K+1)·words = %d and 2(K+1) = %d",
			len(poison), len(pcol), 2*(k+1)*int(words), 2*(k+1))
	}
	if s := p.Start(); s < 0 || s > n {
		r.add(KindShape, "start state %d outside [0, %d]", s, n)
	}
	if len(r.ds) > 0 {
		return
	}

	at := func(q, col int) int32 { return tab[q*int(stride)+col] }

	// Closure: every entry targets a row.
	for q := 0; q <= n && !r.full(); q++ {
		for col := 0; col < int(stride); col++ {
			if e := at(q, col); e < 0 || e > dead {
				r.add(KindClosure, "entry [q=%d col=%d] = %d outside [0, %d]", q, col, e, dead)
			}
		}
	}

	// Flags: the dead row is self-absorbing with a zero mask, anyAcc agrees
	// with the masks, and no bit at or above the member count is set.
	for col := 0; col < int(stride); col++ {
		if e := at(n, col); e >= 0 && e < dead {
			r.add(KindFlags, "dead row escapes: [dead col=%d] = %d", col, e)
		}
	}
	legal := func(w int) uint64 {
		switch low := w * 64; {
		case nm-low >= 64:
			return ^uint64(0)
		case nm-low > 0:
			return 1<<uint(nm-low) - 1
		}
		return 0
	}
	for q := 0; q <= n && !r.full(); q++ {
		any := false
		for w, word := range masks[q*int(words) : (q+1)*int(words)] {
			if stray := word &^ legal(w); stray != 0 {
				r.add(KindFlags, "mask bits above member count set: [q=%d word=%d] stray %#x (%d members)", q, w, stray, nm)
			}
			any = any || word != 0
		}
		if q == n && any {
			r.add(KindFlags, "dead state accepts: non-zero mask on the dead row")
		}
		if anyAcc[q] != any {
			r.add(KindFlags, "anyAcc[%d] = %v disagrees with mask (non-zero: %v)", q, anyAcc[q], any)
		}
	}

	// Flags: the poison block is redundant with the members — compiled
	// member i dies on each column whose label is outside its alphabet, on
	// Opens and (markup) Closes — and pcol flags exactly its non-zero rows.
	// One diagnostic per differing column word.
	members, compiled := p.MemberDFAs(), p.Compiled()
	want := make([]uint64, words)
	for c := 0; c < 2*(k+1) && !r.full(); c++ {
		sym, kind := c>>1, encoding.Kind(c&1)
		clear(want)
		for i, d := range members {
			known := sym < k && d.Alphabet.Contains(p.Alphabet().Symbol(sym))
			if compiled[i] && !known && (kind == encoding.Open || !p.TermEncoding()) {
				want[i/64] |= 1 << (uint(i) % 64)
			}
		}
		any := false
		for w := 0; w < int(words); w++ {
			if got := poison[c*int(words)+w]; got != want[w] {
				r.add(KindFlags, "poison column [sym=%d kind=%d word=%d] = %#x, want %#x", sym, kind, w, got, want[w])
			}
			any = any || want[w] != 0
		}
		if pcol[c] != any {
			r.add(KindFlags, "poison flag [sym=%d kind=%d] = %v, want %v", sym, kind, pcol[c], any)
		}
	}

	// Totality: the unknown column of every live row steps every member
	// to its dead state, hence to the dead row.
	for q := 0; q < n && !r.full(); q++ {
		if e := at(q, k); e != dead && e >= 0 && e <= dead {
			r.add(KindTotality, "unknown column not dead-closed: [q=%d] = %d, want dead = %d", q, e, dead)
		}
	}
}

// EquivalenceStacked checks a stacked product against the tuple of its
// member DFAs over every well-formed tree within lim: after each Open,
// SelectStacked must hit exactly when some live member's DFA accepts the
// path to the new node, with exactly those members' bits. A member's DFA
// dies on a label outside its alphabet (for that subtree), and a compiled
// member dies for the rest of the stream at the first event whose label is
// outside its alphabet. Trees are labelled from the first min(K, Alpha)
// union symbols plus one label outside it. The first divergence in BFS
// order is returned, with the number of joint states explored.
//
//treelint:partial configs are parked in BFS nodes and restored in later iterations; save/restore pairing is per-node, not per-path
func EquivalenceStacked(name string, p *core.StackedProduct, lim Limits) (*Diagnostic, int, error) {
	lim = lim.withDefaults()
	members := p.MemberDFAs()
	compiled := p.Compiled()
	alph := p.Alphabet()
	k := alph.Size()
	blind := p.TermEncoding()
	words := p.MaskWords()

	// msym[i][s] is member i's symbol for union symbol s, -1 outside its
	// alphabet (the unknown symbol k included).
	msym := make([][]int, len(members))
	for i, d := range members {
		msym[i] = make([]int, k+1)
		for s := range msym[i] {
			msym[i][s] = -1
			if s == k {
				continue
			}
			if id, ok := d.Alphabet.ID(alph.Symbol(s)); ok {
				msym[i][s] = id
			}
		}
	}

	u := newUniverse(alph, lim, blind)

	// A joint node: the run's configuration; the member tuple as each
	// member's DFA state per open ancestor (-1 dead), top last, and which
	// members are still alive; the enumeration state; the incoming edge.
	type jointNode struct {
		cfg   core.SavedConfig
		path  [][]int
		alive []bool
		tree  treeCtx
		par   *jointNode
		ev    encoding.Event
	}
	nodeKey := func(n *jointNode) string {
		var b strings.Builder
		b.WriteString(n.cfg.Key())
		fmt.Fprintf(&b, "|%v|", n.alive)
		n.tree.key(&b)
		return b.String()
	}
	diverge := func(n *jointNode, e encoding.Event, format string, args ...any) *Diagnostic {
		var rev []encoding.Event
		for q := n; q.par != nil; q = q.par {
			rev = append(rev, q.ev)
		}
		evs := make([]encoding.Event, 0, len(rev)+1)
		for i := len(rev) - 1; i >= 0; i-- {
			evs = append(evs, rev[i])
		}
		evs = append(evs, e)
		return &Diagnostic{
			Machine:        name,
			Kind:           KindEquivalence,
			Detail:         fmt.Sprintf(format, args...),
			Counterexample: renderEvents(evs),
			Events:         evs,
		}
	}

	run := p.Run()
	defer run.Release()
	alive0 := make([]bool, len(members))
	for i := range alive0 {
		alive0[i] = true
	}
	root := &jointNode{cfg: run.SaveConfig(), alive: alive0}
	seen := map[string]bool{nodeKey(root): true}
	queue := []*jointNode{root}
	explored := 0
	batch := make([]encoding.CodedEvent, 1)
	want := make([]uint64, words)

	for len(queue) > 0 && explored < lim.MaxNodes {
		n := queue[0]
		queue = queue[1:]
		explored++

		for _, ed := range u.edges(n.tree) {
			batch[0] = ed.ce
			run.RestoreConfig(n.cfg)
			hits := run.SelectStacked(batch, nil)
			masks := run.HitMasks()
			child := &jointNode{cfg: run.SaveConfig(), tree: ed.tree, par: n, ev: ed.ev}

			// The member tuple. Every event's label poisons the compiled
			// members lacking it, except a term Close, which has none.
			sym := int(ed.ce.Sym)
			child.alive = append([]bool(nil), n.alive...)
			for i := range members {
				if compiled[i] && msym[i][sym] < 0 && (ed.ev.Kind == encoding.Open || !blind) {
					child.alive[i] = false
				}
			}
			if ed.ev.Kind == encoding.Close {
				child.path = n.path[:len(n.path)-1]
			} else {
				states := make([]int, len(members))
				clear(want)
				for i, d := range members {
					cur := d.Start
					if len(n.path) > 0 {
						cur = n.path[len(n.path)-1][i]
					}
					states[i] = -1
					if cur >= 0 && msym[i][sym] >= 0 {
						states[i] = d.Delta[cur][msym[i][sym]]
					}
					if child.alive[i] && states[i] >= 0 && d.Accept[states[i]] {
						want[i/64] |= 1 << (uint(i) % 64)
					}
				}
				child.path = append(append([][]int(nil), n.path...), states)
				accepts := false
				for _, w := range want {
					accepts = accepts || w != 0
				}
				if hit := len(hits) > 0; hit != accepts {
					return diverge(n, ed.ev, "SelectStacked hit=%v but some live member accepts=%v after the Open", hit, accepts), explored, nil
				}
				for w := 0; w < words && len(hits) > 0; w++ {
					if masks[w] != want[w] {
						return diverge(n, ed.ev, "SelectStacked mask word %d = %#x, want %#x from the member tuple", w, masks[w], want[w]), explored, nil
					}
				}
			}
			if key := nodeKey(child); !seen[key] {
				seen[key] = true
				queue = append(queue, child)
			}
		}
	}
	return nil, explored, nil
}
