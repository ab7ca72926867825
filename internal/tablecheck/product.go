package tablecheck

import (
	"fmt"
	"strings"

	"stackless/internal/core"
	"stackless/internal/encoding"
)

// Static and equivalence checks for the product family (DESIGN.md §13).
// The static pass mirrors staticTagDFA over the product's flat table, with
// the acceptance vector generalized to bitset mask columns; the equivalence
// pass is a joint BFS of the product against the tuple of its member
// machines — the defining property of the construction, stronger than the
// generic string-vs-coded search (which the product family also runs, via
// its underTest case).

// staticProduct checks the flat (n+1)×2(K+1) table and the (n+1)×words mask
// block of a compiled product against its declared dimensions.
func staticProduct(r *reporter, p *core.ProductDFA) {
	tab, masks, anyAcc, stride, words, dead := p.CompiledProduct()
	n := p.NumStates()
	k := p.Alphabet().Size()
	nm := p.Members()

	// Shape. The scans below index by q*stride+col and q*words+w, so a
	// broken shape would only produce derived noise: report it and stop.
	if stride != int32(2*(k+1)) {
		r.add(KindShape, "stride %d, want 2(K+1) = %d for union alphabet size %d", stride, 2*(k+1), k)
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
	if len(masks) != (n+1)*int(words) {
		r.add(KindShape, "mask block length %d, want (n+1)·words = %d", len(masks), (n+1)*int(words))
	}
	if len(anyAcc) != n+1 {
		r.add(KindShape, "anyAcc vector length %d, want n+1 = %d", len(anyAcc), n+1)
	}
	if s := p.Start(); s < 0 || s > n {
		r.add(KindShape, "start state %d outside [0, %d]", s, n)
	}
	if len(r.ds) > 0 {
		return
	}

	at := func(q, col int) int32 { return tab[q*int(stride)+col] }
	mask := func(q int) []uint64 { return masks[q*int(words) : (q+1)*int(words)] }

	// Closure: every entry targets a row (the dead row is a legal target;
	// as with TagDFA, poison is the dead row itself, never a sentinel).
	for q := 0; q <= n && !r.full(); q++ {
		for col := 0; col < int(stride); col++ {
			if e := at(q, col); e < 0 || e > dead {
				r.add(KindClosure, "entry [q=%d col=%d] = %d outside [0, %d]", q, col, e, dead)
			}
		}
	}

	// Flags: the dead row is self-absorbing with a zero mask; anyAcc is
	// redundant with the masks and must agree; bits at or above the member
	// count are meaningless and must stay zero.
	for col := 0; col < int(stride); col++ {
		if e := at(n, col); e >= 0 && e < dead {
			r.add(KindFlags, "dead row escapes: [dead col=%d] = %d", col, e)
		}
	}
	var strayMask [64]uint64 // per-word mask of legal bits
	for w := 0; w < int(words); w++ {
		low := w * 64
		switch {
		case nm-low >= 64:
			strayMask[w] = ^uint64(0)
		case nm-low > 0:
			strayMask[w] = 1<<(uint(nm-low)) - 1
		}
	}
	for q := 0; q <= n && !r.full(); q++ {
		row := mask(q)
		any := false
		for w, word := range row {
			if stray := word &^ strayMask[w]; stray != 0 {
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

	// Totality: unknown open columns poison-close (every member steps its
	// own unknown open into its dead state, so the tuple is the dead row);
	// markup unknown close likewise; term close columns ignore the label
	// (every close column of a row is equal — the composed CloseAny step).
	uo, uc := k<<1, k<<1|1
	for q := 0; q < n && !r.full(); q++ {
		if e := at(q, uo); e != dead && e >= 0 && e <= dead {
			r.add(KindTotality, "unknown open column not poison-closed: [q=%d] = %d, want dead = %d", q, e, dead)
		}
		if !p.TermEncoding() {
			if e := at(q, uc); e != dead && e >= 0 && e <= dead {
				r.add(KindTotality, "unknown close column not poison-closed: [q=%d] = %d, want dead = %d", q, e, dead)
			}
			continue
		}
		want := at(q, uc)
		for s := 0; s < k; s++ {
			if e := at(q, s<<1|1); e != want && e >= 0 && e <= dead {
				r.add(KindTotality, "term close column [q=%d sym=%d] = %d differs from the row's ◁ target %d", q, s, e, want)
			}
		}
	}
}

// EquivalenceProduct checks the product against the tuple of its member
// machines over every well-formed tree within lim — the defining property
// of the construction: after every event prefix, bit i of the product's
// acceptance mask equals member i's Accepting, and the product's own
// Accepting is their disjunction. The coded kernel is held to the same
// tuple: after each Open, SelectBatchMasks must hit exactly when some
// member accepts, with the member bitset. Trees are labelled from the first
// min(K, Alpha) symbols of the *union* alphabet plus one label outside it,
// so members die individually (a union label outside member i's alphabet)
// as well as jointly. The first divergence in BFS order — hence a minimal
// counterexample — is returned, with the number of joint states explored.
//
//treelint:partial configs are parked in BFS nodes and restored in later iterations; save/restore pairing is per-node, not per-path
func EquivalenceProduct(name string, p *core.ProductDFA, lim Limits) (*Diagnostic, int, error) {
	lim = lim.withDefaults()
	pev := p.Evaluator()
	members := p.MemberMachines()
	mevs := make([]core.Snapshotter, len(members))
	for i, m := range members {
		mu, ok := m.Evaluator().(core.Snapshotter)
		if !ok {
			return nil, 0, fmt.Errorf("tablecheck: member %d evaluator lost its snapshot support", i)
		}
		mevs[i] = mu
	}
	u := newUniverse(p.Alphabet(), lim, p.TermEncoding())

	type jointNode struct {
		prod core.SavedConfig
		mem  []core.SavedConfig
		tree treeCtx
		par  *jointNode
		ev   encoding.Event
	}
	events := func(n *jointNode) []encoding.Event {
		var rev []*jointNode
		for q := n; q.par != nil; q = q.par {
			rev = append(rev, q)
		}
		out := make([]encoding.Event, len(rev))
		for i := range rev {
			out[i] = rev[len(rev)-1-i].ev
		}
		return out
	}
	diverge := func(n *jointNode, e encoding.Event, format string, args ...any) *Diagnostic {
		evs := append(events(n), e)
		return &Diagnostic{
			Machine:        name,
			Kind:           KindEquivalence,
			Detail:         fmt.Sprintf(format, args...),
			Counterexample: renderEvents(evs),
			Events:         evs,
		}
	}
	nodeKey := func(n *jointNode) string {
		var b strings.Builder
		b.WriteString(n.prod.Key())
		for _, c := range n.mem {
			b.WriteByte('|')
			b.WriteString(c.Key())
		}
		b.WriteByte('|')
		n.tree.key(&b)
		return b.String()
	}
	parked := func(n *jointNode) bool {
		if !n.prod.Parked() {
			return false
		}
		for _, c := range n.mem {
			if !c.Parked() {
				return false
			}
		}
		return true
	}

	pev.Reset()
	root := &jointNode{prod: pev.SaveConfig(), mem: make([]core.SavedConfig, len(mevs))}
	for i, mu := range mevs {
		mu.Reset()
		root.mem[i] = mu.SaveConfig()
	}
	seen := map[string]bool{nodeKey(root): true}
	queue := []*jointNode{root}
	explored := 0
	batch := make([]encoding.CodedEvent, 1)
	words := p.MaskWords()

	for len(queue) > 0 && explored < lim.MaxNodes {
		n := queue[0]
		queue = queue[1:]
		explored++
		if parked(n) {
			continue
		}

		for _, ed := range u.edges(n.tree) {
			// Product, string path.
			pev.RestoreConfig(n.prod)
			pev.Step(ed.ev)
			pAcc := pev.Accepting()
			pMask := pev.AcceptMask()
			pCfg := pev.SaveConfig()

			// Product, coded kernel with masks.
			batch[0] = ed.ce
			pev.RestoreConfig(n.prod)
			hits, hmasks := pev.SelectBatchMasks(batch, nil, nil)
			selCfg := pev.SaveConfig()
			if selCfg.Key() != pCfg.Key() {
				return diverge(n, ed.ev, "string path and SelectBatchMasks land in different configurations: %q vs %q",
					pCfg.Key(), selCfg.Key()), explored, nil
			}
			pev.RestoreConfig(pCfg)

			// Members, string path.
			memCfg := make([]core.SavedConfig, len(mevs))
			anyMem := false
			for i, mu := range mevs {
				mu.RestoreConfig(n.mem[i])
				mu.Step(ed.ev)
				acc := mu.Accepting()
				memCfg[i] = mu.SaveConfig()
				if acc != (pMask[i/64]&(1<<(uint(i)%64)) != 0) {
					return diverge(n, ed.ev, "mask bit %d = %v disagrees with member %d Accepting = %v",
						i, !acc, i, acc), explored, nil
				}
				anyMem = anyMem || acc
			}
			if pAcc != anyMem {
				return diverge(n, ed.ev, "product Accepting %v, members' disjunction %v", pAcc, anyMem), explored, nil
			}
			if ed.ev.Kind == encoding.Open {
				if hit := len(hits) > 0; hit != anyMem {
					return diverge(n, ed.ev, "SelectBatchMasks hit=%v but some member accepts=%v after the Open",
						hit, anyMem), explored, nil
				}
				if len(hits) > 0 {
					for w := 0; w < words; w++ {
						if hmasks[w] != pMask[w] {
							return diverge(n, ed.ev, "SelectBatchMasks mask word %d = %#x, want %#x",
								w, hmasks[w], pMask[w]), explored, nil
						}
					}
				}
			}

			child := &jointNode{prod: pCfg, mem: memCfg, tree: ed.tree, par: n, ev: ed.ev}
			if key := nodeKey(child); !seen[key] {
				seen[key] = true
				queue = append(queue, child)
			}
		}
	}
	return nil, explored, nil
}
