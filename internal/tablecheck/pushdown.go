package tablecheck

import (
	"stackless/internal/stackeval"
)

// staticPushdown checks the compiled (n+1)×(k+1) word table of the §16
// pushdown fallback. The table is fully redundant with the DFA it was
// compiled from — every entry is the word of a DFA target state with the
// accept flag folded in — so every defect is statically visible, and
// there are no poison entries: dead is row n of the table itself,
// absorbing under opens and revivable by a pop.
func staticPushdown(r *reporter, ev *stackeval.Evaluator) {
	tab, words, stride := ev.CompiledTable()
	d := ev.DFA()
	n := d.NumStates()
	k := d.Alphabet.Size()

	// Shape. The scans below index by q*stride+col, so a broken shape would
	// only produce derived noise: report it and stop.
	if stride != k+1 {
		r.add(KindShape, "stride %d, want k+1 = %d for alphabet size %d", stride, k+1, k)
	}
	if len(words) != n+1 {
		r.add(KindShape, "word vector length %d, want n+1 = %d", len(words), n+1)
	}
	if len(tab) != (n+1)*stride {
		r.add(KindShape, "table length %d, want (n+1)·stride = %d", len(tab), (n+1)*stride)
	}
	if len(r.ds) > 0 {
		return
	}

	// Word vector: redundant with the DFA — code q with the accept flag
	// folded in, dead the bare code n. Every table entry below is compared
	// against these words, so a broken vector would drown the report in
	// derived noise: report it and stop.
	for q := 0; q < n; q++ {
		want := int32(q)
		if d.Accept[q] {
			want |= stackeval.AccBit
		}
		if words[q] != want {
			r.add(KindFlags, "word [q=%d] = %#x, want %#x (code with accept=%v)", q, words[q], want, d.Accept[q])
		}
	}
	if words[n] != int32(n) {
		r.add(KindFlags, "dead word = %#x, want bare code n = %d (never accepting)", words[n], n)
	}
	if len(r.ds) > 0 {
		return
	}

	dead := words[n]
	at := func(q, col int) int32 { return tab[q*stride+col] }
	inRange := func(e int32) bool {
		return e&^(stackeval.AccBit|stackeval.StateMask) == 0 && int(e&stackeval.StateMask) <= n
	}

	// Closure: every entry's state code targets a row of the table (the
	// dead row is a legal target) and carries no bits beyond the accept
	// flag.
	for q := 0; q <= n && !r.full(); q++ {
		for col := 0; col <= k; col++ {
			if e := at(q, col); !inRange(e) {
				r.add(KindClosure, "entry [q=%d col=%d] = %#x targets no row (codes run 0..%d)", q, col, e, n)
			}
		}
	}

	// Flags: the dead row absorbs — every entry, unknown column included,
	// is the dead word itself.
	for col := 0; col <= k; col++ {
		if e := at(n, col); inRange(e) && e != dead {
			r.add(KindFlags, "dead row escapes: [col=%d] = %#x, want %#x", col, e, dead)
		}
	}

	// Flags: live known columns are bit-exactly the word of the DFA
	// transition target. The accept flag rides every table load —
	// pre-selection is a mask test on the word just loaded — so a stray or
	// missing bit drops or invents matches even with the right state code.
	for q := 0; q < n && !r.full(); q++ {
		for a := 0; a < k; a++ {
			e := at(q, a)
			if !inRange(e) {
				continue
			}
			if want := words[d.Delta[q][a]]; e != want {
				r.add(KindFlags, "entry [q=%d a=%d] = %#x, delta says state %d (word %#x)", q, a, e, d.Delta[q][a], want)
			}
		}
	}

	// Totality: the unknown-label column of every live row kills the path —
	// the dead word, revived only by the pop at the foreign subtree's close.
	for q := 0; q < n && !r.full(); q++ {
		if e := at(q, k); inRange(e) && e != dead {
			r.add(KindTotality, "unknown column not dead-closed: [q=%d] = %#x, want %#x", q, e, dead)
		}
	}
}
