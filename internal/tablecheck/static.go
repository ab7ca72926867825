package tablecheck

import (
	"stackless/internal/core"
)

// staticTagDFA checks the flat (n+1)×2(k+1) table of DESIGN.md §11 against
// the TagDFA's declared dimensions.
func staticTagDFA(r *reporter, t *core.TagDFA) {
	tab, acc, stride, dead := t.CompiledTable()
	n := t.NumStates()
	k := t.Alphabet.Size()

	// Shape. The scans below index by q*stride+col, so a broken shape would
	// only produce derived noise: report it and stop.
	if stride != int32(2*(k+1)) {
		r.add(KindShape, "stride %d, want 2(k+1) = %d for alphabet size %d", stride, 2*(k+1), k)
	}
	if dead != int32(n) {
		r.add(KindShape, "dead state %d, want n = %d", dead, n)
	}
	if len(tab) != (n+1)*int(stride) {
		r.add(KindShape, "table length %d, want (n+1)·stride = %d", len(tab), (n+1)*int(stride))
	}
	if len(acc) != n+1 {
		r.add(KindShape, "acceptance vector length %d, want n+1 = %d", len(acc), n+1)
	}
	if len(r.ds) > 0 {
		return
	}

	at := func(q, col int) int32 { return tab[q*int(stride)+col] }

	// Closure: every entry targets a row of the table (the dead row is a
	// legal target; TagDFA tables carry no poison entries — poison is the
	// dead row itself).
	for q := 0; q <= n && !r.full(); q++ {
		for col := 0; col < int(stride); col++ {
			if e := at(q, col); e < 0 || e > dead {
				r.add(KindClosure, "entry [q=%d col=%d] = %d outside [0, %d]", q, col, e, dead)
			}
		}
	}

	// Flags: the dead row is self-absorbing and never accepting.
	for col := 0; col < int(stride); col++ {
		if e := at(n, col); e >= 0 && e < dead {
			r.add(KindFlags, "dead row escapes: [dead col=%d] = %d", col, e)
		}
	}
	if acc[n] {
		r.add(KindFlags, "dead state accepts")
	}

	// Totality: the unknown-symbol columns exist by shape; they must be
	// poison-closed (dead), and term-encoding close columns must ignore the
	// label entirely (every close column of row q equals CloseAny[q]).
	uo, uc := k<<1, k<<1|1
	for q := 0; q < n && !r.full(); q++ {
		if e := at(q, uo); e != dead && e >= 0 && e <= dead {
			r.add(KindTotality, "unknown open column not poison-closed: [q=%d] = %d, want dead = %d", q, e, dead)
		}
		if t.CloseAny == nil {
			if e := at(q, uc); e != dead && e >= 0 && e <= dead {
				r.add(KindTotality, "unknown close column not poison-closed: [q=%d] = %d, want dead = %d", q, e, dead)
			}
			continue
		}
		want := int32(t.CloseAny[q])
		for s := 0; s <= k; s++ {
			if e := at(q, s<<1|1); e != want && e >= 0 && e <= dead {
				r.add(KindTotality, "term close column [q=%d sym=%d] = %d, want CloseAny = %d", q, s, e, want)
			}
		}
	}

	// Earliest flags (DESIGN.md §14): recompute the fixpoint, diff bitwise.
	// Only on an otherwise-clean table — flags recomputed from corrupted
	// transitions would report derived noise instead of the root cause,
	// exactly the rule the equivalence search follows.
	if len(r.ds) == 0 {
		earliestTagDFA(r, t)
	}
}

// staticStackless checks the five compiled tables of the Lemma 3.8 machine
// against each other and against the analysis they were compiled from.
func staticStackless(r *reporter, ev *core.StacklessEvaluator) {
	delta, sel, back, backAny, comp := ev.CompiledTables()
	an := ev.Analysis()
	blind := ev.Blind()
	A := an.D
	n := A.NumStates()
	k := A.Alphabet.Size()
	w := 2 * (k + 1)

	// Shape.
	if len(delta) != n*(k+1) {
		r.add(KindShape, "delta length %d, want n(k+1) = %d", len(delta), n*(k+1))
	}
	if len(sel) != n*w {
		r.add(KindShape, "sel length %d, want 2n(k+1) = %d", len(sel), n*w)
	}
	if len(comp) != n {
		r.add(KindShape, "component vector length %d, want n = %d", len(comp), n)
	}
	if blind {
		if back != nil {
			r.add(KindShape, "blind machine carries a labelled back table")
		}
		if len(backAny) != n {
			r.add(KindShape, "backAny length %d, want n = %d", len(backAny), n)
		}
	} else {
		if backAny != nil {
			r.add(KindShape, "markup machine carries a blind backAny table")
		}
		if len(back) != (k+1)*n {
			r.add(KindShape, "back length %d, want (k+1)n = %d", len(back), (k+1)*n)
		}
	}
	if len(r.ds) > 0 {
		return
	}

	inRange := func(e int32) bool { return e >= 0 && int(e) < n }

	// Component vector: redundant with the analysis, so it must agree.
	for p := 0; p < n; p++ {
		if comp[p] != int32(an.Comp[p]) {
			r.add(KindFlags, "component vector disagrees with analysis at state %d: %d vs %d", p, comp[p], an.Comp[p])
		}
	}

	// Delta: known columns closed over states, unknown column poisoned -1.
	for p := 0; p < n && !r.full(); p++ {
		for a := 0; a <= k; a++ {
			e := delta[p*(k+1)+a]
			if a == k {
				if e == -1 {
					continue
				}
				if inRange(e) {
					r.add(KindTotality, "unknown delta column not poison-closed: [p=%d] = %d, want -1", p, e)
				} else {
					r.add(KindClosure, "poison entry [p=%d unknown] = %d, want exactly -1", p, e)
				}
				continue
			}
			if !inRange(e) {
				r.add(KindClosure, "delta entry [p=%d a=%d] = %d outside [0, %d)", p, a, e, n)
			}
		}
	}

	// Back tables: candidates in range or exactly -1 (no predecessor), with
	// the unknown row of the labelled table all -1.
	if blind {
		for p := 0; p < n && !r.full(); p++ {
			if e := backAny[p]; e != -1 && !inRange(e) {
				r.add(KindClosure, "backAny[%d] = %d, want -1 or a state below %d", p, e, n)
			}
		}
	} else {
		for a := 0; a <= k && !r.full(); a++ {
			for p := 0; p < n; p++ {
				e := back[a*n+p]
				if a == k {
					if e == -1 {
						continue
					}
					if inRange(e) {
						r.add(KindTotality, "unknown back row not poison-closed: [p=%d] = %d, want -1", p, e)
					} else {
						r.add(KindClosure, "poison entry back[unknown p=%d] = %d, want exactly -1", p, e)
					}
					continue
				}
				if e != -1 && !inRange(e) {
					r.add(KindClosure, "back entry [a=%d p=%d] = %d, want -1 or a state below %d", a, p, e, n)
				}
			}
		}
	}

	// Sel: the fused table. Open columns carry the delta target plus the
	// push/accept flags; close columns carry the bare backtrack candidate.
	for p := 0; p < n && !r.full(); p++ {
		for a := 0; a < k; a++ {
			open := sel[p*w+a<<1]
			if open < 0 {
				r.add(KindClosure, "open column poisoned on a known symbol: sel[p=%d a=%d] = %d", p, a, open)
				continue
			}
			st := open & core.SelStateMask
			if int(st) >= n {
				r.add(KindClosure, "open entry sel[p=%d a=%d] targets %d outside [0, %d)", p, a, st, n)
				continue
			}
			if int(st) != A.Delta[p][a] {
				r.add(KindFlags, "open entry sel[p=%d a=%d] targets %d, delta says %d", p, a, st, A.Delta[p][a])
			}
			if stray := open &^ (core.SelPushBit | core.SelAccBit | core.SelStateMask); stray != 0 {
				r.add(KindFlags, "open entry sel[p=%d a=%d] carries stray bits %#x", p, a, stray)
			}
			if got, want := open&core.SelPushBit != 0, an.Comp[int(st)] != an.Comp[p]; got != want {
				r.add(KindFlags, "push bit on sel[p=%d a=%d] is %v, SCC change is %v", p, a, got, want)
			}
			if got, want := open&core.SelAccBit != 0, A.Accept[int(st)]; got != want {
				r.add(KindFlags, "accept bit on sel[p=%d a=%d] is %v, acceptance of %d is %v", p, a, got, st, want)
			}

			cl := sel[p*w+(a<<1|1)]
			if cl >= 0 && cl&(core.SelPushBit|core.SelAccBit) != 0 {
				r.add(KindFlags, "selection flags in close column sel[p=%d a=%d]: %#x", p, a, cl)
				continue
			}
			if cl < -1 || int(cl) >= n {
				r.add(KindClosure, "close entry sel[p=%d a=%d] = %d, want -1 or a state below %d", p, a, cl, n)
				continue
			}
			want := int32(-1)
			if blind {
				want = backAny[p]
			} else {
				want = back[a*n+p]
			}
			if cl != want {
				r.add(KindFlags, "close entry sel[p=%d a=%d] = %d disagrees with back table %d", p, a, cl, want)
			}
		}
		// Unknown columns: opens poison; closes poison on markup machines
		// (the label is consulted) and fall through to backAny on blind ones
		// (it never is).
		if e := sel[p*w+k<<1]; e != -1 {
			r.add(KindTotality, "unknown open column not poison-closed: sel[p=%d] = %d, want -1", p, e)
		}
		uc := sel[p*w+(k<<1|1)]
		if blind {
			if uc != backAny[p] {
				r.add(KindTotality, "blind unknown close column sel[p=%d] = %d, want backAny = %d", p, uc, backAny[p])
			}
		} else if uc != -1 {
			r.add(KindTotality, "unknown close column not poison-closed: sel[p=%d] = %d, want -1", p, uc)
		}
	}

	// Earliest flags (DESIGN.md §14): recompute the fixpoint, diff bitwise
	// — only on an otherwise-clean table (see staticTagDFA).
	if len(r.ds) == 0 {
		earliestStackless(r, ev)
	}
}

// staticDRA checks a table DRA: Definition 2.1 realized as a dense table
// over (state, tag, X≤, X≥).
func staticDRA(r *reporter, d *core.DRA) {
	k := d.Alphabet.Size()
	entries, ok := core.TableEntries(d.States, k, d.Regs)
	if !ok {
		r.add(KindShape, "dimensions (%d states, %d symbols, %d registers) exceed the table cap", d.States, k, d.Regs)
		return
	}
	if got := d.TableLen(); uint64(got) != entries {
		r.add(KindShape, "table length %d, want states·2k·4^regs = %d", got, entries)
	}
	if len(d.Accept) != d.States {
		r.add(KindShape, "acceptance vector length %d, want %d states", len(d.Accept), d.States)
	}
	if d.Start < 0 || d.Start >= d.States {
		r.add(KindShape, "start state %d outside [0, %d)", d.Start, d.States)
	}
	if len(r.ds) > 0 {
		return
	}

	// Closure and flag hygiene over every entry, infeasible mask pairs
	// included: the index space is dense, so a stray write or a default the
	// builder forgot to overwrite is still a table defect even if no run can
	// reach it. Determinism and totality hold by construction (exactly one
	// entry per index), so there is no separate totality scan.
	full := core.FullRegSet(d.Regs)
	masks := core.RegSet(1) << uint(d.Regs)
	for q := 0; q < d.States && !r.full(); q++ {
		for sym := 0; sym < k; sym++ {
			for _, closing := range []bool{false, true} {
				for le := core.RegSet(0); le < masks; le++ {
					for ge := core.RegSet(0); ge < masks; ge++ {
						tr := d.Transition(q, sym, closing, le, ge)
						if tr.Next < 0 || tr.Next >= d.States {
							r.add(KindClosure, "δ(q=%d sym=%d closing=%v le=%#x ge=%#x).Next = %d outside [0, %d)",
								q, sym, closing, le, ge, tr.Next, d.States)
						}
						if stray := tr.Load &^ full; stray != 0 {
							r.add(KindFlags, "δ(q=%d sym=%d closing=%v le=%#x ge=%#x) loads unavailable registers %#x",
								q, sym, closing, le, ge, stray)
						}
					}
				}
			}
		}
	}
}
