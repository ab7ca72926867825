package core

import (
	"errors"
	"fmt"

	"stackless/internal/classify"
)

// Lemma 3.11 + Appendix A: the synopsis automaton — a finite automaton over
// Γ ∪ Γ̄ recognizing EL when L is E-flat. A synopsis
//
//	(r0,p0,q0) --a1--> (r1,p1,q1) --a2--> ... --aℓ--> (rℓ,pℓ,qℓ)
//
// records the chain of split transitions that moved the simulated run of
// L's minimal automaton from one SCC to the next; ambiguity introduced by
// backtracking over closing tags is confined to the split pairs (pᵢ,qᵢ),
// which E-flatness keeps almost equivalent. The synopsis length is bounded
// by the depth of the SCC DAG, so the state space is finite: SynopsisTable
// enumerates it into a TagDFA when the machine is built, and the machine
// runs that table through the EL or AL wrapper.
//
// Appendix B's blind variant (Cases A′–D′) handles the term encoding, where
// closing tags do not reveal the label.

// synTriple is one (r, p, q) entry of a synopsis.
type synTriple struct{ r, p, q int }

// synopsis is a state of the simulating automaton B.
type synopsis struct {
	triples []synTriple
	letters []int // letters[i] is the split letter a_{i+1}; len = len(triples)-1
}

func (s synopsis) last() synTriple { return s.triples[len(s.triples)-1] }

func (s synopsis) key() string {
	b := make([]byte, 0, len(s.triples)*12+len(s.letters)*4)
	put := func(v int) {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	for i, t := range s.triples {
		put(t.r)
		put(t.p)
		put(t.q)
		if i < len(s.letters) {
			put(s.letters[i])
		}
	}
	return string(b)
}

// replaceLast returns a copy with the last triple replaced.
func (s synopsis) replaceLast(t synTriple) synopsis {
	triples := make([]synTriple, len(s.triples))
	copy(triples, s.triples)
	triples[len(triples)-1] = t
	return synopsis{triples: triples, letters: s.letters}
}

// push returns a copy with --a--> t appended.
func (s synopsis) push(a int, t synTriple) synopsis {
	triples := make([]synTriple, len(s.triples)+1)
	copy(triples, s.triples)
	triples[len(s.triples)] = t
	letters := make([]int, len(s.letters)+1)
	copy(letters, s.letters)
	letters[len(s.letters)] = a
	return synopsis{triples: triples, letters: letters}
}

// pop returns a copy with the last (letter, triple) removed.
func (s synopsis) pop() synopsis {
	return synopsis{
		triples: s.triples[:len(s.triples)-1],
		letters: s.letters[:len(s.letters)-1],
	}
}

// Sentinel state ids of the simulating automaton. As table rows they come
// first: row id-synBot holds state id, so ⊥ is row 0, ⊤ row 1 and
// synopsis i row i+2.
const (
	synBot = -2 // ⊥: all-rejecting sink
	synTop = -1 // ⊤: every continuation of the branch accepts
)

// DefaultSynopsisMaxCells caps the synopsis table's transition cells:
// rows × (k opening columns + k closing columns, or one under the term
// encoding), for k labels — 2 MiB of rows at the cap. The state count is
// bounded by the depth of the SCC DAG, but it grows with the alphabet at
// each level: `'t000'.*'t001'` over k labels has k+5 states, so its cells
// grow with k², and `....*` over 200 labels has 40,203 (EXPERIMENTS.md).
// The build checks the cap before each row, counting every state found so
// far, so a table past it fails early with ErrSynopsisTooLarge, and a
// query's ladder takes its stackless rung, which Theorem 3.1 admits for
// every E-flat and every A-flat language.
const DefaultSynopsisMaxCells = 1 << 18

// ErrSynopsisTooLarge reports that the synopsis table would exceed
// DefaultSynopsisMaxCells.
var ErrSynopsisTooLarge = errors.New("core: synopsis table exceeds the cap")

// RegisterlessEL runs the synopsis table of L (SynopsisTable) through the
// EL wrapper of Theorem 3.1's proof. Fails unless L is E-flat
// (Definition 3.9), per Theorem 3.2(1), and with ErrSynopsisTooLarge past
// the cap.
func RegisterlessEL(an *classify.Analysis) (Chunkable, error) { return synopsisEL(an, false) }

// BlindRegisterlessEL is the Appendix B variant for the term encoding.
// Fails unless L is blindly E-flat (Theorem B.1(1)).
func BlindRegisterlessEL(an *classify.Analysis) (Chunkable, error) { return synopsisEL(an, true) }

// RegisterlessAL runs the table of SynopsisALTable through the AL wrapper,
// which fails at the first leaf whose branch is in Lᶜ. Fails unless L is
// A-flat (Theorem 3.2(2)).
func RegisterlessAL(an *classify.Analysis) (Chunkable, error) { return synopsisAL(an, false) }

// BlindRegisterlessAL is the term-encoding counterpart (Theorem B.1(2)).
func BlindRegisterlessAL(an *classify.Analysis) (Chunkable, error) { return synopsisAL(an, true) }

func synopsisEL(an *classify.Analysis, blind bool) (Chunkable, error) {
	t, err := SynopsisTable(an, blind)
	if err != nil {
		return nil, err
	}
	return ELFromQL(t.Evaluator()), nil
}

func synopsisAL(an *classify.Analysis, blind bool) (Chunkable, error) {
	t, err := SynopsisALTable(an, blind)
	if err != nil {
		return nil, err
	}
	return ALFromQL(t.Evaluator()), nil
}

// SynopsisALTable is the table of a finite-automaton recognizer of AL via
// the duality (AL)ᶜ = E(Lᶜ): the synopsis table of Lᶜ with its acceptance
// flipped, so that it rejects the Open of a leaf whose branch is in Lᶜ.
// Fails unless L is (blindly, when blind) A-flat. The input analysis must
// be of L's minimal automaton.
func SynopsisALTable(an *classify.Analysis, blind bool) (*TagDFA, error) {
	class, flat := "A-flat", an.AFlat
	if blind {
		class, flat = "blindly A-flat", an.BlindAFlat
	}
	if ok, w := flat(); !ok {
		return nil, &classError{class, w}
	}
	t, err := SynopsisTable(classify.Analyze(an.D.Complement()), blind)
	if err != nil {
		return nil, fmt.Errorf("core: complement of an A-flat language: %w", err)
	}
	for q := range t.Accept {
		t.Accept[q] = !t.Accept[q]
	}
	return t, nil
}

// synopsisBuilder interns the synopsis states as the table build
// discovers them.
type synopsisBuilder struct {
	an     *classify.Analysis
	blind  bool
	index  map[string]int
	states []synopsis
}

func (b *synopsisBuilder) intern(s synopsis) int {
	k := s.key()
	if id, ok := b.index[k]; ok {
		return id
	}
	id := len(b.states)
	b.index[k] = id
	b.states = append(b.states, s)
	return id
}

// SynopsisTable compiles the Lemma 3.11 synopsis automaton of L — Appendix
// B's blind variant when blind — into a tag DFA, enumerating the synopsis
// states reachable from the initial one breadth-first over every opening
// and closing tag (rows as the sentinels' comment says). A state accepts,
// selecting the Open that entered it, in two cases: its last triple is
// (p, p) with p accepting, so a Close right after that Open ends a branch
// in L (the B′ leaf test); or it is ⊤, which openStep enters once every
// continuation of the branch accepts, so the first leaf below ends a
// branch in L. Through ELFromQL, a selected Open followed by a Close
// latches the verdict. Fails unless L is (blindly) E-flat and an is of
// L's minimal automaton, and with ErrSynopsisTooLarge once the states
// found so far would need more than DefaultSynopsisMaxCells cells.
func SynopsisTable(an *classify.Analysis, blind bool) (*TagDFA, error) {
	if !an.Minimal() {
		return nil, fmt.Errorf("core: registerless EL requires the minimal automaton")
	}
	class, flat := "E-flat", an.EFlat
	if blind {
		class, flat = "blindly E-flat", an.BlindEFlat
	}
	if ok, w := flat(); !ok {
		return nil, &classError{class, w}
	}
	b := &synopsisBuilder{an: an, blind: blind, index: map[string]int{}}
	start := synTop
	if r0 := an.D.Start; an.Rejective[r0] {
		start = b.intern(synopsis{triples: []synTriple{{r0, r0, r0}}})
	}
	k := an.D.Alphabet.Size()
	closeWidth := k
	if blind {
		closeWidth = 1
	}
	t := &TagDFA{id: lastTagDFAID.Add(1), Alphabet: an.D.Alphabet, Start: start - synBot}
	for id := synBot; id < len(b.states); id++ {
		if rows := len(b.states) - synBot; rows*(k+closeWidth) > DefaultSynopsisMaxCells {
			return nil, fmt.Errorf("%w: %d rows × %d columns pass %d cells",
				ErrSynopsisTooLarge, rows, k+closeWidth, DefaultSynopsisMaxCells)
		}
		open, cl := make([]int, k), make([]int, closeWidth)
		for a := range open {
			open[a] = b.next(id, a, b.openStep)
		}
		for a := range cl {
			cl[a] = b.next(id, a, b.closeStep)
		}
		acc := id == synTop
		if id >= 0 {
			last := b.states[id].last()
			acc = last.p == last.q && an.D.Accept[last.p]
		}
		t.Accept = append(t.Accept, acc)
		t.OpenT = append(t.OpenT, open)
		if blind {
			t.CloseAny = append(t.CloseAny, cl[0])
		} else {
			t.CloseT = append(t.CloseT, cl)
		}
	}
	return t, nil
}

// next is the table row that letter a moves state id to: the sinks absorb,
// and a synopsis moves by step (openStep or closeStep).
func (b *synopsisBuilder) next(id, a int, step func(synopsis, int) int) int {
	if id >= 0 {
		id = step(b.states[id], a)
	}
	return id - synBot
}

// openStep implements the opening-tag transitions of Lemma 3.11.
func (b *synopsisBuilder) openStep(s synopsis, a int) int {
	an := b.an
	last := s.last()
	next := an.D.Delta[last.p][a] // == Delta[last.q][a]: split states are almost equivalent
	if !an.Rejective[next] {
		return synTop
	}
	if an.Comp[next] == an.Comp[last.q] {
		return b.intern(s.replaceLast(synTriple{last.r, next, next}))
	}
	return b.intern(s.push(a, synTriple{next, next, next}))
}

// closeStep implements the closing-tag transitions: Cases A–D of
// Appendix A, or Cases A′–D′ of Appendix B when blind.
func (b *synopsisBuilder) closeStep(s synopsis, a int) int {
	an := b.an
	A := an.D
	ell := len(s.triples) - 1
	last := s.last()
	if !an.Internal[last.p] {
		return synBot
	}
	sameSCC := an.Comp[last.p] == an.Comp[last.q]
	x := an.Comp[last.q] // the SCC X containing qℓ (and rℓ)

	// succHits reports whether state cand steps into {pℓ, qℓ} on the
	// closing letter (markup) or on some letter (blind).
	succHits := func(cand int) bool {
		if b.blind {
			for aa := 0; aa < A.Alphabet.Size(); aa++ {
				t := A.Delta[cand][aa]
				if t == last.p || t == last.q {
					return true
				}
			}
			return false
		}
		t := A.Delta[cand][a]
		return t == last.p || t == last.q
	}

	if sameSCC {
		// P = {p ∈ X : p·a ∈ {pℓ,qℓ}} (blind: for some a).
		var pset []int
		for _, cand := range an.Comps[x] {
			if succHits(cand) {
				pset = append(pset, cand)
			}
		}
		caseB := ell > 0 &&
			(last.r == last.p || last.r == last.q) &&
			(b.blind || a == s.letters[ell-1]) &&
			an.Internal[s.triples[ell-1].p]
		if !caseB {
			// Case A / A′: backtrack within X only.
			if len(pset) == 0 {
				return synBot
			}
			pp, qq := minMax(pset)
			return b.intern(s.replaceLast(synTriple{last.r, pp, qq}))
		}
		// Case B / B′.
		if len(pset) == 0 {
			return b.intern(s.pop())
		}
		prev := s.triples[ell-1]
		if prev.p != prev.q {
			// Unreachable for runs satisfying the invariant (the proof
			// derives pℓ₋₁ = qℓ₋₁ when P is nonempty).
			return synBot
		}
		return b.intern(s.replaceLast(synTriple{last.r, prev.p, pset[0]}))
	}

	// pℓ outside X: Cases C/D (C′/D′). The synopsis invariant gives
	// ell > 0 and pℓ = pℓ₋₁ = qℓ₋₁ here.
	caseD := (last.r == last.p || last.r == last.q) &&
		(b.blind || (ell > 0 && a == s.letters[ell-1]))
	if caseD {
		// Case D / D′: the synopsis is unchanged.
		return b.intern(s)
	}
	// Case C / C′: does some internal p step to pℓ (on a / on some a1)?
	pExists := false
	for cand := 0; cand < A.NumStates() && !pExists; cand++ {
		if !an.Internal[cand] {
			continue
		}
		if b.blind {
			for aa := 0; aa < A.Alphabet.Size(); aa++ {
				if A.Delta[cand][aa] == last.p {
					pExists = true
					break
				}
			}
		} else if A.Delta[cand][a] == last.p {
			pExists = true
		}
	}
	if !pExists {
		// Behave as from σ with the last triple replaced by (rℓ,qℓ,qℓ):
		// that state falls into Case A.
		return b.closeStep(s.replaceLast(synTriple{last.r, last.q, last.q}), a)
	}
	// Otherwise q (∈ X stepping to qℓ) cannot exist: behave as from σ with
	// the last split transition removed (falls into Case A or B).
	return b.closeStep(s.pop(), a)
}

func minMax(xs []int) (lo, hi int) {
	lo, hi = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
