package core

import (
	"fmt"

	"stackless/internal/alphabet"
	"stackless/internal/classify"
	"stackless/internal/encoding"
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
// by the depth of the SCC DAG, so the state space is finite; we build it
// lazily.
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

// Sentinel state ids of the simulating automaton.
const (
	synTop = -1 // ⊤: all-accepting sink — a branch in L has been detected
	synBot = -2 // ⊥: all-rejecting sink
)

// SynopsisMachine is the compiled Lemma 3.11 automaton. It implements
// Evaluator with EL acceptance (Accepting is meaningful at the end of the
// encoding).
type SynopsisMachine struct {
	an    *classify.Analysis
	blind bool

	// Lazily discovered states: id ≥ 0 indexes states; synTop/synBot are
	// virtual.
	index     map[string]int
	states    []synopsis
	openMemo  [][]int // [id][sym]
	closeMemo [][]int // [id][sym] (markup) or [id][0] (blind)

	res alphabet.Resolver

	// Runtime.
	cur         int // state id or synTop/synBot
	lastWasOpen bool
	poisoned    bool

	// startCur caches the interned initial state so Reset stays
	// allocation-free (the zero-overhead contract of DESIGN.md §9).
	startCur   int
	startKnown bool
}

// RegisterlessEL compiles the Lemma 3.11 synopsis automaton recognizing EL.
// Fails unless L is E-flat (Definition 3.9), per Theorem 3.2(1).
func RegisterlessEL(an *classify.Analysis) (*SynopsisMachine, error) {
	if !an.Minimal() {
		return nil, fmt.Errorf("core: RegisterlessEL requires the minimal automaton")
	}
	if ok, w := an.EFlat(); !ok {
		return nil, &classError{"E-flat", w}
	}
	return newSynopsis(an, false), nil
}

// BlindRegisterlessEL compiles the Appendix B variant for the term
// encoding. Fails unless L is blindly E-flat (Theorem B.1(1)).
func BlindRegisterlessEL(an *classify.Analysis) (*SynopsisMachine, error) {
	if !an.Minimal() {
		return nil, fmt.Errorf("core: BlindRegisterlessEL requires the minimal automaton")
	}
	if ok, w := an.BlindEFlat(); !ok {
		return nil, &classError{"blindly E-flat", w}
	}
	return newSynopsis(an, true), nil
}

func newSynopsis(an *classify.Analysis, blind bool) *SynopsisMachine {
	m := synopsisOver(an, blind)
	compileHook(m)
	return m
}

// synopsisOver returns a machine over an with an empty memo, without the
// class check or the compile hook: the runtime-instance path (see
// Instance) for an analysis a checked constructor already accepted.
func synopsisOver(an *classify.Analysis, blind bool) *SynopsisMachine {
	m := &SynopsisMachine{an: an, blind: blind, index: map[string]int{}, res: alphabet.NewResolver(an.D.Alphabet)}
	m.Reset()
	return m
}

// StatesDiscovered returns the number of synopsis states materialized so
// far (diagnostics; the reachable state space is finite).
func (m *SynopsisMachine) StatesDiscovered() int { return len(m.states) }

// Poisoned reports whether the run saw a label outside the alphabet.
func (m *SynopsisMachine) Poisoned() bool { return m.poisoned }

func (m *SynopsisMachine) intern(s synopsis) int {
	k := s.key()
	if id, ok := m.index[k]; ok {
		return id
	}
	id := len(m.states)
	m.index[k] = id
	m.states = append(m.states, s)
	kk := m.an.D.Alphabet.Size()
	if m.blind {
		kk = 1
	}
	m.openMemo = append(m.openMemo, unfilled(m.an.D.Alphabet.Size()))
	m.closeMemo = append(m.closeMemo, unfilled(kk))
	return id
}

func unfilled(n int) []int {
	row := make([]int, n)
	for i := range row {
		row[i] = -3 // not computed
	}
	return row
}

// Reset implements Evaluator.
func (m *SynopsisMachine) Reset() {
	if !m.startKnown {
		r0 := m.an.D.Start
		if m.an.Rejective[r0] {
			m.startCur = m.intern(synopsis{triples: []synTriple{{r0, r0, r0}}})
		} else {
			// Every continuation from r0 accepts: every tree is in EL.
			m.startCur = synTop
		}
		m.startKnown = true
	}
	m.cur = m.startCur
	m.lastWasOpen = false
	m.poisoned = false
}

// Step implements Evaluator.
func (m *SynopsisMachine) Step(e encoding.Event) {
	if m.poisoned || m.cur == synTop || m.cur == synBot {
		if e.Kind == encoding.Open {
			m.lastWasOpen = true
		} else {
			m.lastWasOpen = false
		}
		return
	}
	if e.Kind == encoding.Open {
		sym, ok := m.res.ID(e.Label)
		if !ok {
			m.poisoned = true
			return
		}
		if m.openMemo[m.cur][sym] == -3 {
			m.openMemo[m.cur][sym] = m.openStep(m.states[m.cur], sym)
		}
		m.cur = m.openMemo[m.cur][sym]
		m.lastWasOpen = true
		return
	}
	// Closing tag: the B′ enrichment first — a leaf whose branch is in L.
	st := m.states[m.cur].last()
	if m.lastWasOpen && st.p == st.q && m.an.D.Accept[st.p] {
		m.cur = synTop
		m.lastWasOpen = false
		return
	}
	m.lastWasOpen = false
	var sym int
	if m.blind {
		sym = 0
	} else {
		var ok bool
		sym, ok = m.res.ID(e.Label)
		if !ok {
			m.poisoned = true
			return
		}
	}
	if m.closeMemo[m.cur][sym] == -3 {
		m.closeMemo[m.cur][sym] = m.closeStep(m.states[m.cur], sym)
	}
	m.cur = m.closeMemo[m.cur][sym]
}

// Accepting implements Evaluator: EL membership at the end of the stream.
func (m *SynopsisMachine) Accepting() bool {
	return !m.poisoned && m.cur == synTop
}

// CodeAlphabet implements BatchEvaluator.
func (m *SynopsisMachine) CodeAlphabet() *alphabet.Alphabet { return m.an.D.Alphabet }

// stepCoded is Step over a coded event: the memo rows are indexed by the
// Sym directly, with the unknown sentinel (Sym ≥ alphabet size) poisoning
// exactly where the string path's resolver miss does — in particular the B′
// leaf check on closing tags still runs *before* the label is consulted,
// and blind machines never consult it at all.
func (m *SynopsisMachine) stepCoded(e encoding.CodedEvent) {
	if m.poisoned || m.cur == synTop || m.cur == synBot {
		m.lastWasOpen = e.Kind == encoding.Open
		return
	}
	k := alphabet.Sym(m.an.D.Alphabet.Size())
	if e.Kind == encoding.Open {
		if e.Sym >= k {
			m.poisoned = true
			return
		}
		if m.openMemo[m.cur][e.Sym] == -3 {
			m.openMemo[m.cur][e.Sym] = m.openStep(m.states[m.cur], int(e.Sym))
		}
		m.cur = m.openMemo[m.cur][e.Sym]
		m.lastWasOpen = true
		return
	}
	st := m.states[m.cur].last()
	if m.lastWasOpen && st.p == st.q && m.an.D.Accept[st.p] {
		m.cur = synTop
		m.lastWasOpen = false
		return
	}
	m.lastWasOpen = false
	sym := 0
	if !m.blind {
		if e.Sym >= k {
			m.poisoned = true
			return
		}
		sym = int(e.Sym)
	}
	if m.closeMemo[m.cur][sym] == -3 {
		m.closeMemo[m.cur][sym] = m.closeStep(m.states[m.cur], sym)
	}
	m.cur = m.closeMemo[m.cur][sym]
}

// StepBatch implements BatchEvaluator. The loop is stepCoded unrolled with
// the machine fields in locals; memo misses (which may intern new states and
// grow the backing slices) re-sync the hoisted slices before continuing.
//
//treelint:partial lazily-interned memo rows grow mid-batch, so the two-level indexing cannot be bounds-check-free
func (m *SynopsisMachine) StepBatch(batch []encoding.CodedEvent) {
	k := alphabet.Sym(m.an.D.Alphabet.Size())
	accD := m.an.D.Accept
	blind := m.blind
	states, openMemo, closeMemo := m.states, m.openMemo, m.closeMemo
	cur, lwo, poisoned := m.cur, m.lastWasOpen, m.poisoned
	for _, e := range batch {
		if poisoned || cur == synTop || cur == synBot {
			lwo = e.Kind == encoding.Open
			continue
		}
		if e.Kind == encoding.Open {
			if e.Sym >= k {
				poisoned = true
				continue
			}
			t := openMemo[cur][e.Sym]
			if t == -3 {
				t = m.openStep(states[cur], int(e.Sym))
				openMemo[cur][e.Sym] = t
				states, openMemo, closeMemo = m.states, m.openMemo, m.closeMemo
			}
			cur = t
			lwo = true
			continue
		}
		st := states[cur].last()
		if lwo && st.p == st.q && accD[st.p] {
			cur = synTop
			lwo = false
			continue
		}
		lwo = false
		sym := 0
		if !blind {
			if e.Sym >= k {
				poisoned = true
				continue
			}
			sym = int(e.Sym)
		}
		t := closeMemo[cur][sym]
		if t == -3 {
			t = m.closeStep(states[cur], sym)
			closeMemo[cur][sym] = t
			states, openMemo, closeMemo = m.states, m.openMemo, m.closeMemo
		}
		cur = t
	}
	m.cur, m.lastWasOpen, m.poisoned = cur, lwo, poisoned
}

// SelectBatch implements BatchEvaluator: the StepBatch loop with the ⊤
// check after each Open (a machine already in ⊤ keeps selecting every Open).
//
//treelint:partial lazily-interned memo rows grow mid-batch, so the two-level indexing cannot be bounds-check-free
func (m *SynopsisMachine) SelectBatch(batch []encoding.CodedEvent, hits []int32) []int32 {
	k := alphabet.Sym(m.an.D.Alphabet.Size())
	accD := m.an.D.Accept
	blind := m.blind
	states, openMemo, closeMemo := m.states, m.openMemo, m.closeMemo
	cur, lwo, poisoned := m.cur, m.lastWasOpen, m.poisoned
	for i, e := range batch {
		if poisoned || cur == synTop || cur == synBot {
			lwo = e.Kind == encoding.Open
			if lwo && cur == synTop && !poisoned {
				hits = append(hits, int32(i))
			}
			continue
		}
		if e.Kind == encoding.Open {
			if e.Sym >= k {
				poisoned = true
				continue
			}
			t := openMemo[cur][e.Sym]
			if t == -3 {
				t = m.openStep(states[cur], int(e.Sym))
				openMemo[cur][e.Sym] = t
				states, openMemo, closeMemo = m.states, m.openMemo, m.closeMemo
			}
			cur = t
			lwo = true
			if cur == synTop {
				hits = append(hits, int32(i))
			}
			continue
		}
		st := states[cur].last()
		if lwo && st.p == st.q && accD[st.p] {
			cur = synTop
			lwo = false
			continue
		}
		lwo = false
		sym := 0
		if !blind {
			if e.Sym >= k {
				poisoned = true
				continue
			}
			sym = int(e.Sym)
		}
		t := closeMemo[cur][sym]
		if t == -3 {
			t = m.closeStep(states[cur], sym)
			closeMemo[cur][sym] = t
			states, openMemo, closeMemo = m.states, m.openMemo, m.closeMemo
		}
		cur = t
	}
	m.cur, m.lastWasOpen, m.poisoned = cur, lwo, poisoned
	return hits
}

// openStep implements the opening-tag transitions of Lemma 3.11.
//
//treelint:partial state discovery: runs only on a transition-memo miss, and the reachable synopsis space is finite, so the steady state is pure table lookups
func (m *SynopsisMachine) openStep(s synopsis, a int) int {
	an := m.an
	last := s.last()
	next := an.D.Delta[last.p][a] // == Delta[last.q][a]: split states are almost equivalent
	if !an.Rejective[next] {
		return synTop
	}
	if an.Comp[next] == an.Comp[last.q] {
		return m.intern(s.replaceLast(synTriple{last.r, next, next}))
	}
	return m.intern(s.push(a, synTriple{next, next, next}))
}

// closeStep implements the closing-tag transitions: Cases A–D of
// Appendix A, or Cases A′–D′ of Appendix B when blind.
//
//treelint:partial state discovery: runs only on a transition-memo miss, and the reachable synopsis space is finite, so the steady state is pure table lookups
func (m *SynopsisMachine) closeStep(s synopsis, a int) int {
	an := m.an
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
		if m.blind {
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
			(m.blind || a == s.letters[ell-1]) &&
			an.Internal[s.triples[ell-1].p]
		if !caseB {
			// Case A / A′: backtrack within X only.
			if len(pset) == 0 {
				return synBot
			}
			pp, qq := minMax(pset)
			return m.intern(s.replaceLast(synTriple{last.r, pp, qq}))
		}
		// Case B / B′.
		if len(pset) == 0 {
			return m.intern(s.pop())
		}
		prev := s.triples[ell-1]
		if prev.p != prev.q {
			// Unreachable for runs satisfying the invariant (the proof
			// derives pℓ₋₁ = qℓ₋₁ when P is nonempty).
			return synBot
		}
		return m.intern(s.replaceLast(synTriple{last.r, prev.p, pset[0]}))
	}

	// pℓ outside X: Cases C/D (C′/D′). The synopsis invariant gives
	// ell > 0 and pℓ = pℓ₋₁ = qℓ₋₁ here.
	caseD := (last.r == last.p || last.r == last.q) &&
		(m.blind || (ell > 0 && a == s.letters[ell-1]))
	if caseD {
		// Case D / D′: the synopsis is unchanged.
		return m.intern(s)
	}
	// Case C / C′: does some internal p step to pℓ (on a / on some a1)?
	pExists := false
	for cand := 0; cand < A.NumStates() && !pExists; cand++ {
		if !an.Internal[cand] {
			continue
		}
		if m.blind {
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
		return m.closeStep(s.replaceLast(synTriple{last.r, last.q, last.q}), a)
	}
	// Otherwise q (∈ X stepping to qℓ) cannot exist: behave as from σ with
	// the last split transition removed (falls into Case A or B).
	return m.closeStep(s.pop(), a)
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

// negated wraps a SynopsisMachine built for Lᶜ into an AL(L) recognizer,
// using (AL)ᶜ = E(Lᶜ): accept iff the inner machine rejects and the run
// stayed inside the alphabet.
type negated struct{ inner *SynopsisMachine }

func (n *negated) Reset()                { n.inner.Reset() }
func (n *negated) Step(e encoding.Event) { n.inner.Step(e) }
func (n *negated) Accepting() bool {
	return !n.inner.Poisoned() && !n.inner.Accepting()
}

// CodeAlphabet implements BatchEvaluator (the complement machine keeps L's
// alphabet, so codes agree).
func (n *negated) CodeAlphabet() *alphabet.Alphabet { return n.inner.CodeAlphabet() }

// StepBatch implements BatchEvaluator.
//
//treelint:plain
func (n *negated) StepBatch(batch []encoding.CodedEvent) { n.inner.StepBatch(batch) }

// SelectBatch implements BatchEvaluator. Acceptance is the negation of the
// inner machine's, so the inner hit list is useless here; step one event at
// a time and test the wrapped predicate.
//
//treelint:plain
func (n *negated) SelectBatch(batch []encoding.CodedEvent, hits []int32) []int32 {
	for i, e := range batch {
		n.inner.stepCoded(e)
		if e.Kind == encoding.Open && n.Accepting() {
			hits = append(hits, int32(i))
		}
	}
	return hits
}

// RegisterlessAL compiles a finite-automaton recognizer of AL via the
// duality (AL)ᶜ = E(Lᶜ) (Theorem 3.2(2)). Fails unless L is A-flat.
// The input analysis must be of L's minimal automaton; the machine is built
// on the minimal automaton of Lᶜ.
func RegisterlessAL(an *classify.Analysis) (Evaluator, error) {
	if ok, w := an.AFlat(); !ok {
		return nil, &classError{"A-flat", w}
	}
	anc := classify.Analyze(an.D.Complement())
	inner, err := RegisterlessEL(anc)
	if err != nil {
		return nil, fmt.Errorf("core: A-flat language whose complement fails E-flat compilation: %w", err)
	}
	return &negated{inner: inner}, nil
}

// BlindRegisterlessAL is the term-encoding counterpart (Theorem B.1(2)).
func BlindRegisterlessAL(an *classify.Analysis) (Evaluator, error) {
	if ok, w := an.BlindAFlat(); !ok {
		return nil, &classError{"blindly A-flat", w}
	}
	anc := classify.Analyze(an.D.Complement())
	inner, err := BlindRegisterlessEL(anc)
	if err != nil {
		return nil, fmt.Errorf("core: blindly A-flat language whose complement fails blind E-flat compilation: %w", err)
	}
	return &negated{inner: inner}, nil
}
