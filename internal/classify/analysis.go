// Package classify implements the decision procedures underlying the
// paper's characterization theorems (Theorems 3.1, 3.2, B.1, B.2): given
// the minimal automaton of a regular language L, it decides membership in
// the syntactic classes
//
//	reversible, almost-reversible (Definition 3.4),
//	hierarchically almost-reversible / HAR (Definition 3.6),
//	E-flat and A-flat (Definition 3.9), R-trivial,
//
// and their blind variants (Appendix B) for the term encoding. Every
// negative answer comes with a constructive witness — the states and words
// used in the paper's inexpressibility proofs (Lemmas 3.12 and 3.16) — so
// that fooling trees can be generated mechanically.
package classify

import (
	"sync"

	"stackless/internal/dfa"
)

// Analysis caches the per-state facts of a minimal automaton that all the
// class checks share.
type Analysis struct {
	// D is the minimal automaton under analysis.
	D *dfa.DFA
	// Internal[q] reports whether q is reachable from the start state via a
	// nonempty word.
	Internal []bool
	// Acceptive[q]: some (possibly empty) word leads from q to acceptance.
	Acceptive []bool
	// Rejective[q]: some (possibly empty) word leads from q to rejection.
	Rejective []bool
	// Comp[q] is the id of q's strongly connected component; Comps lists
	// the members of each component.
	Comp  []int
	Comps [][]int
	// EqClass is the Myhill–Nerode class of each state (states p, q are
	// language-equivalent iff EqClass[p] == EqClass[q]); on a minimal
	// automaton EqClass is injective.
	EqClass []int

	// The flatness verdicts, each decided once: Report and every
	// registerless EL/AL construction ask for them, and a Query's machine
	// slots are built concurrently.
	eFlat, aFlat, blindEFlat, blindAFlat flatMemo
}

// flatMemo is one flatness verdict with its witness, computed on first use.
type flatMemo struct {
	once sync.Once
	ok   bool
	w    *FlatWitness
}

// get returns the verdict, running decide on the first call only.
func (m *flatMemo) get(decide func() (bool, *FlatWitness)) (bool, *FlatWitness) {
	m.once.Do(func() { m.ok, m.w = decide() })
	return m.ok, m.w
}

// Analyze minimizes d and computes the shared per-state facts. All class
// predicates are defined on the minimal automaton of the language
// (Definitions 3.4, 3.6, 3.9), so minimization here is part of the
// semantics, not an optimization — see Figure 6 for a language whose
// non-minimal automaton would give the wrong answer.
func Analyze(d *dfa.DFA) *Analysis {
	return AnalyzeAutomaton(dfa.Minimize(d))
}

// AnalyzeAutomaton computes the facts for d as a concrete automaton,
// without minimizing (unreachable states are still dropped). This is the
// automaton-level reading of the definitions, used e.g. to reproduce the
// Figure 6 observation that a specialized path DTD can be A-flat over the
// annotated alphabet while its (minimized) projection is not.
func AnalyzeAutomaton(d *dfa.DFA) *Analysis {
	m := d.Trim()
	n := m.NumStates()
	a := &Analysis{D: m}
	a.EqClass = dfa.MoorePartition(m)

	// Internal states: in a trimmed automaton, exactly the targets of
	// transitions (the start state is internal iff it has an incoming edge).
	a.Internal = make([]bool, n)
	for q := 0; q < n; q++ {
		for _, t := range m.Delta[q] {
			a.Internal[t] = true
		}
	}

	// Acceptive / rejective: backward closure from accepting / rejecting
	// states over reverse edges.
	a.Acceptive = backwardClosure(m, func(q int) bool { return m.Accept[q] })
	a.Rejective = backwardClosure(m, func(q int) bool { return !m.Accept[q] })

	a.Comp, a.Comps = m.SCCs()
	return a
}

func backwardClosure(m *dfa.DFA, seed func(int) bool) []bool {
	n := m.NumStates()
	rev := make([][]int, n)
	for q := 0; q < n; q++ {
		for _, t := range m.Delta[q] {
			rev[t] = append(rev[t], q)
		}
	}
	out := make([]bool, n)
	var stack []int
	for q := 0; q < n; q++ {
		if seed(q) {
			out[q] = true
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[q] {
			if !out[p] {
				out[p] = true
				stack = append(stack, p)
			}
		}
	}
	return out
}

// AlmostEquivalent reports whether states p and q are almost equivalent:
// no *nonempty* word distinguishes them, i.e. p·a and q·a are
// language-equivalent for every letter a (Lemma 3.3). On a minimal
// automaton this degenerates to p·a = q·a for every a.
func (a *Analysis) AlmostEquivalent(p, q int) bool {
	if p == q {
		return true
	}
	for s := range a.D.Delta[p] {
		if a.EqClass[a.D.Delta[p][s]] != a.EqClass[a.D.Delta[q][s]] {
			return false
		}
	}
	return true
}

// SameSCC reports whether p and q lie in the same strongly connected
// component.
func (a *Analysis) SameSCC(p, q int) bool { return a.Comp[p] == a.Comp[q] }

// Reversible reports whether every letter induces an injective function on
// states — the classical reversibility notion of Section 3.1 (Figure 2).
func (a *Analysis) Reversible() bool {
	n := a.D.NumStates()
	for s := 0; s < a.D.Alphabet.Size(); s++ {
		seen := make([]bool, n)
		for q := 0; q < n; q++ {
			t := a.D.Delta[q][s]
			if seen[t] {
				return false
			}
			seen[t] = true
		}
	}
	return true
}

// RTrivial reports whether every SCC of the minimal automaton is a
// singleton without a self-reentering cycle through other states — the
// automaton-theoretic condition for R-trivial languages used in
// Section 3.2. (Self loops are allowed: a singleton SCC with a self loop
// still never revisits a state it has left via another state.)
func (a *Analysis) RTrivial() bool {
	for _, members := range a.Comps {
		if len(members) > 1 {
			return false
		}
	}
	return true
}

// Minimal reports whether the analyzed automaton is minimal (no two
// distinct states language-equivalent). The evaluator compilers in
// internal/core require minimal automata.
func (a *Analysis) Minimal() bool {
	seen := make(map[int]bool, len(a.EqClass))
	for _, c := range a.EqClass {
		if seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}

// FullyRecursiveShaped reports whether the automaton has the structure
// Section 4.1 attributes to fully-recursive DTDs: at most two non-trivial
// strongly connected components — one containing the start state, the
// other an all-rejecting absorbing sink. For languages of this shape
// Segoufin and Vianu's first condition is sufficient; in our terms, HAR
// coincides with A-flatness (see the property test).
func (a *Analysis) FullyRecursiveShaped() bool {
	for _, members := range a.Comps {
		if !a.D.NonTrivialSCC(members) {
			continue
		}
		cid := a.Comp[members[0]]
		if cid == a.Comp[a.D.Start] {
			continue
		}
		// Must be an all-rejecting absorbing component.
		for _, q := range members {
			if a.Acceptive[q] {
				return false
			}
			for _, t := range a.D.Delta[q] {
				if a.Comp[t] != cid {
					return false
				}
			}
		}
	}
	return true
}
