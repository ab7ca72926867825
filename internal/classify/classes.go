package classify

// The four syntactic classes of Section 3 (Definitions 3.4, 3.6, 3.9) with
// constructive witnesses for the negative cases.

// FlatWitness certifies a violation of E-flatness or A-flatness
// (Definition 3.9). Following the proof of Lemma 3.12 it provides
//
//	i·S = P       (S nonempty, P internal)
//	P·U = Q·U2 = Q    with U2 a loop at Q
//	Q·X rejecting (E-flat) / accepting (A-flat)
//	T nonempty with exactly one of P·T, Q·T accepting
//
// In the synchronized (markup) case U2 == U; in the blind (term-encoding,
// Appendix B) case |U| == |U2| but the words may differ.
type FlatWitness struct {
	P, Q int
	S    []int
	U    []int // from P to Q
	U2   []int // loop at Q, same length as U in the blind case
	X    []int
	T    []int
}

// MeetWitness certifies a violation of (blind) almost-reversibility
// (Definition 3.4): internal states P and Q meet at R yet some nonempty T
// distinguishes them.
type MeetWitness struct {
	P, Q, R int
	SP, SQ  []int // nonempty words from the start state to P and to Q
	U       []int // P·U = R; synchronized case: also Q·U = R
	U2      []int // blind case: Q·U2 = R with |U2| == |U|; else equal to U
	T       []int // nonempty distinguishing word
}

// HARWitness certifies a violation of (blind) hierarchical
// almost-reversibility (Definition 3.6). It is exactly the gadget of
// Lemma 3.16 (Figure 5):
//
//	P, Q, R in one SCC,  i·S = R,  R·V = P,  R·W = Q,
//	P·U1 = R,  Q·U2 = R   (synchronized case: U1 == U2),
//	T nonempty with P·T accepting and Q·T rejecting,
//	LoopR a nonempty loop at R (for pumping/padding).
//
// All of S, V, W, U1, U2 are nonempty.
type HARWitness struct {
	P, Q, R int
	S       []int
	V, W    []int
	U1, U2  []int
	T       []int
	LoopR   []int
}

// EFlat decides E-flatness of the language (Definition 3.9). On failure it
// returns a witness. The verdict is decided once per Analysis; later calls
// return the same witness.
func (a *Analysis) EFlat() (bool, *FlatWitness) {
	return a.eFlat.get(func() (bool, *FlatWitness) { return a.flat(a.Rejective, false) })
}

// AFlat decides A-flatness of the language (Definition 3.9), once per
// Analysis.
func (a *Analysis) AFlat() (bool, *FlatWitness) {
	return a.aFlat.get(func() (bool, *FlatWitness) { return a.flat(a.Acceptive, true) })
}

// flat checks the common shape of Definition 3.9: polar marks rejective
// (goalAcc=false) or acceptive (goalAcc=true) states.
func (a *Analysis) flat(polar []bool, goalAcc bool) (bool, *FlatWitness) {
	n := a.D.NumStates()
	for p := 0; p < n; p++ {
		if !a.Internal[p] {
			continue
		}
		for q := 0; q < n; q++ {
			if p == q || !polar[q] || a.AlmostEquivalent(p, q) {
				continue
			}
			u, ok := a.MeetInWord(p, q, q)
			if !ok {
				continue
			}
			return false, a.flatWitness(p, q, u, u, goalAcc)
		}
	}
	return true, nil
}

// flatWitness assembles the words of a flatness violation; u is the word
// from p, u2 the loop at q (identical in the synchronized case).
func (a *Analysis) flatWitness(p, q int, u, u2 []int, goalAcc bool) *FlatWitness {
	s, ok := a.NonemptyWordFromTo(a.D.Start, p)
	if !ok {
		panic("classify: internal state unreachable by nonempty word")
	}
	x, ok := a.D.ShortestWordTo(q, func(s int) bool { return a.D.Accept[s] == goalAcc })
	if !ok {
		panic("classify: polar state lost its polarity")
	}
	t, ok := a.DistinguishingWord(p, q)
	if !ok {
		panic("classify: non-almost-equivalent states without distinguishing word")
	}
	return &FlatWitness{P: p, Q: q, S: s, U: u, U2: u2, X: x, T: t}
}

// AlmostReversible decides almost-reversibility (Definition 3.4).
func (a *Analysis) AlmostReversible() (bool, *MeetWitness) {
	n := a.D.NumStates()
	for p := 0; p < n; p++ {
		if !a.Internal[p] {
			continue
		}
		for q := p + 1; q < n; q++ {
			if !a.Internal[q] || a.AlmostEquivalent(p, q) {
				continue
			}
			u, ok := a.MeetWord(p, q, nil)
			if !ok {
				continue
			}
			return false, a.meetWitness(p, q, u, u)
		}
	}
	return true, nil
}

func (a *Analysis) meetWitness(p, q int, u, u2 []int) *MeetWitness {
	sp, _ := a.NonemptyWordFromTo(a.D.Start, p)
	sq, _ := a.NonemptyWordFromTo(a.D.Start, q)
	t, ok := a.DistinguishingWord(p, q)
	if !ok {
		panic("classify: non-almost-equivalent states without distinguishing word")
	}
	r := a.D.StepWord(p, u)
	return &MeetWitness{P: p, Q: q, R: r, SP: sp, SQ: sq, U: u, U2: u2, T: t}
}

// HAR decides hierarchical almost-reversibility (Definition 3.6).
func (a *Analysis) HAR() (bool, *HARWitness) {
	for _, members := range a.Comps {
		if len(members) < 2 {
			continue
		}
		cid := a.Comp[members[0]]
		inX := func(s int) bool { return a.Comp[s] == cid }
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				p, q := members[i], members[j]
				if a.AlmostEquivalent(p, q) {
					continue
				}
				u, ok := a.MeetWord(p, q, inX)
				if !ok {
					continue
				}
				w := a.harWitness(p, q, u, u)
				return false, w
			}
		}
	}
	return true, nil
}

// harWitness assembles the Lemma 3.16 gadget for states p, q meeting at
// p·u1 (= q·u2) inside their common SCC, orienting the pair so that P·T is
// accepting.
func (a *Analysis) harWitness(p, q int, u1, u2 []int) *HARWitness {
	r := a.D.StepWord(p, u1)
	t, ok := a.DistinguishingWord(p, q)
	if !ok {
		panic("classify: non-almost-equivalent states without distinguishing word")
	}
	if !a.D.Accept[a.D.StepWord(p, t)] {
		p, q = q, p
		u1, u2 = u2, u1
	}
	s, ok := a.WordFromTo(a.D.Start, r)
	if !ok {
		panic("classify: state unreachable in trimmed automaton")
	}
	loopR, ok := a.LoopWord(r)
	if !ok {
		panic("classify: no loop at a state of a nontrivial SCC")
	}
	if len(s) == 0 {
		s = loopR
	}
	v, ok := a.NonemptyWordFromTo(r, p)
	if !ok {
		panic("classify: SCC member unreachable from meeting state")
	}
	w, ok := a.NonemptyWordFromTo(r, q)
	if !ok {
		panic("classify: SCC member unreachable from meeting state")
	}
	return &HARWitness{P: p, Q: q, R: r, S: s, V: v, W: w, U1: u1, U2: u2, T: t, LoopR: loopR}
}
