package classify

// Blind variants of the syntactic classes (Appendix B): "meet" is replaced
// by "blindly meet" — the two runs use independent words of equal length.
// These characterize processing under the term (JSON-style) encoding,
// where closing tags do not reveal the label (Theorems B.1 and B.2).

// BlindEFlat decides blind E-flatness, once per Analysis.
func (a *Analysis) BlindEFlat() (bool, *FlatWitness) {
	return a.blindEFlat.get(func() (bool, *FlatWitness) { return a.blindFlat(a.Rejective, false) })
}

// BlindAFlat decides blind A-flatness, once per Analysis.
func (a *Analysis) BlindAFlat() (bool, *FlatWitness) {
	return a.blindAFlat.get(func() (bool, *FlatWitness) { return a.blindFlat(a.Acceptive, true) })
}

func (a *Analysis) blindFlat(polar []bool, goalAcc bool) (bool, *FlatWitness) {
	n := a.D.NumStates()
	for p := 0; p < n; p++ {
		if !a.Internal[p] {
			continue
		}
		for q := 0; q < n; q++ {
			if p == q || !polar[q] || a.AlmostEquivalent(p, q) {
				continue
			}
			u1, u2, ok := a.BlindMeetInWords(p, q, q)
			if !ok {
				continue
			}
			return false, a.flatWitness(p, q, u1, u2, goalAcc)
		}
	}
	return true, nil
}

// BlindAlmostReversible decides blind almost-reversibility.
func (a *Analysis) BlindAlmostReversible() (bool, *MeetWitness) {
	n := a.D.NumStates()
	for p := 0; p < n; p++ {
		if !a.Internal[p] {
			continue
		}
		for q := p + 1; q < n; q++ {
			if !a.Internal[q] || a.AlmostEquivalent(p, q) {
				continue
			}
			u1, u2, ok := a.BlindMeetWords(p, q, nil)
			if !ok {
				continue
			}
			return false, a.meetWitness(p, q, u1, u2)
		}
	}
	return true, nil
}

// BlindHAR decides blind hierarchical almost-reversibility.
func (a *Analysis) BlindHAR() (bool, *HARWitness) {
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
				u1, u2, ok := a.BlindMeetWords(p, q, inX)
				if !ok {
					continue
				}
				return false, a.harWitness(p, q, u1, u2)
			}
		}
	}
	return true, nil
}
