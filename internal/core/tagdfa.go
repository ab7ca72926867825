package core

import (
	"sync"
	"sync/atomic"

	"stackless/internal/alphabet"
	"stackless/internal/encoding"
)

// TagDFA is a finite automaton over the tag alphabet: Γ ∪ Γ̄ under the
// markup encoding, or Γ ∪ {◁} under the term encoding. It is the output
// form of the registerless compilations (Lemmas 3.5 and 3.11 and their
// blind variants).
type TagDFA struct {
	Alphabet *alphabet.Alphabet
	Start    int
	Accept   []bool
	// OpenT[q][sym] is the successor on the opening tag of sym.
	OpenT [][]int
	// CloseT[q][sym] is the successor on the closing tag of sym (markup
	// encoding); nil for term-encoding automata.
	CloseT [][]int
	// CloseAny[q] is the successor on the universal closing tag ◁ (term
	// encoding); nil for markup-encoding automata.
	CloseAny []int

	// id is the automaton's process-unique identity (see ID).
	id uint64

	// Compiled form (DESIGN.md §11), built lazily on first batched use and
	// cached — the automaton must not be mutated after its first evaluator
	// runs a coded batch. ctab is a flat (n+1)×2(k+1) table: row q, column
	// (sym<<1 | kind) with sym in [0,k] (k = the unknown sentinel) and kind
	// Open=0/Close=1. Row n is the dead state — absorbing, never accepting —
	// which the unknown columns row into (term-encoding close columns instead
	// row into CloseAny for every sym: ◁ ignores the label). Stepping is one
	// table load per event, branch-free.
	compileOnce sync.Once
	hooked      atomic.Bool
	ctab        []int32
	cacc        []bool
	cstride     int32
	// cdec are the earliest-decision flags (DESIGN.md §14), one per row of
	// ctab including the dead row: cdec[q] = 1 iff no state with an
	// accepting open-column target is reachable from q over any sequence of
	// table moves — from such a state the run can never pre-select again,
	// whatever the suffix. Computed with ctab as a reachability fixpoint, so
	// the flags are exact for the compiled table (tablecheck recomputes and
	// diffs them).
	cdec []int32
}

// compiled returns the flat table, its acceptance vector (length n+1,
// dead = false), the row stride 2(k+1) and the dead state id n.
//
//treelint:partial lazy compile-once behind sync.Once; the steady state is a single atomic load per batch, with no lock and no allocation
func (t *TagDFA) compiled() (tab []int32, acc []bool, stride, dead int32) {
	t.compileOnce.Do(func() {
		n := t.NumStates()
		k := t.Alphabet.Size()
		w := int32(2 * (k + 1))
		ctab := make([]int32, (int32(n)+1)*w)
		cacc := make([]bool, n+1)
		d := int32(n)
		for q := 0; q <= n; q++ {
			row := ctab[int32(q)*w : int32(q)*w+w]
			for c := range row {
				row[c] = d
			}
			if q == n {
				continue
			}
			cacc[q] = t.Accept[q]
			for s := 0; s < k; s++ {
				row[s<<1] = int32(t.OpenT[q][s])
			}
			if t.CloseAny != nil {
				for s := 0; s <= k; s++ {
					row[s<<1|1] = int32(t.CloseAny[q])
				}
			} else {
				for s := 0; s < k; s++ {
					row[s<<1|1] = int32(t.CloseT[q][s])
				}
			}
		}
		// Earliest flags: live[q] marks states from which an accepting open
		// target is still reachable. The base case scans each row's open
		// columns (sym<<1, unknown included — it rows into dead, never
		// accepting); the fixpoint then closes under all table moves, open
		// and close alike. At most n+1 passes over the table, at build time
		// only.
		live := make([]bool, n+1)
		for q := 0; q <= n; q++ {
			row := ctab[int32(q)*w : int32(q)*w+w]
			for s := 0; s <= k; s++ {
				if a := row[s<<1]; a >= 0 && a <= d && cacc[a] {
					live[q] = true
					break
				}
			}
		}
		for changed := true; changed; {
			changed = false
			for q := 0; q <= n; q++ {
				if live[q] {
					continue
				}
				row := ctab[int32(q)*w : int32(q)*w+w]
				for _, succ := range row {
					if succ >= 0 && succ <= d && live[succ] {
						live[q] = true
						changed = true
						break
					}
				}
			}
		}
		cdec := make([]int32, n+1)
		for q := 0; q <= n; q++ {
			if !live[q] {
				cdec[q] = 1
			}
		}
		t.ctab, t.cacc, t.cstride, t.cdec = ctab, cacc, w, cdec
	})
	// The verification hook runs outside the build closure and behind a CAS
	// rather than a second Once: the hook itself reads the table through this
	// method, and a reentrant Once.Do would deadlock where the failed swap
	// just skips. When no hook is installed the cost is one global load.
	if CompileHook != nil && t.hooked.CompareAndSwap(false, true) {
		compileHook(t)
	}
	// The stride is the one the table was built with: growing the alphabet
	// after compilation must not change how the flat table is indexed (new
	// symbols resolve past the compiled columns and fall to the dead row via
	// the kernels' bounds guards).
	return t.ctab, t.cacc, t.cstride, int32(t.NumStates())
}

// NumStates returns the number of states.
func (t *TagDFA) NumStates() int { return len(t.OpenT) }

// lastTagDFAID is the last identity handed out by the constructors.
var lastTagDFAID atomic.Uint64

// ID returns the automaton's identity: unique in the process, fixed at
// construction, and never reused. Constructing the same automaton twice
// yields two ids; internal/product keys its product cache on member ids.
func (t *TagDFA) ID() uint64 { return t.id }

// NewTagDFA allocates a markup-encoding tag automaton with n states.
func NewTagDFA(alph *alphabet.Alphabet, n, start int) *TagDFA {
	t := &TagDFA{
		id:       lastTagDFAID.Add(1),
		Alphabet: alph,
		Start:    start,
		Accept:   make([]bool, n),
		OpenT:    make([][]int, n),
		CloseT:   make([][]int, n),
	}
	for i := 0; i < n; i++ {
		t.OpenT[i] = make([]int, alph.Size())
		t.CloseT[i] = make([]int, alph.Size())
	}
	return t
}

// NewTermTagDFA allocates a term-encoding tag automaton with n states.
func NewTermTagDFA(alph *alphabet.Alphabet, n, start int) *TagDFA {
	t := &TagDFA{
		id:       lastTagDFAID.Add(1),
		Alphabet: alph,
		Start:    start,
		Accept:   make([]bool, n),
		OpenT:    make([][]int, n),
		CloseAny: make([]int, n),
	}
	for i := 0; i < n; i++ {
		t.OpenT[i] = make([]int, alph.Size())
	}
	return t
}

// tagEvaluator runs a TagDFA over events. Labels outside the alphabet
// poison the run.
type tagEvaluator struct {
	t        *TagDFA
	res      alphabet.Resolver
	state    int
	poisoned bool
	// dec caches the automaton's compiled earliest flags after the first
	// NoFutureMatches call (forcing the lazy table build once), keeping the
	// per-event check a single slice load.
	dec []int32
}

// Evaluator returns a fresh streaming evaluator.
func (t *TagDFA) Evaluator() Chunkable {
	return &tagEvaluator{t: t, res: alphabet.NewResolver(t.Alphabet), state: t.Start}
}

func (ev *tagEvaluator) Reset() {
	ev.state = ev.t.Start
	ev.poisoned = false
}

func (ev *tagEvaluator) Step(e encoding.Event) {
	if ev.poisoned {
		return
	}
	if e.Kind == encoding.Close && ev.t.CloseAny != nil {
		ev.state = ev.t.CloseAny[ev.state]
		return
	}
	sym, ok := ev.res.ID(e.Label)
	if !ok {
		ev.poisoned = true
		return
	}
	if e.Kind == encoding.Open {
		ev.state = ev.t.OpenT[ev.state][sym]
	} else {
		ev.state = ev.t.CloseT[ev.state][sym]
	}
}

func (ev *tagEvaluator) Accepting() bool {
	return !ev.poisoned && ev.t.Accept[ev.state]
}

// NoFutureMatches implements EarliestDecider from the compiled earliest
// flags: a poisoned run is parked in the (never-accepting) dead row, and an
// unpoisoned one is decided exactly when its state's flag says no accepting
// open target remains reachable.
func (ev *tagEvaluator) NoFutureMatches() bool {
	if ev.poisoned {
		return true
	}
	if ev.dec == nil {
		ev.t.compiled()
		ev.dec = ev.t.cdec
	}
	if q := uint(ev.state); q < uint(len(ev.dec)) {
		return ev.dec[q] != 0
	}
	return false
}

// CodeAlphabet implements BatchEvaluator.
func (ev *tagEvaluator) CodeAlphabet() *alphabet.Alphabet { return ev.t.Alphabet }

// StepBatch implements BatchEvaluator: one table load per event, no
// branches. Poison is the dead row of the compiled table, entered through
// the unknown columns and mapped back to the poisoned flag afterwards (the
// frozen pre-poison state is unobservable either way: Accepting and the
// chunk methods check the flag first). The uint index guard is shaped for
// bounds-check elimination (cmd/bcegate holds this loop to zero compiler
// checks); on a table tablecheck proved well formed it never fails, and on
// a corrupted one it degrades to the dead state instead of panicking.
//
//treelint:plain
func (ev *tagEvaluator) StepBatch(batch []encoding.CodedEvent) {
	tab, _, stride, dead := ev.t.compiled()
	st := int32(ev.state)
	if ev.poisoned {
		st = dead
	}
	for _, e := range batch {
		if i := uint(st)*uint(stride) + uint(int32(e.Sym)<<1|int32(e.Kind)); i < uint(len(tab)) {
			st = tab[i]
		} else {
			st = dead
		}
	}
	if st == dead {
		ev.poisoned = true
	} else {
		ev.state = int(st)
	}
}

// SelectBatch implements BatchEvaluator. Index guards as in StepBatch.
//
//treelint:plain
func (ev *tagEvaluator) SelectBatch(batch []encoding.CodedEvent, hits []int32) []int32 {
	tab, acc, stride, dead := ev.t.compiled()
	st := int32(ev.state)
	if ev.poisoned {
		st = dead
	}
	for i, e := range batch {
		if j := uint(st)*uint(stride) + uint(int32(e.Sym)<<1|int32(e.Kind)); j < uint(len(tab)) {
			st = tab[j]
		} else {
			st = dead
		}
		if e.Kind == encoding.Open {
			if a := uint(st); a < uint(len(acc)) && acc[a] {
				hits = append(hits, int32(i))
			}
		}
	}
	if st == dead {
		ev.poisoned = true
	} else {
		ev.state = int(st)
	}
	return hits
}

// SimulateSegmentCoded implements CodedSegmentKernel: one pass moving all
// states in lockstep over a coded segment. Unknown labels drive every run
// into the dead row (never accepting), which the exit mapping reports as
// the poisoned exit -1 — as Step poisons the run from any state.
//
//treelint:plain
func (ev *tagEvaluator) SimulateSegmentCoded(seg []encoding.CodedEvent, cands *CandSet) []SegmentExit {
	tab, acc, stride, dead := ev.t.compiled()
	n := ev.t.NumStates()
	//treelint:partial per-segment all-states scratch, O(states) once per segment
	cur := make([]int32, n)
	for i := range cur {
		cur[i] = int32(i)
	}
	var opens, depth int32
	for idx := 0; idx < len(seg); idx++ {
		e := seg[idx]
		col := int32(e.Sym)<<1 | int32(e.Kind)
		if e.Kind == encoding.Close {
			depth--
			for i := range cur {
				next := dead
				if j := uint(cur[i])*uint(stride) + uint(col); j < uint(len(tab)) {
					next = tab[j]
				}
				cur[i] = next
			}
			continue
		}
		o := opens
		opens++
		depth++
		var mask []uint64
		for i := range cur {
			next := dead
			if j := uint(cur[i])*uint(stride) + uint(col); j < uint(len(tab)) {
				next = tab[j]
			}
			cur[i] = next
			if cands != nil {
				if a := uint(next); a < uint(len(acc)) && acc[a] {
					if mask == nil {
						mask = cands.Add(int32(idx), o, depth)
					}
					if w := uint(i) / 64; w < uint(len(mask)) {
						mask[w] |= 1 << (uint(i) % 64)
					}
				}
			}
		}
	}
	//treelint:partial per-segment exit vector, O(states) once per segment
	exits := make([]SegmentExit, n)
	for i := range exits {
		if cur[i] == dead {
			exits[i] = SegmentExit{State: -1}
		} else {
			exits[i] = SegmentExit{State: int(cur[i])}
		}
	}
	return exits
}
