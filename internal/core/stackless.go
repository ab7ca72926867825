package core

import (
	"fmt"
	"math"

	"stackless/internal/alphabet"
	"stackless/internal/classify"
	"stackless/internal/encoding"
	"stackless/internal/obs"
)

// Lemma 3.8: a depth-register automaton realizing QL when L is
// hierarchically almost-reversible, and the Theorem B.2 blind variant for
// the term encoding.
//
// The machine keeps one register per strongly connected component on the
// current chain of the SCC DAG, storing the depth at which the simulated
// run entered the next component, together with a candidate state of the
// abandoned component that meets (inside it) the true state the simulated
// automaton would have to be reverted to. Backtracking inside the current
// component uses the precomputed back tables (the "minimal p′" choice that
// keeps the machine deterministic).

// StacklessQL compiles the Lemma 3.8 evaluator. Fails unless the language
// is HAR (Definition 3.6), per Theorem 3.1.
func StacklessQL(an *classify.Analysis) (*StacklessEvaluator, error) {
	if !an.Minimal() {
		return nil, fmt.Errorf("core: StacklessQL requires the minimal automaton (use classify.Analyze)")
	}
	if ok, w := an.HAR(); !ok {
		return nil, &classError{"hierarchically almost-reversible", w}
	}
	return newStackless(an, false), nil
}

// BlindStacklessQL compiles the Theorem B.2 evaluator for the term
// encoding. Fails unless the language is blindly HAR.
func BlindStacklessQL(an *classify.Analysis) (*StacklessEvaluator, error) {
	if !an.Minimal() {
		return nil, fmt.Errorf("core: BlindStacklessQL requires the minimal automaton")
	}
	if ok, w := an.BlindHAR(); !ok {
		return nil, &classError{"blindly hierarchically almost-reversible", w}
	}
	return newStackless(an, true), nil
}

// StacklessEvaluator is the compiled depth-register machine of Lemma 3.8.
// Its register usage is bounded by the depth of the SCC DAG of the minimal
// automaton — a constant of the query, independent of the document.
type StacklessEvaluator struct {
	an    *classify.Analysis
	blind bool
	// back[sym][p] (markup): minimal p' in p's component Y with p'·sym ∈ Y
	// and p'·sym almost equivalent to p; -1 if none.
	back [][]int
	// backAny[p] (term): minimal p' in Y with p'·a ∈ Y and p'·a almost
	// equivalent to p for some letter a; -1 if none.
	backAny []int

	// Compiled tables for the coded pipeline (DESIGN.md §11), built once at
	// construction and shared across forks. cDelta is the transition table
	// flattened to n rows of k+1 columns (column k, the unknown sentinel,
	// holds -1: poison). cBack flattens back the same way — (k+1)×n with an
	// all -1 unknown row, which doubles as the no-predecessor poison, exactly
	// the two cases the string path folds together. cComp mirrors an.Comp.
	// cSel fuses everything the per-event batch loop needs into one n×2(k+1)
	// table indexed by state and column sym<<1|kind, exactly the tag DFA's
	// layout: open columns hold the delta target with selPushBit (the move
	// leaves the source SCC: push a record) and selAccBit (the target
	// accepts) fused in; close columns hold the in-component backtrack
	// candidate (backAny for blind machines — every close column, unknown
	// included, since they never consult the label). Poison entries are -1,
	// covering unknown opens, unknown closes on markup machines, and
	// missing backtrack predecessors in one sign test.
	cDelta   []int32
	cSel     []int32
	selW     int     // cSel's row stride 2(k+1), stored so the kernels divide nothing
	cBack    []int32 // markup machines; nil when blind
	cBackAny []int32 // term machines; nil otherwise
	cComp    []int32
	// cDec are the earliest-decision flags (DESIGN.md §14): cDec[p] = 1 iff
	// no accepting delta target is reachable from p over delta moves and
	// backtrack-candidate moves. The candidate edges over-approximate what a
	// real close can do to the candidate state (a pop restores a *recorded*
	// state instead, which NoFutureMatches checks separately), so a set flag
	// is sound for every well-formed continuation.
	cDec []int32

	res alphabet.Resolver

	// Runtime configuration.
	state    int // candidate state p (equals the true state after opens)
	depth    int
	records  []record // register file: one per abandoned SCC on the chain
	poisoned bool

	// Machine-level metrics. Loads and comparisons are counted with plain
	// field increments (no atomics, no branches in Step) and flushed to the
	// collector once per run by flushObs; the register-count histogram is
	// sampled behind a nil check inside the already-cold SCC-change branch.
	// Keeping obs after the runtime fields preserves their offsets, which
	// the uninstrumented Step is sensitive to.
	loads    int64
	compares int64
	obs      *obs.Collector
}

// SetObs implements Instrumented.
func (ev *StacklessEvaluator) SetObs(c *obs.Collector) { ev.obs = c }

// flushObs reports the machine-local counters into the attached collector
// and zeroes them. Called by SelectObs/RecognizeObs when the stream ends.
func (ev *StacklessEvaluator) flushObs() {
	if ev.obs != nil {
		ev.obs.RegisterLoads.Add(ev.loads)
		ev.obs.RegisterCompares.Add(ev.compares)
	}
	ev.loads, ev.compares = 0, 0
}

// record is one register of the machine: the depth at which the simulated
// run left component scc, and a candidate state inside it.
type record struct {
	depth int
	state int
}

// cSel entry layout: the target state in the low bits plus the two fused
// facts of the move. Poison entries are -1 (sign bit), so `< 0` still
// detects them before any mask.
const (
	selAccBit    = 1 << 29
	selPushBit   = 1 << 30
	selStateMask = selAccBit - 1
)

// noRecordDepth is the cached top-of-records depth when the register file
// is empty: smaller than any reachable depth, so the pop comparison falls
// through without a length check.
const noRecordDepth = math.MinInt

func newStackless(an *classify.Analysis, blind bool) *StacklessEvaluator {
	A := an.D
	n := A.NumStates()
	k := A.Alphabet.Size()
	ev := &StacklessEvaluator{an: an, blind: blind, res: alphabet.NewResolver(an.D.Alphabet)}
	if blind {
		ev.backAny = make([]int, n)
		for p := 0; p < n; p++ {
			ev.backAny[p] = -1
			comp := an.Comp[p]
		search:
			for cand := 0; cand < n; cand++ {
				if an.Comp[cand] != comp {
					continue
				}
				for a := 0; a < k; a++ {
					succ := A.Delta[cand][a]
					if an.Comp[succ] == comp && an.AlmostEquivalent(succ, p) {
						ev.backAny[p] = cand
						break search
					}
				}
			}
		}
	} else {
		ev.back = make([][]int, k)
		for a := 0; a < k; a++ {
			ev.back[a] = make([]int, n)
			for p := 0; p < n; p++ {
				ev.back[a][p] = -1
				comp := an.Comp[p]
				for cand := 0; cand < n; cand++ {
					if an.Comp[cand] != comp {
						continue
					}
					succ := A.Delta[cand][a]
					if an.Comp[succ] == comp && an.AlmostEquivalent(succ, p) {
						ev.back[a][p] = cand
						break
					}
				}
			}
		}
	}
	ev.compile()
	ev.Reset()
	compileHook(ev)
	return ev
}

// compile lowers the delta, component and back tables into the flat int32
// form the batched kernels index (see the cDelta/cBack field comments).
func (ev *StacklessEvaluator) compile() {
	A := ev.an.D
	n := A.NumStates()
	k := A.Alphabet.Size()
	ev.cDelta = make([]int32, n*(k+1))
	ev.cComp = make([]int32, n)
	for p := 0; p < n; p++ {
		row := ev.cDelta[p*(k+1) : p*(k+1)+k+1]
		for a := 0; a < k; a++ {
			row[a] = int32(A.Delta[p][a])
		}
		row[k] = -1
		ev.cComp[p] = int32(ev.an.Comp[p])
	}
	if ev.blind {
		ev.cBackAny = make([]int32, n)
		for p := 0; p < n; p++ {
			ev.cBackAny[p] = int32(ev.backAny[p])
		}
	} else {
		ev.cBack = make([]int32, (k+1)*n)
		for a := 0; a < k; a++ {
			for p := 0; p < n; p++ {
				ev.cBack[a*n+p] = int32(ev.back[a][p])
			}
		}
		for p := 0; p < n; p++ {
			ev.cBack[k*n+p] = -1
		}
	}
	w := 2 * (k + 1)
	ev.cSel, ev.selW = make([]int32, n*w), w
	for p := 0; p < n; p++ {
		sel := ev.cSel[p*w : (p+1)*w]
		for a := 0; a < k; a++ {
			next := A.Delta[p][a]
			s := int32(next)
			if ev.an.Comp[next] != ev.an.Comp[p] {
				s |= selPushBit
			}
			if A.Accept[next] {
				s |= selAccBit
			}
			sel[a<<1] = s
			if ev.blind {
				sel[a<<1|1] = int32(ev.backAny[p])
			} else {
				sel[a<<1|1] = int32(ev.back[a][p])
			}
		}
		sel[k<<1] = -1
		if ev.blind {
			sel[k<<1|1] = int32(ev.backAny[p])
		} else {
			sel[k<<1|1] = -1
		}
	}
	// Earliest flags: live[p] marks candidate states from which some
	// accepting state is still reachable by a path ending in an open move.
	// Base case: a delta target accepts. Fixpoint edges: delta moves (opens)
	// and backtrack-candidate moves (non-popping closes); pops are handled
	// per configuration by NoFutureMatches, which also checks every recorded
	// state.
	live := make([]bool, n)
	for p := 0; p < n; p++ {
		for a := 0; a < k; a++ {
			if A.Accept[A.Delta[p][a]] {
				live[p] = true
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for p := 0; p < n; p++ {
			if live[p] {
				continue
			}
			succLive := false
			for a := 0; a < k; a++ {
				if live[A.Delta[p][a]] {
					succLive = true
					break
				}
				if !ev.blind {
					if cand := ev.back[a][p]; cand >= 0 && live[cand] {
						succLive = true
						break
					}
				}
			}
			if !succLive && ev.blind {
				if cand := ev.backAny[p]; cand >= 0 && live[cand] {
					succLive = true
				}
			}
			if succLive {
				live[p] = true
				changed = true
			}
		}
	}
	ev.cDec = make([]int32, n)
	for p := 0; p < n; p++ {
		if !live[p] {
			ev.cDec[p] = 1
		}
	}
}

// NoFutureMatches implements EarliestDecider: a parked run never selects
// again, and an unparked one is decided when the current candidate state
// *and* every recorded state carry the decided flag — a future close may
// pop to any record, so each must itself be unable to reach an accepting
// open. The record file is bounded by the SCC-DAG depth of the query's
// automaton, so the scan is O(1) in the document.
func (ev *StacklessEvaluator) NoFutureMatches() bool {
	if ev.poisoned {
		return true
	}
	if q := uint(ev.state); q >= uint(len(ev.cDec)) || ev.cDec[q] == 0 {
		return false
	}
	for i := range ev.records {
		if q := uint(ev.records[i].state); q >= uint(len(ev.cDec)) || ev.cDec[q] == 0 {
			return false
		}
	}
	return true
}

// Registers returns the number of registers currently in use (for the
// memory accounting in the benchmarks).
func (ev *StacklessEvaluator) Registers() int { return len(ev.records) }

// MaxRegisters returns the compile-time bound on register usage: the depth
// of the SCC DAG of the minimal automaton.
func (ev *StacklessEvaluator) MaxRegisters() int { return ev.an.D.SCCDAGDepth() }

// Reset implements Evaluator.
func (ev *StacklessEvaluator) Reset() {
	ev.state = ev.an.D.Start
	ev.depth = 0
	ev.records = ev.records[:0]
	ev.poisoned = false
	ev.loads, ev.compares = 0, 0
}

// Step implements Evaluator.
func (ev *StacklessEvaluator) Step(e encoding.Event) {
	if ev.poisoned {
		return
	}
	A := ev.an.D
	if e.Kind == encoding.Open {
		sym, ok := ev.res.ID(e.Label)
		if !ok {
			ev.poisoned = true
			return
		}
		ev.depth++
		next := A.Delta[ev.state][sym]
		if ev.an.Comp[next] != ev.an.Comp[ev.state] {
			// Leaving the current component: remember it in a register.
			ev.records = append(ev.records, record{depth: ev.depth, state: ev.state})
			ev.loads++
			if ev.obs != nil {
				ev.obs.Registers.Observe(len(ev.records))
			}
		}
		ev.state = next
		return
	}
	// Closing tag.
	ev.depth--
	if n := len(ev.records); n > 0 {
		// One register/depth comparison against the top record.
		ev.compares++
		if ev.depth < ev.records[n-1].depth {
			// Climbed above the node where the last SCC change happened:
			// revert to the recorded candidate of the abandoned component.
			ev.state = ev.records[n-1].state
			ev.records = ev.records[:n-1]
			return
		}
	}
	// Backtrack inside the current component.
	var cand int
	if ev.blind {
		cand = ev.backAny[ev.state]
	} else {
		sym, ok := ev.res.ID(e.Label)
		if !ok {
			ev.poisoned = true
			return
		}
		cand = ev.back[sym][ev.state]
	}
	if cand < 0 {
		// No valid predecessor: the input is not a well-formed encoding the
		// invariant covers; the automaton may answer arbitrarily, so park.
		ev.poisoned = true
		return
	}
	ev.state = cand
}

// Accepting implements Evaluator. The value is guaranteed correct
// immediately after Open events (pre-selection); see Evaluator.
func (ev *StacklessEvaluator) Accepting() bool {
	return !ev.poisoned && ev.an.D.Accept[ev.state]
}

// CodeAlphabet implements BatchEvaluator.
func (ev *StacklessEvaluator) CodeAlphabet() *alphabet.Alphabet { return ev.an.D.Alphabet }

// StepBatch implements BatchEvaluator. The loop is the fused-table form of
// Step: depth moves first, the pop test runs unconditionally (record depths
// are strictly increasing, so `depth < top` is unreachable right after an
// open), and one cSel load then settles poison, push and target at once —
// no branch on the event kind or on blindness. Effects per event match
// Step's: a close pops its record before the label is consulted, so an
// unknown label at a popping close does not poison. The only divergence is
// the internal depth field after a poisoning *open* (incremented here,
// frozen in Step), which nothing can observe once the machine is parked.
// Loads and compares are batched in locals and stored back once per batch.
// Index guards follow the BCE shape of the plain kernels (uint conversion,
// guarded fallback to poison); the pop guard `nr >= 0` is unreachable when
// depth < topDepth (an empty record file pins topDepth at noRecordDepth)
// but lets the compiler drop the bounds check on recs[nr].
//
//treelint:partial the register-histogram hook (obs.Registers.Observe) rides in the cold push branch
func (ev *StacklessEvaluator) StepBatch(batch []encoding.CodedEvent) {
	if ev.poisoned {
		return
	}
	sel, w := ev.cSel, ev.selW
	o := ev.obs
	state, depth := ev.state, ev.depth
	recs := ev.records
	topDepth := noRecordDepth
	if len(recs) > 0 {
		topDepth = recs[len(recs)-1].depth
	}
	loads, compares := ev.loads, ev.compares
	for _, e := range batch {
		kind := int(e.Kind)
		depth += 1 - 2*kind
		if depth < topDepth {
			if nr := len(recs) - 1; nr >= 0 {
				state = recs[nr].state
				recs = recs[:nr]
				topDepth = noRecordDepth
				if nr > 0 {
					topDepth = recs[nr-1].depth
				}
			}
			compares++
			continue
		}
		compares += int64(kind & b2i(len(recs) != 0))
		t := int32(-1)
		if j := uint(state)*uint(w) + uint(int(e.Sym)<<1|kind); j < uint(len(sel)) {
			t = sel[j]
		}
		if t < 0 {
			ev.poisoned = true
			break
		}
		if t&selPushBit != 0 {
			recs = append(recs, record{depth: depth, state: state})
			topDepth = depth
			loads++
			if o != nil {
				o.Registers.Observe(len(recs))
			}
		}
		state = int(t & selStateMask)
	}
	ev.state, ev.depth, ev.records = state, depth, recs
	ev.loads, ev.compares = loads, compares
}

// SelectBatch implements BatchEvaluator: StepBatch plus the pre-selection
// acceptance check after each Open — free here, since the accept fact rides
// on the same cSel entry (close columns never carry it).
//
//treelint:partial the register-histogram hook (obs.Registers.Observe) rides in the cold push branch
func (ev *StacklessEvaluator) SelectBatch(batch []encoding.CodedEvent, hits []int32) []int32 {
	if ev.poisoned {
		return hits
	}
	sel, w := ev.cSel, ev.selW
	o := ev.obs
	state, depth := ev.state, ev.depth
	recs := ev.records
	topDepth := noRecordDepth
	if len(recs) > 0 {
		topDepth = recs[len(recs)-1].depth
	}
	loads, compares := ev.loads, ev.compares
	for i, e := range batch {
		kind := int(e.Kind)
		depth += 1 - 2*kind
		if depth < topDepth {
			if nr := len(recs) - 1; nr >= 0 {
				state = recs[nr].state
				recs = recs[:nr]
				topDepth = noRecordDepth
				if nr > 0 {
					topDepth = recs[nr-1].depth
				}
			}
			compares++
			continue
		}
		compares += int64(kind & b2i(len(recs) != 0))
		t := int32(-1)
		if j := uint(state)*uint(w) + uint(int(e.Sym)<<1|kind); j < uint(len(sel)) {
			t = sel[j]
		}
		if t < 0 {
			ev.poisoned = true
			break
		}
		if t&selPushBit != 0 {
			recs = append(recs, record{depth: depth, state: state})
			topDepth = depth
			loads++
			if o != nil {
				o.Registers.Observe(len(recs))
			}
		}
		state = int(t & selStateMask)
		if t&selAccBit != 0 {
			hits = append(hits, int32(i))
		}
	}
	ev.state, ev.depth, ev.records = state, depth, recs
	ev.loads, ev.compares = loads, compares
	return hits
}

// SimulateSegmentCoded implements CodedSegmentKernel: all control states
// advance in lockstep over a coded segment, each with its own record stack
// (pushes depend on the tracked state). Within a segment the depth never
// drops below the entry, so every pop involves a record pushed inside the
// segment and relative depths resolve every comparison. The unknown row of cBack reproduces Step's lazy close resolution —
// popping runs survive an unknown label, non-popping runs die — and an
// unknown open kills every run at once.
//
//treelint:partial flushes the segment-batched load/compare counters into obs at segment end
func (ev *StacklessEvaluator) SimulateSegmentCoded(seg []encoding.CodedEvent, cands *CandSet) []SegmentExit {
	n := len(ev.cComp)
	kw := len(ev.cDelta) / n
	acc := ev.an.D.Accept
	st := make([]int32, n)
	dead := make([]bool, n)
	recs := make([][]record, n)
	for i := range st {
		st[i] = int32(i)
	}
	var loads, compares int64
	var opens, depth int32
	live := n
	for idx := 0; idx < len(seg) && live > 0; idx++ {
		e := seg[idx]
		if e.Kind == encoding.Open {
			if int(e.Sym) >= kw-1 {
				live = 0
				break
			}
			sym := int(e.Sym)
			o := opens
			opens++
			depth++
			var mask []uint64
			for i := range st {
				if dead[i] {
					continue
				}
				s := int(st[i])
				next := ev.cDelta[s*kw+sym]
				if ev.cComp[next] != ev.cComp[s] {
					recs[i] = append(recs[i], record{depth: int(depth), state: s})
					loads++
				}
				st[i] = next
				if cands != nil && acc[next] {
					if mask == nil {
						mask = cands.Add(int32(idx), o, depth)
					}
					mask[i/64] |= 1 << uint(i%64)
				}
			}
			continue
		}
		depth--
		sym := int(e.Sym)
		for i := range st {
			if dead[i] {
				continue
			}
			if nr := len(recs[i]); nr > 0 {
				compares++
				if int(depth) < recs[i][nr-1].depth {
					st[i] = int32(recs[i][nr-1].state)
					recs[i] = recs[i][:nr-1]
					continue
				}
			}
			var cand int32
			if ev.blind {
				cand = ev.cBackAny[st[i]]
			} else {
				cand = ev.cBack[sym*n+int(st[i])]
			}
			if cand < 0 {
				dead[i] = true
				live--
				continue
			}
			st[i] = cand
		}
	}
	if ev.obs != nil {
		ev.obs.RegisterLoads.Add(loads)
		ev.obs.RegisterCompares.Add(compares)
	}
	exits := make([]SegmentExit, n)
	for i := range exits {
		if live == 0 || dead[i] {
			exits[i] = SegmentExit{State: -1}
			continue
		}
		var rc []record
		if len(recs[i]) > 0 {
			rc = make([]record, len(recs[i]))
			copy(rc, recs[i])
		}
		exits[i] = SegmentExit{State: int(st[i]), Regs: rc}
	}
	return exits
}
