package core

import (
	"math/bits"
	"sort"
	"sync"

	"stackless/internal/alphabet"
	"stackless/internal/encoding"
	"stackless/internal/obs"
)

// Chunk-parallel evaluation support (consumed by internal/parallel).
//
// Theorem 3.1's point is that a stackless machine's whole configuration is
// a bounded control state plus registers that store depths and are only
// ever compared with the current depth. A chunk of the tag-event stream can
// therefore be simulated from *every* control state at once, with depths
// tracked relative to the chunk entry, and the per-state summaries composed
// left to right afterwards to recover the exact sequential run. The one
// obstacle is a register loaded *before* the chunk: its absolute value is
// unknown while the chunk is simulated, so comparisons against it cannot be
// resolved locally. Each machine class pins down exactly where such
// comparisons can fire (its CutPolicy); the events at those positions —
// always a small fringe of the chunk in non-adversarial documents — are
// replayed sequentially at join time on the real configuration, and
// everything between them is summarized in parallel.
//
// The stack-based fallback evaluator (internal/stackeval) has no bounded
// summary for arbitrary chunks — its configuration is the Θ(depth) stack
// itself, and that composability is precisely what Theorem 3.1 buys for
// the stackless machines. It is nevertheless Chunkable, speculatively:
// under the new-minimum boundary discipline every close inside a segment
// pops a frame pushed inside the same segment, so a segment summarizes as
// an exit state plus the surviving frame words per entry state — bounded,
// composable, but O(states) per event to simulate. CutBoundedDepth tags
// this mode so the engine can gate it on the stream's depth being small
// against the chunk size (parallel.SpeculationViable) and degrade to the
// sequential coded run otherwise. See DESIGN.md §8 and §16.

// CutPolicy says where a chunk must be cut into segments so that every
// register/depth comparison inside a segment is locally resolvable.
type CutPolicy int

const (
	// CutNone: registerless machines. The whole chunk is one segment.
	CutNone CutPolicy = iota
	// CutNewMin: the Lemma 3.8 record discipline. Registers hold strictly
	// increasing depths at most the entry depth, and the only unresolvable
	// comparisons are at closing tags that take the depth to a new minimum
	// below the chunk entry (at most entry-depth many per chunk).
	CutNewMin
	// CutBelowEntry: restricted DRAs (Section 2.2). Registers are always at
	// most the current depth, so comparisons at any event landing at or
	// below the segment-entry depth may involve an entry register; all
	// events strictly above it are locally resolvable.
	CutBelowEntry
	// CutAll: unrestricted DRAs. Registers may exceed the current depth, so
	// no comparison is locally resolvable; every event is replayed at join
	// time and chunking degrades to the sequential run (Example 2.2 stores
	// an absolute depth across arbitrary climbs — its language is not even
	// regular, and no composable bounded summary exists).
	CutAll
	// CutBoundedDepth: the pushdown fallback's speculative mode. Boundaries
	// are the CutNewMin rule (closes reaching a new minimum), which
	// guarantees every in-segment close pops an in-segment frame — so the
	// Θ(depth) stack summarizes per entry state as exit state plus
	// surviving frames. Simulation costs O(states) per event, so the
	// engine additionally gates chunking on depth ≪ chunk size and
	// otherwise degrades to the sequential run, as CutAll always does.
	CutBoundedDepth
)

// String names the policy as it appears in stats and obs snapshots (kept in
// sync with internal/obs key names).
func (p CutPolicy) String() string {
	switch p {
	case CutNone:
		return "none"
	case CutNewMin:
		return "newmin"
	case CutBelowEntry:
		return "belowentry"
	case CutAll:
		return "all"
	case CutBoundedDepth:
		return "boundeddepth"
	}
	return "unknown"
}

// SegmentExit is the outcome of simulating one segment from one control
// state: the exit control state (-1 when the run poisoned itself) and an
// implementation-specific register payload with depths relative to the
// segment entry.
type SegmentExit struct {
	State int
	Regs  any
}

// Chunkable is implemented by evaluators whose configuration is a bounded
// control state plus depth-comparable registers, enabling chunk-parallel
// simulation. The map side (BeginSegment / Step / EndSegment) runs on a
// Fork with depths relative to the segment entry; the join side
// (JoinState / ApplySegment / Step) runs on a single machine holding the
// true absolute configuration. Every chunkable machine also steps coded
// batches, so a run that does not fan out takes the compiled pipeline.
type Chunkable interface {
	BatchEvaluator
	// ChunkStates is the number of control states to enumerate.
	ChunkStates() int
	// Cut reports where chunks must be cut for this machine.
	Cut() CutPolicy
	// Fork returns an independent machine sharing the compiled tables; the
	// fork is safe to use concurrently with the parent and other forks.
	Fork() Chunkable
	// BeginSegment places the machine in control state q at relative depth
	// 0 with a neutral register file.
	BeginSegment(q int)
	// EndSegment reports the configuration reached since BeginSegment.
	EndSegment() SegmentExit
	// JoinState is the current control state, -1 when poisoned.
	JoinState() int
	// ApplySegment advances the absolute configuration by a summarized
	// segment: exit control state, registers shifted by the current depth,
	// and the segment's net depth change.
	ApplySegment(x SegmentExit, delta int)
}

// ChunkCand is a potential match inside a segment: the event index within
// the segment, the number of Open events before it in the segment, and its
// depth relative to the segment entry. Which entry states actually select
// it is the corresponding mask in a CandSet.
type ChunkCand struct {
	Idx, Opens, Depth int32
}

// CandSet collects match candidates for one segment, with one bitmask of
// entry control states per candidate (stride Words, flat in Masks).
type CandSet struct {
	Words int
	Cands []ChunkCand
	Masks []uint64
}

// NewCandSet returns an empty candidate set for machines with the given
// number of control states.
func NewCandSet(states int) *CandSet {
	return &CandSet{Words: (states + 63) / 64}
}

// Add appends a candidate with an all-zero mask and returns the mask slice
// for the caller to fill. The final slice expression is guarded so the
// bounds check vanishes: Add inlines into the plain batch kernels, and an
// unchecked c.Masks[n:n+c.Words] would surface there as a compiler bounds
// check cmd/bcegate rejects.
//
//treelint:partial candidate growth is O(matches), not O(events), and amortizes across segments when the CandSet is reused
func (c *CandSet) Add(idx, opens, depth int32) []uint64 {
	c.Cands = append(c.Cands, ChunkCand{Idx: idx, Opens: opens, Depth: depth})
	n := len(c.Masks)
	for i := 0; i < c.Words; i++ {
		c.Masks = append(c.Masks, 0)
	}
	if m := c.Masks; uint(n) <= uint(len(m)) {
		return m[n:]
	}
	return nil
}

// Mask returns candidate i's mask slice.
func (c *CandSet) Mask(i int) []uint64 {
	return c.Masks[i*c.Words : (i+1)*c.Words]
}

// Has reports whether candidate i's mask contains entry state q.
func (c *CandSet) Has(i, q int) bool {
	return c.Masks[i*c.Words+q/64]&(1<<uint(q%64)) != 0
}

// sortByIdx restores document order after multi-pass collection.
func (c *CandSet) sortByIdx() {
	sort.Sort(candSorter{c})
}

type candSorter struct{ c *CandSet }

func (s candSorter) Len() int           { return len(s.c.Cands) }
func (s candSorter) Less(i, j int) bool { return s.c.Cands[i].Idx < s.c.Cands[j].Idx }
func (s candSorter) Swap(i, j int) {
	c := s.c
	c.Cands[i], c.Cands[j] = c.Cands[j], c.Cands[i]
	for w := 0; w < c.Words; w++ {
		c.Masks[i*c.Words+w], c.Masks[j*c.Words+w] = c.Masks[j*c.Words+w], c.Masks[i*c.Words+w]
	}
}

// SimulateSegmentGeneric is the interface-driven fallback: one pass per
// control state, stepping each event through Step. Correct for any
// Chunkable; used when the machine has no all-states kernel
// (CodedSegmentKernel): the EL/AL wrappers and the table DRAs.
//
//treelint:plain
func SimulateSegmentGeneric(m Chunkable, seg []encoding.Event, cands *CandSet) []SegmentExit {
	n := m.ChunkStates()
	//treelint:partial per-segment exit vector, O(states) once per segment
	exits := make([]SegmentExit, n)
	var slots map[int32]int
	if cands != nil {
		//treelint:partial per-segment candidate-dedup map, O(matches) once per segment
		slots = make(map[int32]int)
	}
	for q := 0; q < n; q++ {
		m.BeginSegment(q)
		var opens, depth int32
		for idx, e := range seg {
			m.Step(e)
			if e.Kind != encoding.Open {
				depth--
				continue
			}
			depth++
			if cands != nil && m.Accepting() {
				slot, ok := slots[int32(idx)]
				if !ok {
					slot = len(cands.Cands)
					cands.Add(int32(idx), opens, depth)
					//treelint:partial candidate-dedup write, O(matches) not O(events)
					slots[int32(idx)] = slot
				}
				cands.Mask(slot)[q/64] |= 1 << uint(q%64)
			}
			opens++
		}
		exits[q] = m.EndSegment()
	}
	if cands != nil {
		cands.sortByIdx()
	}
	return exits
}

// --- TagDFA (registerless: Lemmas 3.5/3.11 output form) ---

// ChunkStates implements Chunkable.
func (ev *tagEvaluator) ChunkStates() int { return ev.t.NumStates() }

// Cut implements Chunkable: no registers, no cuts.
func (ev *tagEvaluator) Cut() CutPolicy { return CutNone }

// Fork implements Chunkable.
func (ev *tagEvaluator) Fork() Chunkable { return ev.t.Evaluator() }

// BeginSegment implements Chunkable.
func (ev *tagEvaluator) BeginSegment(q int) {
	ev.state = q
	ev.poisoned = false
}

// EndSegment implements Chunkable.
func (ev *tagEvaluator) EndSegment() SegmentExit {
	if ev.poisoned {
		return SegmentExit{State: -1}
	}
	return SegmentExit{State: ev.state}
}

// JoinState implements Chunkable.
func (ev *tagEvaluator) JoinState() int {
	if ev.poisoned {
		return -1
	}
	return ev.state
}

// ApplySegment implements Chunkable.
func (ev *tagEvaluator) ApplySegment(x SegmentExit, delta int) {
	if ev.poisoned {
		return
	}
	if x.State < 0 {
		ev.poisoned = true
		return
	}
	ev.state = x.State
}

// --- StacklessEvaluator (Lemma 3.8 / Theorem B.2 machines) ---

// ChunkStates implements Chunkable.
func (ev *StacklessEvaluator) ChunkStates() int { return ev.an.D.NumStates() }

// Cut implements Chunkable: the record discipline (strictly increasing
// depths, popped exactly when the depth drops below the top) means only
// new-minimum closing tags can consult an entry register.
func (ev *StacklessEvaluator) Cut() CutPolicy { return CutNewMin }

// Fork implements Chunkable. The compiled back tables and the analysis are
// immutable after construction; only the resolver cache and the runtime
// configuration are per-fork. The collector is shared: its fields are
// atomics, so concurrent forks report into it safely.
func (ev *StacklessEvaluator) Fork() Chunkable {
	f := &StacklessEvaluator{
		an:       ev.an,
		blind:    ev.blind,
		back:     ev.back,
		backAny:  ev.backAny,
		cDelta:   ev.cDelta,
		cSel:     ev.cSel,
		selW:     ev.selW,
		cBack:    ev.cBack,
		cBackAny: ev.cBackAny,
		cComp:    ev.cComp,
		cDec:     ev.cDec,
		res:      alphabet.NewResolver(ev.an.D.Alphabet),
		obs:      ev.obs,
	}
	f.Reset()
	return f
}

// BeginSegment implements Chunkable.
func (ev *StacklessEvaluator) BeginSegment(q int) {
	ev.state = q
	ev.depth = 0
	ev.records = ev.records[:0]
	ev.poisoned = false
}

// EndSegment implements Chunkable. Surviving records carry depths relative
// to the segment entry (all strictly positive, by the push discipline).
func (ev *StacklessEvaluator) EndSegment() SegmentExit {
	if ev.poisoned {
		return SegmentExit{State: -1}
	}
	var recs []record
	if len(ev.records) > 0 {
		recs = make([]record, len(ev.records))
		copy(recs, ev.records)
	}
	return SegmentExit{State: ev.state, Regs: recs}
}

// JoinState implements Chunkable.
func (ev *StacklessEvaluator) JoinState() int {
	if ev.poisoned {
		return -1
	}
	return ev.state
}

// ApplySegment implements Chunkable: surviving records are rebased onto the
// current absolute depth, preserving the strictly-increasing invariant.
func (ev *StacklessEvaluator) ApplySegment(x SegmentExit, delta int) {
	if ev.poisoned {
		return
	}
	if x.State < 0 {
		ev.poisoned = true
		return
	}
	if recs, ok := x.Regs.([]record); ok {
		for _, r := range recs {
			ev.records = append(ev.records, record{depth: ev.depth + r.depth, state: r.state})
		}
	}
	ev.state = x.State
	ev.depth += delta
}

// --- Table DRAs (Definition 2.1) ---

// draSegRegs is the register payload of a DRA segment exit: which registers
// still hold their (unknown) entry values, and the relative values of the
// registers loaded inside the segment.
type draSegRegs struct {
	stale RegSet
	vals  []int
}

// ChunkStates implements Chunkable.
func (ev *draEvaluator) ChunkStates() int { return ev.d.States }

// Cut implements Chunkable. Restricted DRAs (Section 2.2) keep every
// register at most the current depth, so only events landing at or below
// the segment-entry depth can consult an entry register; unrestricted DRAs
// may compare any event against a register above the current depth, so
// every event must be replayed at join time (CutAll).
func (ev *draEvaluator) Cut() CutPolicy {
	if !ev.cutKnown {
		if ev.d.IsRestricted() {
			ev.cut = CutBelowEntry
		} else {
			ev.cut = CutAll
		}
		ev.cutKnown = true
	}
	return ev.cut
}

// Fork implements Chunkable. The transition table and alphabet are
// immutable after construction; the collector is shared (atomics).
func (ev *draEvaluator) Fork() Chunkable {
	f := &draEvaluator{d: ev.d, cfg: ev.d.InitialConfig(), cut: ev.cut, cutKnown: ev.cutKnown, obs: ev.obs}
	return f
}

// BeginSegment implements Chunkable: state q at relative depth 0, with
// every register stale (holding its unknown entry value).
func (ev *draEvaluator) BeginSegment(q int) {
	ev.cfg.State = q
	ev.cfg.Depth = 0
	for i := range ev.cfg.Regs {
		ev.cfg.Regs[i] = 0
	}
	ev.stale = FullRegSet(ev.d.Regs)
	ev.seg = true
	ev.poisoned = false
}

// EndSegment implements Chunkable. Flushes the comparisons and loads the
// segment batched in the machine fields.
func (ev *draEvaluator) EndSegment() SegmentExit {
	ev.seg = false
	ev.flushObs()
	if ev.poisoned {
		return SegmentExit{State: -1}
	}
	vals := make([]int, len(ev.cfg.Regs))
	copy(vals, ev.cfg.Regs)
	return SegmentExit{State: ev.cfg.State, Regs: draSegRegs{stale: ev.stale, vals: vals}}
}

// JoinState implements Chunkable.
func (ev *draEvaluator) JoinState() int {
	if ev.poisoned {
		return -1
	}
	return ev.cfg.State
}

// ApplySegment implements Chunkable: registers loaded inside the segment
// are rebased onto the absolute entry depth; stale registers keep their
// current absolute values.
func (ev *draEvaluator) ApplySegment(x SegmentExit, delta int) {
	if ev.poisoned {
		return
	}
	if x.State < 0 {
		ev.poisoned = true
		return
	}
	if r, ok := x.Regs.(draSegRegs); ok {
		for i := range ev.cfg.Regs {
			if !r.stale.Has(i) {
				ev.cfg.Regs[i] = ev.cfg.Depth + r.vals[i]
			}
		}
	}
	ev.cfg.State = x.State
	ev.cfg.Depth += delta
}

// stepSeg is Step under segment simulation. Under CutBelowEntry every
// in-segment event has post-depth at least one above the segment entry,
// while a stale register of a restricted DRA holds a value at most the
// entry depth — so stale registers always test as strictly below the
// current depth (X≤ yes, X≥ no), and comparisons resolve without knowing
// the entry register values.
func (ev *draEvaluator) stepSeg(e encoding.Event) {
	d := ev.d
	sym, ok := d.Alphabet.ID(e.Label)
	if !ok {
		ev.poisoned = true
		return
	}
	closing := e.Kind == encoding.Close
	if closing {
		ev.cfg.Depth--
	} else {
		ev.cfg.Depth++
	}
	var le, ge RegSet
	for i := 0; i < d.Regs; i++ {
		if ev.stale.Has(i) {
			le = le.With(i)
			continue
		}
		if ev.cfg.Regs[i] <= ev.cfg.Depth {
			le = le.With(i)
		}
		if ev.cfg.Regs[i] >= ev.cfg.Depth {
			ge = ge.With(i)
		}
	}
	// Stale registers resolve without a comparison (forced masks). Counted
	// in the plain machine fields, flushed by EndSegment.
	ev.compares += int64(2 * (d.Regs - ev.stale.count()))
	tr := d.Transition(ev.cfg.State, sym, closing, le, ge)
	ev.cfg.State = tr.Next
	for i := 0; i < d.Regs; i++ {
		if tr.Load.Has(i) {
			ev.cfg.Regs[i] = ev.cfg.Depth
			ev.stale &^= 1 << uint(i)
			ev.loads++
		}
	}
}

// --- EL wrapper (Theorem 3.1 proof construction) ---

// innerWindow is the most events the EL/AL batch kernels step their inner
// machine over before they look for the decision. Step stops the inner
// machine at the deciding event; a batch kernel runs it at most this far
// past it, so a decided run does not pay for the rest of a 4096-event
// batch (nor grow the pushdown's stack through it). One window's events
// fit the bits of a uint64, which the AL kernel's leaf test uses.
const innerWindow = 64

// innerHits lends the EL/AL batch kernels a buffer for the inner machine's
// hits in one window. The drivers give StepBatch no buffer, and every run
// steps a fresh instance, so a buffer kept on the wrapper would be
// allocated per call.
var innerHits = sync.Pool{New: func() any {
	s := make([]int32, 0, innerWindow)
	return &s
}}

// chunkableEL turns a machine realizing QL into a recognizer of EL, per
// the proof of Theorem 3.1: move to an all-accepting sink when a closing
// tag immediately follows an opening tag read in an accepting state — i.e.
// when a selected leaf is detected. Control states: 0..n-1 (not matched,
// previous open not selected, inner state), n..2n-1 (not matched, previous
// open selected), 2n (matched — absorbing, inner frozen). A poisoned inner
// with matched unset collapses to -1: selection needs a live accepting
// inner, so a dead inner can never match later.
type chunkableEL struct {
	inner            Chunkable
	prevOpenSelected bool
	matched          bool
}

// ELFromQL wraps a QL machine into an EL recognizer (Theorem 3.1 proof).
// The wrapper steps coded batches and runs chunk-parallel as its inner
// machine does.
func ELFromQL(inner Chunkable) Chunkable { return &chunkableEL{inner: inner} }

func (w *chunkableEL) Reset() {
	w.inner.Reset()
	w.prevOpenSelected = false
	w.matched = false
}

func (w *chunkableEL) Step(e encoding.Event) {
	if w.matched {
		return
	}
	if e.Kind == encoding.Close && w.prevOpenSelected {
		w.matched = true
		return
	}
	w.inner.Step(e)
	w.prevOpenSelected = e.Kind == encoding.Open && w.inner.Accepting()
}

func (w *chunkableEL) Accepting() bool { return w.matched }

// CodeAlphabet implements BatchEvaluator: the wrapper reads the inner
// machine's codes.
func (w *chunkableEL) CodeAlphabet() *alphabet.Alphabet { return w.inner.CodeAlphabet() }

// StepBatch implements BatchEvaluator. After the match the wrapper ignores
// events, as Step does.
//
//treelint:plain
func (w *chunkableEL) StepBatch(batch []encoding.CodedEvent) {
	if !w.matched {
		w.stepWindows(batch)
	}
}

// SelectBatch implements BatchEvaluator. The wrapper accepts from the
// matching Close on, so its hits are the Opens after that Close.
//
//treelint:plain
func (w *chunkableEL) SelectBatch(batch []encoding.CodedEvent, hits []int32) []int32 {
	at := -1
	if !w.matched {
		if at = w.stepWindows(batch); at < 0 {
			return hits
		}
	}
	for i, e := range batch {
		if i > at && e.Kind == encoding.Open {
			hits = append(hits, int32(i))
		}
	}
	return hits
}

// stepWindows steps the inner machine over batch, innerWindow events at a
// time, and finds the first selected leaf: an inner hit, or the previous
// window's selected last Open, followed by a Close. It latches matched
// there and returns that Close's index, or -1 when the batch holds none; a
// hit at the last index carries into the next batch as prevOpenSelected.
//
//treelint:plain
func (w *chunkableEL) stepWindows(batch []encoding.CodedEvent) int {
	p := innerHits.Get().(*[]int32)
	hits := *p
	at := -1
	for off, rest := 0, batch; len(rest) > 0 && at < 0; off += innerWindow {
		n := len(rest)
		if n > innerWindow {
			n = innerWindow
		}
		win := rest[:n]
		rest = rest[n:]
		if w.prevOpenSelected && win[0].Kind == encoding.Close {
			w.matched = true
			at = off
			break
		}
		hits = w.inner.SelectBatch(win, hits[:0])
		w.prevOpenSelected = false
		for _, h := range hits {
			j := uint(h) + 1
			if j >= uint(len(win)) {
				w.prevOpenSelected = true
				break
			}
			if win[j].Kind == encoding.Close {
				w.matched = true
				at = off + int(j)
				break
			}
		}
	}
	*p = hits
	innerHits.Put(p)
	return at
}

// SetObs implements Instrumented by forwarding to the inner machine.
func (w *chunkableEL) SetObs(c *obs.Collector) { Instrument(w.inner, c) }

func (w *chunkableEL) flushObs() { flushEvObs(w.inner) }

// ChunkStates implements Chunkable.
func (w *chunkableEL) ChunkStates() int { return 2*w.inner.ChunkStates() + 1 }

// Cut implements Chunkable: the wrapper adds no registers; its bits are
// functions of the locally simulated inner run.
func (w *chunkableEL) Cut() CutPolicy { return w.inner.Cut() }

// Fork implements Chunkable.
func (w *chunkableEL) Fork() Chunkable { return &chunkableEL{inner: w.inner.Fork()} }

// BeginSegment implements Chunkable.
func (w *chunkableEL) BeginSegment(q int) {
	n := w.inner.ChunkStates()
	if q == 2*n {
		w.matched = true
		w.prevOpenSelected = false
		w.inner.BeginSegment(0)
		return
	}
	w.matched = false
	w.prevOpenSelected = q >= n
	w.inner.BeginSegment(q % n)
}

// EndSegment implements Chunkable.
func (w *chunkableEL) EndSegment() SegmentExit {
	n := w.inner.ChunkStates()
	if w.matched {
		return SegmentExit{State: 2 * n}
	}
	x := w.inner.EndSegment()
	if x.State < 0 {
		return SegmentExit{State: -1}
	}
	if w.prevOpenSelected {
		x.State += n
	}
	return x
}

// JoinState implements Chunkable.
func (w *chunkableEL) JoinState() int {
	n := w.inner.ChunkStates()
	if w.matched {
		return 2 * n
	}
	j := w.inner.JoinState()
	if j < 0 {
		return -1
	}
	if w.prevOpenSelected {
		j += n
	}
	return j
}

// ApplySegment implements Chunkable.
func (w *chunkableEL) ApplySegment(x SegmentExit, delta int) {
	if w.matched {
		return
	}
	n := w.inner.ChunkStates()
	if x.State == 2*n {
		w.matched = true
		return
	}
	if x.State < 0 {
		w.inner.ApplySegment(SegmentExit{State: -1}, delta)
		return
	}
	w.prevOpenSelected = x.State >= n
	w.inner.ApplySegment(SegmentExit{State: x.State % n, Regs: x.Regs}, delta)
}

// --- AL wrapper (Theorem 3.2(3) proof construction) ---

// chunkableAL is the dual construction from the proof of Theorem 3.2(3):
// move to an all-rejecting sink when a leaf is read in a rejecting state.
// Unlike EL, a dead inner must be an explicit control state: the inner can
// poison on the final closing tag with the previous open accepted, leaving
// the wrapper ACCEPTING — so collapsing inner-death to -1 would diverge
// from the sequential run. Control states: q = i*4 + (started |
// prevOpenRejected<<1) with inner index i in 0..n (i = n meaning the inner
// is dead), plus the absorbing failed state 4(n+1). JoinState never
// returns -1, so the engine never cuts an AL run short.
type chunkableAL struct {
	inner            Chunkable
	prevOpenRejected bool
	failed           bool
	started          bool
	deadInner        bool
}

// ALFromQL wraps a QL machine into an AL recognizer (Theorem 3.2 proof).
// The wrapper steps coded batches and runs chunk-parallel as its inner
// machine does.
func ALFromQL(inner Chunkable) Chunkable { return &chunkableAL{inner: inner} }

func (w *chunkableAL) Reset() {
	w.inner.Reset()
	w.prevOpenRejected = false
	w.failed = false
	w.started = false
	w.deadInner = false
}

func (w *chunkableAL) Step(e encoding.Event) {
	if w.failed {
		return
	}
	w.started = true
	if e.Kind == encoding.Close && w.prevOpenRejected {
		w.failed = true
		return
	}
	if w.deadInner {
		// A poisoned inner never accepts.
		w.prevOpenRejected = e.Kind == encoding.Open
		return
	}
	w.inner.Step(e)
	if w.inner.JoinState() < 0 {
		w.deadInner = true
	}
	w.prevOpenRejected = e.Kind == encoding.Open && !w.inner.Accepting()
}

func (w *chunkableAL) Accepting() bool { return w.started && !w.failed }

// CodeAlphabet implements BatchEvaluator: the wrapper reads the inner
// machine's codes.
func (w *chunkableAL) CodeAlphabet() *alphabet.Alphabet { return w.inner.CodeAlphabet() }

// StepBatch implements BatchEvaluator. After the failure the wrapper
// ignores events, as Step does.
//
//treelint:plain
func (w *chunkableAL) StepBatch(batch []encoding.CodedEvent) {
	if !w.failed {
		w.stepWindows(batch)
	}
}

// SelectBatch implements BatchEvaluator. The wrapper accepts after every
// event before the failing Close, so its hits are the Opens before it.
//
//treelint:plain
func (w *chunkableAL) SelectBatch(batch []encoding.CodedEvent, hits []int32) []int32 {
	if w.failed {
		return hits
	}
	at := w.stepWindows(batch)
	for i, e := range batch {
		if i == at {
			break
		}
		if e.Kind == encoding.Open {
			hits = append(hits, int32(i))
		}
	}
	return hits
}

// stepWindows steps the inner machine over batch, innerWindow events at a
// time and not at all once it is dead, and finds the first rejected leaf:
// an Open that is not an inner hit, followed by a Close. It latches failed
// there and returns that Close's index, or -1 when the batch holds none; a
// rejected last Open carries into the next batch as prevOpenRejected. A
// dead inner selects nothing, so after its death every Open is rejected,
// as in Step. Every leaf must be tested, so each window is read as two
// bitmasks, its Closes and its inner hits, and the rejected leaves are
// found without a branch per event.
//
//treelint:plain
func (w *chunkableAL) stepWindows(batch []encoding.CodedEvent) int {
	if len(batch) == 0 {
		return -1
	}
	w.started = true
	p := innerHits.Get().(*[]int32)
	hits := *p
	at := -1
	rejected := w.prevOpenRejected
	for off, rest := 0, batch; len(rest) > 0; off += innerWindow {
		n := len(rest)
		if n > innerWindow {
			n = innerWindow
		}
		win := rest[:n]
		rest = rest[n:]
		hits = hits[:0]
		if !w.deadInner {
			hits = w.inner.SelectBatch(win, hits)
			w.deadInner = w.inner.JoinState() < 0
		}
		var closes, sel uint64 // bit i: event i is a Close; an inner hit
		for i, e := range win {
			closes |= uint64(e.Kind) << uint(i)
		}
		for _, h := range hits {
			sel |= 1 << uint(h)
		}
		if rejected && closes&1 != 0 {
			at = off
			break
		}
		// Bit i: event i is an Open that is not a hit, and event i+1 closes it.
		if leaves := ^closes & (closes >> 1) &^ sel; leaves != 0 {
			at = off + bits.TrailingZeros64(leaves) + 1
			break
		}
		rejected = (closes|sel)>>uint(n-1)&1 == 0
	}
	w.failed = at >= 0
	w.prevOpenRejected = rejected
	*p = hits
	innerHits.Put(p)
	return at
}

// SetObs implements Instrumented by forwarding to the inner machine.
func (w *chunkableAL) SetObs(c *obs.Collector) { Instrument(w.inner, c) }

func (w *chunkableAL) flushObs() { flushEvObs(w.inner) }

// ChunkStates implements Chunkable.
func (w *chunkableAL) ChunkStates() int { return 4*(w.inner.ChunkStates()+1) + 1 }

// Cut implements Chunkable.
func (w *chunkableAL) Cut() CutPolicy { return w.inner.Cut() }

// Fork implements Chunkable.
func (w *chunkableAL) Fork() Chunkable { return &chunkableAL{inner: w.inner.Fork()} }

// BeginSegment implements Chunkable.
func (w *chunkableAL) BeginSegment(q int) {
	n := w.inner.ChunkStates()
	if q == 4*(n+1) {
		w.failed = true
		w.started = true
		w.prevOpenRejected = false
		w.deadInner = false
		w.inner.BeginSegment(0)
		return
	}
	bits := q % 4
	w.started = bits&1 != 0
	w.prevOpenRejected = bits&2 != 0
	w.failed = false
	i := q / 4
	if i == n {
		w.deadInner = true
		w.inner.BeginSegment(0)
		return
	}
	w.deadInner = false
	w.inner.BeginSegment(i)
}

// EndSegment implements Chunkable.
func (w *chunkableAL) EndSegment() SegmentExit {
	n := w.inner.ChunkStates()
	if w.failed {
		return SegmentExit{State: 4 * (n + 1)}
	}
	bits := 0
	if w.started {
		bits |= 1
	}
	if w.prevOpenRejected {
		bits |= 2
	}
	if w.deadInner {
		return SegmentExit{State: n*4 + bits}
	}
	x := w.inner.EndSegment()
	if x.State < 0 {
		return SegmentExit{State: n*4 + bits}
	}
	return SegmentExit{State: x.State*4 + bits, Regs: x.Regs}
}

// JoinState implements Chunkable.
func (w *chunkableAL) JoinState() int {
	n := w.inner.ChunkStates()
	if w.failed {
		return 4 * (n + 1)
	}
	bits := 0
	if w.started {
		bits |= 1
	}
	if w.prevOpenRejected {
		bits |= 2
	}
	if w.deadInner {
		return n*4 + bits
	}
	j := w.inner.JoinState()
	if j < 0 {
		return n*4 + bits
	}
	return j*4 + bits
}

// ApplySegment implements Chunkable.
func (w *chunkableAL) ApplySegment(x SegmentExit, delta int) {
	if w.failed {
		return
	}
	n := w.inner.ChunkStates()
	if x.State == 4*(n+1) {
		w.failed = true
		return
	}
	bits := x.State % 4
	w.started = bits&1 != 0
	w.prevOpenRejected = bits&2 != 0
	i := x.State / 4
	if i == n {
		w.deadInner = true
		return
	}
	w.inner.ApplySegment(SegmentExit{State: i, Regs: x.Regs}, delta)
}
