// Package stackeval implements the classical stack-based (pushdown)
// streaming evaluation that the paper's stackless model competes with: the
// evaluator pushes the simulated DFA state at every opening tag and pops at
// every closing tag, so it realizes QL — and recognizes EL and AL — for
// *every* regular language, at the cost of Θ(depth) memory.
//
// These evaluators are the baselines of every benchmark and the reference
// implementation for the streaming tests (they are themselves validated
// against the in-memory oracles of internal/tree) — but they are no longer
// slow baselines: the machine is compiled to the same flat []int32 table
// layout as the stackless family (DESIGN.md §11/§16), the stack lives in a
// pooled, ref-counted node chain (pool.go), and batch kernels implement
// core.BatchEvaluator so unrestricted queries ride the coded pipeline.
//
// # The empty-stack close convention
//
// A Close event with an empty stack (an unbalanced document, or a chunk
// whose first event closes an element opened before the chunk) is a
// no-op: the state word and the depth are unchanged, no frame is popped.
// This convention is shared bit-for-bit by Step, StepBatch, SelectBatch
// and SimulateSegmentCoded, and pinned by TestEmptyStackCloseConvention.
// Balanced-document guards live one layer up (select.go rejects
// malformed sources), so the machine itself never has to fail.
package stackeval

import (
	"stackless/internal/alphabet"
	"stackless/internal/core"
	"stackless/internal/dfa"
	"stackless/internal/encoding"
	"stackless/internal/obs"
)

// The machine word: the current DFA state code in the low bits with the
// accept flag folded in, so Accepting() is a single mask test. Aliveness
// (the old bool column) is folded into the state space instead of carried
// alongside it: code n (one past the last DFA state) is the dead row —
// all-absorbing under opens, not accepting — so stepping never branches
// on aliveness. Unlike the stackless machines there is no poison: a dead
// word on the stack is popped back over like any other frame, because a
// foreign subtree only kills the paths through it.
const (
	// AccBit marks the current state as accepting.
	AccBit = 1 << 30
	// StateMask extracts the state code (0..n; n is the dead row).
	StateMask = AccBit - 1
)

// QL returns a stack-based evaluator pre-selecting the nodes of QL.
// It works for every regular language and both encodings (the closing tag's
// label, when present, is not needed: the stack remembers everything).
// Construction compiles the DFA into an (n+1)×(k+1) word table: row n is
// the dead row, column k the unknown-label column.
func QL(d *dfa.DFA) *Evaluator {
	n := d.NumStates()
	k := d.Alphabet.Size()
	kw := k + 1
	ev := &Evaluator{
		d:   d,
		res: alphabet.NewResolver(d.Alphabet),
		n:   n,
		kw:  kw,
	}
	ev.words = make([]int32, n+1)
	for q := 0; q < n; q++ {
		w := int32(q)
		if d.Accept[q] {
			w |= AccBit
		}
		ev.words[q] = w
	}
	ev.words[n] = int32(n) // dead row: never accepting
	ev.dead = ev.words[n]
	ev.ctab = make([]int32, (n+1)*kw)
	for q := 0; q < n; q++ {
		row := ev.ctab[q*kw : (q+1)*kw]
		for a := 0; a < k; a++ {
			row[a] = ev.words[d.Delta[q][a]]
		}
		row[k] = ev.words[n] // unknown label kills the path
	}
	for a, row := 0, ev.ctab[n*kw:]; a < kw; a++ {
		row[a] = ev.words[n] // dead row absorbs
	}
	ev.pool = newPool(initialPoolCap)
	ev.top = -1
	ev.Reset()
	if h := core.CompileHook; h != nil {
		h(ev)
	}
	return ev
}

// Evaluator is the compiled pooled-stack pushdown machine. It implements
// core.Evaluator, core.BatchEvaluator, core.CodedSegmentKernel,
// core.Chunkable and core.Snapshotter.
type Evaluator struct {
	d   *dfa.DFA
	res alphabet.Resolver

	// Compiled layout (§11): ctab is the (n+1)×(k+1) row-major word
	// table, words maps a state code to its word, kw is the row stride
	// (alphabet size + 1 for the unknown column).
	ctab  []int32
	words []int32
	n     int
	kw    int
	dead  int32 // words[n], hoisted so the batch kernels load it unchecked

	// Runtime configuration: word is the current machine word, top the
	// pool index of the topmost stack frame (-1 when empty), depth the
	// number of frames (tracked separately so EndSegment and StackDepth
	// do not walk the chain).
	word  int32
	top   int32
	depth int32
	pool  pool

	// obs, when non-nil, receives the stack-depth histogram — the Θ(depth)
	// working state that the stackless machines avoid. Nil costs one
	// branch per push. Pool counters batch in the pool and flush between
	// runs (FlushObs).
	obs *obs.Collector
}

var (
	_ core.Evaluator    = (*Evaluator)(nil)
	_ core.Instrumented = (*Evaluator)(nil)
)

// SetObs implements core.Instrumented.
func (ev *Evaluator) SetObs(c *obs.Collector) { ev.obs = c }

// FlushObs adds the batched pool counters to the collector and zeroes
// them. Called by the instrumented drivers at end of run.
func (ev *Evaluator) FlushObs() {
	if ev.obs != nil {
		ev.obs.StackPoolReuse.Add(ev.pool.reuse)
		ev.obs.StackPoolMisses.Add(ev.pool.misses)
	}
	ev.pool.reuse, ev.pool.misses = 0, 0
}

// Reset implements core.Evaluator.
func (ev *Evaluator) Reset() {
	ev.pool.release(ev.top)
	ev.top = -1
	ev.depth = 0
	ev.word = ev.words[ev.d.Start]
	ev.pool.reuse, ev.pool.misses = 0, 0
}

// Step implements core.Evaluator.
func (ev *Evaluator) Step(e encoding.Event) {
	if e.Kind == encoding.Open {
		ev.top = ev.pool.push(ev.word, ev.top)
		ev.depth++
		if ev.obs != nil {
			ev.obs.StackDepth.Observe(int(ev.depth))
		}
		sym := ev.kw - 1 // unknown column
		if s, ok := ev.res.ID(e.Label); ok {
			sym = s
		}
		ev.word = ev.ctab[int(ev.word&StateMask)*ev.kw+sym]
		return
	}
	if ev.top < 0 {
		return // empty-stack close: no-op by convention (see package doc)
	}
	ev.word, ev.top = ev.pool.pop(ev.top)
	ev.depth--
}

// Accepting implements core.Evaluator.
func (ev *Evaluator) Accepting() bool { return ev.word&AccBit != 0 }

// StackDepth returns the current stack depth (for memory accounting in
// benchmarks).
func (ev *Evaluator) StackDepth() int { return int(ev.depth) }

// PoolStats returns the free-list hit and growth counters accumulated
// since the last Reset/FlushObs (for tests and accounting).
func (ev *Evaluator) PoolStats() (reuse, misses int64) {
	return ev.pool.reuse, ev.pool.misses
}

// PoolCap returns the current pool capacity in nodes.
func (ev *Evaluator) PoolCap() int { return len(ev.pool.nodes) }

// EL returns a stack-based recognizer of EL (some branch labelled in L).
func EL(d *dfa.DFA) core.Chunkable { return core.ELFromQL(QL(d)) }

// AL returns a stack-based recognizer of AL (every branch labelled in L).
func AL(d *dfa.DFA) core.Chunkable { return core.ALFromQL(QL(d)) }
