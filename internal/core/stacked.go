package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"stackless/internal/alphabet"
	"stackless/internal/dfa"
	"stackless/internal/encoding"
)

// Stacked product (DESIGN.md §13): once one member of a multi-query set
// needs the pushdown, every member can ride the same stack. The machine is
// the product of the members' minimal word DFAs, built by the tuple BFS of
// ProductDFA over one column per union symbol, and run as the pushdown of
// internal/stackeval runs one DFA: an Open pushes the product state and
// takes one table step, a Close pops it back. Acceptance is ProductDFA's
// bitset mask per state, so each hit names its members directly.
//
// Members whose own machine is compiled (a tag DFA or a stackless machine)
// keep the absorbing poison of DESIGN.md §11, which a pop cannot undo: a
// run carries a sticky alive mask, and each event clears the members its
// column poisons — those for which the label is outside their alphabet, on
// an Open under either encoding and on a markup Close. Pushdown members
// are never poisoned: a foreign subtree only kills the paths through it.

// StackedProduct is the compiled stacked product of a query set. Build one
// with NewStackedProduct; it is immutable and shared by concurrent runs.
type StackedProduct struct {
	productTable
	members  []*dfa.DFA
	compiled []bool
	term     bool

	// poison is the 2(K+1)×words block of per-column poison masks, indexed
	// by the coded column sym<<1|kind; pcol[c] flags the non-zero rows, so
	// an event that poisons nobody costs one byte load.
	poison []uint64
	pcol   []bool
	alive  []uint64 // the alive mask a run starts from: every member

	runs sync.Pool // *StackedRun, with their stacks and hit-mask buffers
}

// DefaultStackedMaxCells caps a stacked product's transition cells, live
// rows × (K+1) for a union alphabet of K labels: 1 MiB of rows at the cap.
// A state cap alone lets the table grow with the alphabet — thirteen
// "contains lN" members over 4,000 labels would fill DefaultProductMaxStates
// rows of 4,001 columns, 131 MB — and a set keeps its stacked product for
// its lifetime, outside the shared product cache.
const DefaultStackedMaxCells = 1 << 18

// NewStackedProduct builds the stacked product of the members' word DFAs
// (at least one), compiled[i] marking the members that poison. term says
// whether the run reads the term encoding, whose Closes carry no label and
// poison nobody. The live rows stay under DefaultProductMaxStates and
// their cells under DefaultStackedMaxCells; the build stops with
// ErrProductTooLarge at the first tuple past either.
func NewStackedProduct(members []*dfa.DFA, compiled []bool, term bool) (*StackedProduct, error) {
	if len(members) == 0 {
		return nil, errors.New("core: stacked product of zero members")
	}
	if len(compiled) != len(members) {
		return nil, fmt.Errorf("core: %d poison flags for %d members", len(compiled), len(members))
	}
	ms := make([]productMember, len(members))
	for i, d := range members {
		ms[i] = wordMember(d)
	}
	t, err := newProductTable(ms, 1, 0, DefaultStackedMaxCells)
	if err != nil {
		return nil, err
	}
	p := &StackedProduct{
		productTable: t,
		members:      append([]*dfa.DFA(nil), members...),
		compiled:     append([]bool(nil), compiled...),
		term:         term,
	}
	p.poison, p.pcol = stackedPoison(t.alph, members, compiled, term)
	p.alive = make([]uint64, t.words)
	for i := range members {
		p.alive[i/64] |= 1 << (uint(i) % 64)
	}
	if CompileHook != nil {
		compileHook(p)
	}
	return p, nil
}

// wordMember lowers a word DFA of n states over k symbols to the product's
// flat member form: n+1 rows of k+1 columns, column k (the unknown label)
// and row n the dead state, as the pushdown's table lays it out.
func wordMember(d *dfa.DFA) productMember {
	n, k := d.NumStates(), d.Alphabet.Size()
	tab := make([]int32, (n+1)*(k+1))
	acc := make([]bool, n+1)
	for i := range tab {
		tab[i] = int32(n)
	}
	for q := 0; q < n; q++ {
		for a := 0; a < k; a++ {
			tab[q*(k+1)+a] = int32(d.Delta[q][a])
		}
		acc[q] = d.Accept[q]
	}
	return productMember{alph: d.Alphabet, tab: tab, acc: acc, stride: int32(k + 1), dead: int32(n), start: int32(d.Start)}
}

// stackedPoison returns the poison columns of a stacked product over the
// union alphabet u: for each coded column sym<<1|kind, the mask of
// compiled members whose alphabet lacks the label (the unknown sentinel
// included), on Opens and, unless term, on Closes; and the flags of the
// non-zero rows.
func stackedPoison(u *alphabet.Alphabet, members []*dfa.DFA, compiled []bool, term bool) (poison []uint64, pcol []bool) {
	k := u.Size()
	words := (len(members) + 63) / 64
	poison = make([]uint64, 2*(k+1)*words)
	pcol = make([]bool, 2*(k+1))
	for i, d := range members {
		if !compiled[i] {
			continue
		}
		unk := int32(d.Alphabet.Size())
		for s, ms := range memberSyms(u, d.Alphabet, unk) {
			if ms != unk {
				continue
			}
			for kind := 0; kind < 2; kind++ {
				if kind == int(encoding.Close) && term {
					continue
				}
				c := s<<1 | kind
				poison[c*words+i/64] |= 1 << (uint(i) % 64)
				pcol[c] = true
			}
		}
	}
	return poison, pcol
}

// Alphabet returns the union alphabet the runs code their batches under.
func (p *StackedProduct) Alphabet() *alphabet.Alphabet { return p.alph }

// Members returns the member count — the number of mask bits per row.
func (p *StackedProduct) Members() int { return len(p.members) }

// MemberDFAs returns the member automata, in mask-bit order.
func (p *StackedProduct) MemberDFAs() []*dfa.DFA { return append([]*dfa.DFA(nil), p.members...) }

// Compiled returns the poison flags the product was built with.
func (p *StackedProduct) Compiled() []bool { return append([]bool(nil), p.compiled...) }

// TermEncoding reports whether the product reads the term encoding.
func (p *StackedProduct) TermEncoding() bool { return p.term }

// NumStates returns the number of live product states (the dead row is one
// more).
func (p *StackedProduct) NumStates() int { return int(p.states) }

// Start returns the start state.
func (p *StackedProduct) Start() int { return int(p.start) }

// MaskWords returns the number of uint64 words per bitset.
func (p *StackedProduct) MaskWords() int { return int(p.words) }

// CompiledStacked returns the live compiled form for verification: the
// flat (n+1)×(K+1) transition table, the acceptance bitsets, the
// any-bit-set prefilter, the poison block and its row flags, the row
// stride K+1, the mask word count and the dead row id. As with
// CompiledProduct these are the arrays the kernel reads, not copies.
func (p *StackedProduct) CompiledStacked() (tab []int32, masks []uint64, anyAcc []bool, poison []uint64, pcol []bool, stride, words, dead int32) {
	return p.tab, p.masks, p.anyAcc, p.poison, p.pcol, p.stride, p.words, p.states
}

// StackedRun is one run of a StackedProduct: the product state, the stack
// of states saved under the open elements, and the members still alive.
// Runs come from the product's pool (Run) and go back to it (Release), so
// a stack grown to a document's depth serves the next run too.
type StackedRun struct {
	p     *StackedProduct
	state int32
	depth int32
	stack []int32 // stack[:depth] are the saved states, bottom first
	alive []uint64
	masks []uint64 // the hit masks of the last SelectStacked
}

// Run returns a run at the start state.
func (p *StackedProduct) Run() *StackedRun {
	r, _ := p.runs.Get().(*StackedRun)
	if r == nil {
		r = &StackedRun{p: p, stack: make([]int32, 64), alive: make([]uint64, p.words)}
	}
	r.state, r.depth = p.start, 0
	copy(r.alive, p.alive)
	return r
}

// Release returns the run to its product's pool; it may not be used after.
func (r *StackedRun) Release() { r.p.runs.Put(r) }

// SelectStacked steps the batch, coded under the product's alphabet: an
// Open pushes the state and takes the open column of its label, a Close
// pops the state back (a no-op on an empty stack, as in the pushdown), and
// every event first clears from the alive mask the members its column
// poisons. Each Open after which some live member accepts is a hit: its
// batch index is appended to hits and its live members' bitset to the
// run's hit masks (HitMasks, MaskWords words per hit). Index guards are
// BCE-shaped, degrading to the dead row on a corrupt table.
//
//treelint:plain
func (r *StackedRun) SelectStacked(batch []encoding.CodedEvent, hits []int32) []int32 {
	p := r.p
	tab, acc, ms := p.tab, p.anyAcc, p.masks
	pcol, poison := p.pcol, p.poison
	stride, words, dead := uint(p.stride), uint(p.words), p.states
	alive, stack := r.alive, r.stack
	st, depth := r.state, r.depth
	masks := r.masks[:0]
	for i, e := range batch {
		if c := uint(e.Sym)<<1 | uint(e.Kind); c < uint(len(pcol)) && pcol[c] {
			for w := range alive {
				if b := c*words + uint(w); b < uint(len(poison)) {
					alive[w] &^= poison[b]
				}
			}
		}
		if e.Kind == encoding.Close {
			if depth > 0 {
				depth--
				if d := uint(depth); d < uint(len(stack)) {
					st = stack[d]
				}
			}
			continue
		}
		if d := uint(depth); d < uint(len(stack)) {
			stack[d] = st
		} else {
			stack = growStack(stack, st)
		}
		depth++
		if j := uint(st)*stride + uint(e.Sym); j < uint(len(tab)) {
			st = tab[j]
		} else {
			st = dead
		}
		if a := uint(st); a < uint(len(acc)) && acc[a] {
			any := uint64(0)
			for w := range alive {
				if b := a*words + uint(w); b < uint(len(ms)) {
					any |= ms[b] & alive[w]
				}
			}
			if any == 0 {
				continue // only poisoned members accept
			}
			hits = append(hits, int32(i))
			for w := range alive {
				word := uint64(0)
				if b := a*words + uint(w); b < uint(len(ms)) {
					word = ms[b] & alive[w]
				}
				//treelint:partial the hit-mask buffer grows to the run's largest batch of hits once; pooled runs reuse it
				masks = append(masks, word)
			}
		}
	}
	r.state, r.depth, r.stack, r.masks = st, depth, stack, masks
	return hits
}

// growStack pushes st one past the stack's high-water mark.
//
//treelint:partial the stack grows to the deepest document a pooled run has seen, amortized to zero across runs
func growStack(stack []int32, st int32) []int32 { return append(stack, st) }

// HitMasks returns the live-member bitsets of the last SelectStacked's
// hits, MaskWords words per hit — valid until the next call.
func (r *StackedRun) HitMasks() []uint64 { return r.masks }

// stackedConfig is a saved StackedRun configuration (verification only).
type stackedConfig struct {
	state int32
	stack []int32
	alive []uint64
}

// Key implements SavedConfig.
func (c stackedConfig) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "s%d/%x", c.state, c.alive)
	for _, q := range c.stack {
		fmt.Fprintf(&b, ";%d", q)
	}
	return b.String()
}

// Parked implements SavedConfig: a run is never parked, since a pop can
// revive a dead state.
func (c stackedConfig) Parked() bool { return false }

// SaveConfig implements Snapshotter: O(depth), for the bounded searches of
// internal/tablecheck.
func (r *StackedRun) SaveConfig() SavedConfig {
	return stackedConfig{
		state: r.state,
		stack: append([]int32(nil), r.stack[:r.depth]...),
		alive: append([]uint64(nil), r.alive...),
	}
}

// RestoreConfig implements Snapshotter.
func (r *StackedRun) RestoreConfig(c SavedConfig) {
	sc := c.(stackedConfig)
	r.state, r.depth = sc.state, int32(len(sc.stack))
	if len(r.stack) < len(sc.stack) {
		r.stack = make([]int32, len(sc.stack))
	}
	copy(r.stack, sc.stack)
	copy(r.alive, sc.alive)
}
