package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"stackless/internal/alphabet"
	"stackless/internal/encoding"
)

// Product automaton (DESIGN.md §13): the synchronous product of several
// TagDFAs, so a multi-query run steps ONE flat table per event instead of
// one per member query. The construction extends the §11 layout: a product
// state is a reachable tuple of member states, the transition table is the
// same flat (n+1)×2(K+1) []int32 shape over the members' shared (union)
// alphabet, and acceptance generalizes from one bool per row to one bitset
// per row — bit i set when member i accepts in that tuple. The dead row is
// the all-members-dead tuple: absorbing, mask zero, and the target of the
// unknown-symbol columns, exactly the poison convention of TagDFA.
//
// Members may die individually: a label inside the union but outside member
// i's alphabet steps only member i into its dead state, and the tuple stays
// live as long as any member is. The product therefore reproduces each
// member's poison behavior bit-exactly — internal/tablecheck pins this with
// a joint BFS of the product against the member tuple.

// DefaultProductMaxStates caps the reachable-tuple construction. Query sets
// over shared document schemas (the many-subscribers workload) stay tiny —
// their members track the same path — while adversarial sets can approach
// the ∏ nᵢ worst case; past the cap construction fails with
// ErrProductTooLarge and the caller falls back to fan-out.
const DefaultProductMaxStates = 1 << 13

// ErrProductTooLarge reports that the reachable product exceeded the state
// cap; callers treat it as "evaluate this group by fan-out instead".
var ErrProductTooLarge = errors.New("core: product state space exceeds the cap")

// ProductDFA is the compiled product of member TagDFAs. Build one with
// NewProductDFA; the zero value is not usable. Construction is eager (the
// table is the whole point), so unlike TagDFA there is no lazy compile step
// and the CompileHook fires inside NewProductDFA.
type ProductDFA struct {
	productTable
	members []*TagDFA
	term    bool
}

// productTable is the reachable product of member automata in flat form,
// shared by ProductDFA (tag automata, two columns per symbol) and
// StackedProduct (word automata, one column per symbol).
type productTable struct {
	alph   *alphabet.Alphabet // shared union alphabet; Sym space of the table
	start  int32
	states int32 // live rows; the dead row is row `states`
	stride int32 // columns per row: kinds·(K+1) for union size K
	words  int32 // mask words per row: ceil(members/64)

	tab    []int32  // (states+1)×stride, entries in [0, states]
	masks  []uint64 // (states+1)×words acceptance bitsets
	anyAcc []bool   // (states+1): masks row non-zero (hot-loop prefilter)
}

// productMember is one member of a product in compiled flat form: a table
// of dead+1 rows of stride = kinds·(k+1) columns over its own alphabet of
// k symbols (column k the unknown label), row dead absorbing and never
// accepting.
type productMember struct {
	alph   *alphabet.Alphabet
	tab    []int32
	acc    []bool
	stride int32
	dead   int32
	start  int32
}

// NewProductDFA builds the reachable product of the members (at least one,
// all under the same encoding) over their union alphabet, by breadth-first
// search from the tuple of start states. maxStates bounds the live rows
// (<=0 means DefaultProductMaxStates); exceeding it returns
// ErrProductTooLarge.
func NewProductDFA(members []*TagDFA, maxStates int) (*ProductDFA, error) {
	if len(members) == 0 {
		return nil, errors.New("core: product of zero members")
	}
	term := members[0].CloseAny != nil
	ms := make([]productMember, len(members))
	for i, m := range members {
		if (m.CloseAny != nil) != term {
			return nil, fmt.Errorf("core: product members mix encodings (member %d)", i)
		}
		tab, acc, stride, dead := m.CompiledTable()
		ms[i] = productMember{alph: m.Alphabet, tab: tab, acc: acc, stride: stride, dead: dead, start: int32(m.Start)}
	}
	t, err := newProductTable(ms, 2, maxStates, 0)
	if err != nil {
		return nil, err
	}
	p := &ProductDFA{productTable: t, members: append([]*TagDFA(nil), members...), term: term}
	if CompileHook != nil {
		compileHook(p)
	}
	return p, nil
}

// newProductTable runs the tuple BFS over members whose tables have kinds
// columns per symbol: column sym·kinds + kind, so kinds = 2 is the tag
// automata's sym<<1|kind and kinds = 1 a word automaton's sym. The live
// rows stay under maxStates (<=0 means DefaultProductMaxStates) and, when
// maxCells > 0, their cells under maxCells; each is checked as a tuple is
// interned, before its row is built.
func newProductTable(members []productMember, kinds int32, maxStates, maxCells int) (productTable, error) {
	if maxStates <= 0 {
		maxStates = DefaultProductMaxStates
	}
	alphs := make([]*alphabet.Alphabet, len(members))
	for i, m := range members {
		alphs[i] = m.alph
	}
	shared := alphabet.Union(alphs...)
	k := shared.Size()
	stride := kinds * int32(k+1)
	n := len(members)
	words := int32((n + 63) / 64)
	if maxCells > 0 {
		maxStates = min(maxStates, maxCells/int(stride))
	}

	// The union→member symbol maps: symMap[i][s] is member i's symbol for
	// union symbol s (its own id when the label is in its alphabet, its
	// unknown sentinel otherwise — including s = K, the union's own
	// unknown).
	symMap := make([][]int32, n)
	for i, m := range members {
		symMap[i] = memberSyms(shared, m.alph, m.stride/kinds-1)
	}

	// Tuple interning. The all-dead tuple is not interned: it maps to the
	// sentinel -1, rewritten to the final dead row id once BFS finishes.
	const deadMark = int32(-1)
	key := make([]byte, 4*n)
	ids := make(map[string]int32)
	var tuples []int32 // flat, n per state
	var masks []uint64
	var anyAcc []bool
	intern := func(t []int32) (int32, error) {
		dead := true
		for i, q := range t {
			if q != members[i].dead {
				dead = false
				break
			}
		}
		if dead {
			return deadMark, nil
		}
		for i, q := range t {
			binary.LittleEndian.PutUint32(key[4*i:], uint32(q))
		}
		if id, ok := ids[string(key)]; ok {
			return id, nil
		}
		id := int32(len(ids))
		if int(id) >= maxStates {
			return 0, fmt.Errorf("%w: more than %d reachable tuples of %d members over %d columns", ErrProductTooLarge, maxStates, n, stride)
		}
		ids[string(key)] = id
		tuples = append(tuples, t...)
		row := make([]uint64, words)
		acc := false
		for i, q := range t {
			if int(q) < len(members[i].acc) && members[i].acc[q] {
				row[i/64] |= 1 << (uint(i) % 64)
				acc = true
			}
		}
		masks = append(masks, row...)
		anyAcc = append(anyAcc, acc)
		return id, nil
	}

	startTuple := make([]int32, n)
	for i, m := range members {
		startTuple[i] = m.start
	}
	start, err := intern(startTuple)
	if err != nil {
		return productTable{}, err
	}

	var tab []int32
	next := make([]int32, n)
	for done := int32(0); done < int32(len(ids)); done++ {
		tuple := tuples[int(done)*n : (int(done)+1)*n]
		for col := int32(0); col < stride; col++ {
			sym, kind := col/kinds, col%kinds
			for i, m := range members {
				next[i] = m.tab[tuple[i]*m.stride+symMap[i][sym]*kinds+kind]
			}
			id, err := intern(next)
			if err != nil {
				return productTable{}, err
			}
			tab = append(tab, id)
		}
	}

	// Finalize: append the dead row (self-absorbing, mask zero) and rewrite
	// the sentinel to its id.
	states := int32(len(ids))
	deadRow := make([]int32, stride)
	for c := range deadRow {
		deadRow[c] = states
	}
	tab = append(tab, deadRow...)
	masks = append(masks, make([]uint64, words)...)
	anyAcc = append(anyAcc, false)
	for i, e := range tab {
		if e == deadMark {
			tab[i] = states
		}
	}
	if start == deadMark {
		start = states
	}
	return productTable{
		alph:   shared,
		start:  start,
		states: states,
		stride: stride,
		words:  words,
		tab:    tab,
		masks:  masks,
		anyAcc: anyAcc,
	}, nil
}

// memberSyms maps each symbol of the union alphabet, and its unknown
// sentinel, to a member's symbol: the member's id for the label, or unk,
// the member's unknown column. unk comes from the width the member's
// table was *compiled* with, not its current alphabet: symbols added after
// the member compiled have ids beyond the table width, and clamping them
// to the unknown column keeps the construction in-bounds (the cache's
// generation keying ensures such a stale product is never served anyway).
func memberSyms(shared, alph *alphabet.Alphabet, unk int32) []int32 {
	k := shared.Size()
	sm := make([]int32, k+1)
	for s := 0; s < k; s++ {
		if id, ok := alph.ID(shared.Symbol(s)); ok && int32(id) < unk {
			sm[s] = int32(id)
		} else {
			sm[s] = unk
		}
	}
	sm[k] = unk
	return sm
}

// Alphabet returns the shared union alphabet the table is indexed by.
func (p *ProductDFA) Alphabet() *alphabet.Alphabet { return p.alph }

// Members returns the member count — the number of mask bits per row.
func (p *ProductDFA) Members() int { return len(p.members) }

// MemberMachines returns the member automata, in mask-bit order.
func (p *ProductDFA) MemberMachines() []*TagDFA {
	return append([]*TagDFA(nil), p.members...)
}

// TermEncoding reports whether the members (hence the product) consume the
// term encoding.
func (p *ProductDFA) TermEncoding() bool { return p.term }

// NumStates returns the number of live product states (the dead row is one
// more).
func (p *ProductDFA) NumStates() int { return int(p.states) }

// Start returns the start state.
func (p *ProductDFA) Start() int { return int(p.start) }

// MaskWords returns the number of uint64 words per acceptance bitset.
func (p *ProductDFA) MaskWords() int { return int(p.words) }

// CompiledProduct returns the live compiled form for verification: the flat
// transition table, the per-state acceptance bitsets, the any-bit-set
// prefilter, the row stride 2(K+1), the mask word count and the dead row
// id. As with TagDFA.CompiledTable these are the backing arrays the kernels
// index, not copies — the corruption tests flip entries in place.
func (p *ProductDFA) CompiledProduct() (tab []int32, masks []uint64, anyAcc []bool, stride, words, dead int32) {
	return p.tab, p.masks, p.anyAcc, p.stride, p.words, p.states
}

// ProductEvaluator steps a ProductDFA. It implements Evaluator (Accepting =
// "any member accepts"), BatchEvaluator over the shared alphabet, and
// Snapshotter; SelectBatchMasks is the multi-query kernel that also reports
// which members selected each hit.
type ProductEvaluator struct {
	p     *ProductDFA
	res   alphabet.Resolver
	state int32
}

// Evaluator returns a fresh streaming evaluator.
func (p *ProductDFA) Evaluator() *ProductEvaluator {
	return &ProductEvaluator{p: p, res: alphabet.NewResolver(p.alph), state: p.start}
}

// EvaluatorAt returns an evaluator positioned at the given state — phase
// two of the chunk-parallel driver (internal/product) starts each chunk at
// its joined entry state. Out-of-range ids park at the dead row.
func (p *ProductDFA) EvaluatorAt(state int32) *ProductEvaluator {
	ev := p.Evaluator()
	if state < 0 || state > p.states {
		state = p.states
	}
	ev.state = state
	return ev
}

// Machine returns the underlying product (verification).
func (ev *ProductEvaluator) Machine() *ProductDFA { return ev.p }

// State returns the current state id — the chunk-parallel driver captures
// chunk exits through it.
func (ev *ProductEvaluator) State() int32 { return ev.state }

// Reset implements Evaluator.
func (ev *ProductEvaluator) Reset() { ev.state = ev.p.start }

// Step implements Evaluator: the per-event string path. Unknown labels take
// the unknown column, which steps each member through its own unknown
// column — dead for opens (and markup closes), CloseAny for term closes, so
// per-member poison matches the members' own string paths.
func (ev *ProductEvaluator) Step(e encoding.Event) {
	p := ev.p
	sym := int32(p.alph.Size())
	if e.Kind == encoding.Close && p.term {
		// ◁ ignores the label: every close column of a term row is equal, so
		// the unknown column serves.
	} else if id, ok := ev.res.ID(e.Label); ok {
		sym = int32(id)
	}
	col := sym<<1 | int32(e.Kind)
	if i := uint(ev.state)*uint(p.stride) + uint(col); i < uint(len(p.tab)) {
		ev.state = p.tab[i]
	} else {
		ev.state = p.states
	}
}

// Accepting implements Evaluator: true when any member accepts. Per-member
// acceptance is AcceptMask.
func (ev *ProductEvaluator) Accepting() bool {
	if a := uint(ev.state); a < uint(len(ev.p.anyAcc)) {
		return ev.p.anyAcc[a]
	}
	return false
}

// AcceptMask returns the current state's acceptance bitset (bit i = member
// i accepts) — a live view into the compiled masks, valid until the next
// step.
func (ev *ProductEvaluator) AcceptMask() []uint64 {
	p := ev.p
	base := int(ev.state) * int(p.words)
	return p.masks[base : base+int(p.words)]
}

// CodeAlphabet implements BatchEvaluator: batches are coded under the
// shared union alphabet, one coder for the whole group.
func (ev *ProductEvaluator) CodeAlphabet() *alphabet.Alphabet { return ev.p.alph }

// StepBatch implements BatchEvaluator: one table load per event for the
// whole member set. Index guards as in TagDFA's kernels (shaped for
// bounds-check elimination, degrading to the dead row on a corrupt table).
//
//treelint:plain
func (ev *ProductEvaluator) StepBatch(batch []encoding.CodedEvent) {
	p := ev.p
	tab := p.tab
	stride, dead := p.stride, p.states
	st := ev.state
	for _, e := range batch {
		if i := uint(st)*uint(stride) + uint(int32(e.Sym)<<1|int32(e.Kind)); i < uint(len(tab)) {
			st = tab[i]
		} else {
			st = dead
		}
	}
	ev.state = st
}

// SelectBatch implements BatchEvaluator: a hit is an Open after which any
// member accepts. Multi-query demultiplexing wants SelectBatchMasks.
//
//treelint:plain
func (ev *ProductEvaluator) SelectBatch(batch []encoding.CodedEvent, hits []int32) []int32 {
	p := ev.p
	tab, acc := p.tab, p.anyAcc
	stride, dead := p.stride, p.states
	st := ev.state
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
	ev.state = st
	return hits
}

// SelectBatchMasks is SelectBatch carrying the member bitsets: for each hit
// it appends the batch-relative event index to hits and the state's
// acceptance words to masks (MaskWords words per hit, in step). The mask
// copy runs only on hits, so hitless batches cost exactly one table load
// per event.
//
//treelint:plain
func (ev *ProductEvaluator) SelectBatchMasks(batch []encoding.CodedEvent, hits []int32, masks []uint64) ([]int32, []uint64) {
	p := ev.p
	tab, acc, ms := p.tab, p.anyAcc, p.masks
	stride, words, dead := p.stride, p.words, p.states
	st := ev.state
	for i, e := range batch {
		if j := uint(st)*uint(stride) + uint(int32(e.Sym)<<1|int32(e.Kind)); j < uint(len(tab)) {
			st = tab[j]
		} else {
			st = dead
		}
		if e.Kind == encoding.Open {
			if a := uint(st); a < uint(len(acc)) && acc[a] {
				hits = append(hits, int32(i))
				base := uint(st) * uint(words)
				for w := uint(0); w < uint(words); w++ {
					word := uint64(0)
					if b := base + w; b < uint(len(ms)) {
						word = ms[b]
					}
					masks = append(masks, word)
				}
			}
		}
	}
	ev.state = st
	return hits, masks
}

// SimulateChunkCoded runs the chunk from every product state at once and
// returns the exit state per entry state — phase one of the two-phase
// chunk-parallel product evaluation (internal/product): exits first, then a
// single-entry selection pass per chunk once the join pins each chunk's
// entry. cur is reused when it has capacity. The vector covers the dead row
// too (trivially absorbing), so callers index exits by any state id.
//
//treelint:plain
func (ev *ProductEvaluator) SimulateChunkCoded(seg []encoding.CodedEvent, cur []int32) []int32 {
	p := ev.p
	tab := p.tab
	stride, dead := p.stride, p.states
	total := int(dead) + 1
	if cap(cur) < total {
		//treelint:partial grows the caller's reusable buffer only when capacity is short; steady state reuses it
		cur = make([]int32, total)
	}
	cur = cur[:total]
	for i := range cur {
		cur[i] = int32(i)
	}
	for _, e := range seg {
		col := int32(e.Sym)<<1 | int32(e.Kind)
		for i := range cur {
			next := dead
			if j := uint(cur[i])*uint(stride) + uint(col); j < uint(len(tab)) {
				next = tab[j]
			}
			cur[i] = next
		}
	}
	return cur
}

// productConfig is the saved configuration of a ProductEvaluator: the
// product state is the entire configuration (per-member poison lives inside
// the tuple), so Parked is exactly the all-dead row.
type productConfig struct {
	state int32
	dead  int32
}

// Key implements SavedConfig.
func (c productConfig) Key() string { return fmt.Sprintf("x%d", c.state) }

// Parked implements SavedConfig.
func (c productConfig) Parked() bool { return c.state == c.dead }

// SaveConfig implements Snapshotter.
func (ev *ProductEvaluator) SaveConfig() SavedConfig {
	return productConfig{state: ev.state, dead: ev.p.states}
}

// RestoreConfig implements Snapshotter.
func (ev *ProductEvaluator) RestoreConfig(c SavedConfig) {
	ev.state = c.(productConfig).state
}
