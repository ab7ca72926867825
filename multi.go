package stackless

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"time"

	"stackless/internal/alphabet"
	"stackless/internal/core"
	"stackless/internal/dfa"
	"stackless/internal/encoding"
	"stackless/internal/obs"
	"stackless/internal/parallel"
	"stackless/internal/product"
)

// Multi-query evaluation: run several path queries over one document in a
// single streaming pass. This is the workload the paper's introduction
// highlights (factoring the dominant parsing cost across queries, as in
// SAX-based systems): the document is scanned once, and each query's
// machine steps on every event.

// MultiQuery is a set of compiled queries evaluated together. When some
// member needs the pushdown, the whole set runs as one pushdown over the
// product of its members' DFAs (DESIGN.md §13); otherwise compatible
// registerless queries are merged into product automata stepped once per
// event for the whole group, and the rest fan out.
//
// Every member's matches equal its own Query's on well-formed input. On
// markup whose close tags balance in count but name the wrong label, which
// no tier rejects, a stackless member of a set with a stack-tier member
// may match differently from its own Select: its machine reads close
// labels, while the stacked pushdown pops without looking at them.
//
// Each member runs an instance of its Query's machine, built once on that
// query's first use, so repeated calls on the same set find its product in
// the shared product cache instead of recompiling it; the stacked product
// is built once per set, on its first run. A MultiQuery is safe for
// concurrent use by multiple goroutines.
type MultiQuery struct {
	queries []*Query

	// noProduct disables product compilation, forcing the pre-§13 fan-out.
	// Unexported: it exists for the differential tests and the benchmark
	// baseline, not as API — fan-out is never preferable when a product
	// compiles.
	noProduct bool

	// stacked[enc][ForceStack] is the set's stacked product, built on the
	// first run that takes the stacked plan.
	stacked [2][2]stackedSlot
}

// stackedSlot holds one stacked product of a set; p stays nil when the
// product passes its cap (core.NewStackedProduct).
type stackedSlot struct {
	once sync.Once
	p    *core.StackedProduct
}

// NewMultiQuery groups queries for single-pass evaluation.
func NewMultiQuery(queries ...*Query) (*MultiQuery, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("stackless: empty multi-query")
	}
	return &MultiQuery{queries: queries}, nil
}

// MultiMatch is a selected node together with the index of the query that
// selected it.
type MultiMatch struct {
	Query int
	Match
}

// MultiPlan names how a MultiQuery run evaluated its set (DESIGN.md §13).
type MultiPlan int

const (
	// MultiPlanGrouped: each product group and each loose member stepped
	// its own machine, and their hits merged in (position, query) order.
	MultiPlanGrouped MultiPlan = iota
	// MultiPlanStacked: a member needs the pushdown, so the whole set ran
	// sequentially as one pushdown over the product of its members' DFAs.
	MultiPlanStacked
)

func (p MultiPlan) String() string {
	switch p {
	case MultiPlanGrouped:
		return "grouped"
	case MultiPlanStacked:
		return "stacked"
	}
	return fmt.Sprintf("MultiPlan(%d)", int(p))
}

// MultiStats describes a multi-query run.
type MultiStats struct {
	// Strategies per query: the tier of each member's own machine.
	Strategies []Strategy
	// Events processed once for the whole batch.
	Events int
	// Matches per query.
	Matches []int
	// Plan the run took: MultiPlanStacked when a set of two or more has a
	// member on the Stack tier, the run is not earliest and the stacked
	// product fits its cap; MultiPlanGrouped otherwise.
	Plan MultiPlan
	// Workers the run was spread over (1 = sequential pass);
	// Options.Workers clamped to GOMAXPROCS, as in Stats. The machines of a
	// grouped plan run concurrently on them, each in max(1, Workers ÷
	// machines) chunks, so a set with at least as many machines as workers
	// chunks none. A stacked plan always runs sequentially, and reports 1.
	Workers int
	// Pipeline actually used: always PipelineCoded — every query's machine
	// compiles, and the sequential pass steps each machine (or product
	// group) in coded windows, instrumented and earliest runs included.
	Pipeline Pipeline
	// ProductGroups is the number of product automata the query set was
	// merged into: 1 for a stacked plan; for a grouped plan 0 when every
	// query ran loose — singletons, incompatible families, products over
	// the state cap, or a sequential earliest run, which steps every member
	// on its own.
	ProductGroups int
	// Earliest reports which earliest-emission mode the run carried when
	// Options.Earliest was set: EarliestExact when every query's machine
	// carries compiled earliest-decision flags (the pass additionally stops
	// stepping once all machines prove no further match), EarliestApprox
	// otherwise — including every Workers>1 run, which buffers and joins.
	// EarliestOff when earliest emission was not requested.
	Earliest EarliestMode
}

// SelectXML streams the document once and reports each query's matches.
func (m *MultiQuery) SelectXML(r io.Reader, opt Options, fn func(MultiMatch)) (MultiStats, error) {
	return m.selectSource(encoding.NewXMLScanner(r), MarkupEncoding, opt, fn)
}

// SelectJSON streams a JSON document once under the term encoding.
func (m *MultiQuery) SelectJSON(r io.Reader, opt Options, fn func(MultiMatch)) (MultiStats, error) {
	return m.selectSource(encoding.NewJSONSource(r), TermEncoding, opt, fn)
}

// SelectTerm streams a brace-notation document once under the term encoding.
func (m *MultiQuery) SelectTerm(r io.Reader, opt Options, fn func(MultiMatch)) (MultiStats, error) {
	return m.selectSource(encoding.NewTermScanner(r), TermEncoding, opt, fn)
}

func (m *MultiQuery) selectSource(src encoding.Source, enc Encoding, opt Options, fn func(MultiMatch)) (MultiStats, error) {
	src = opt.guard(src)
	opt.Workers = effectiveWorkers(opt.Workers)
	c := opt.Collector
	stats := MultiStats{
		Strategies: make([]Strategy, len(m.queries)),
		Matches:    make([]int, len(m.queries)),
		Pipeline:   PipelineCoded,
	}
	stacks := 0
	for i, q := range m.queries {
		s, err := q.slot(semQL, enc, opt)
		if err != nil {
			return stats, fmt.Errorf("query %d (%s): %w", i, q, err)
		}
		stats.Strategies[i] = s.st
		if s.st == Stack {
			stacks++
		}
	}
	// An earliest run steps every member on its own (a product has no
	// earliest flags to decide the run with); a one-member set is its
	// member's own machine.
	if stacks > 0 && len(m.queries) > 1 && !opt.Earliest && !m.noProduct {
		if sp := m.stackedProduct(enc, opt.ForceStack, stats.Strategies); sp != nil {
			stats.Plan, stats.Workers, stats.ProductGroups = MultiPlanStacked, 1, 1
			if c != nil {
				c.StackFallbacks.Add(int64(stacks))
				c.ProductGroups.Inc()
			}
			return m.selectStacked(src, sp, c, stats, fn)
		}
	}
	evs := make([]core.Evaluator, len(m.queries))
	for i, q := range m.queries {
		s, _ := q.slot(semQL, enc, opt) // built above, where its error returned
		evs[i] = s.fork(c)
	}
	if opt.Workers > 1 {
		if opt.Earliest {
			// Chunk-parallel runs buffer the stream and emit at the join;
			// emission order survives the join, but only the safe
			// approximation's latency bound holds.
			stats.Earliest = EarliestApprox
		}
		plan := m.plan(evs, c)
		stats.ProductGroups = len(plan.Groups)
		return m.selectParallel(src, opt, evs, plan, stats, fn)
	}
	stats.Workers = 1
	plan := product.FanoutPlan(len(evs))
	if !opt.Earliest {
		plan = m.plan(evs, c)
	}
	stats.ProductGroups = len(plan.Groups)
	return m.selectBatched(src, evs, plan, opt.Earliest, c, stats, fn)
}

// stackedProduct returns the set's stacked product under enc and the
// ForceStack setting force, the members on tiers other than Stack
// poisoning, built on the first call (the tiers of a set are fixed per enc
// and force); nil when the product passes its cap, and the set keeps its
// grouped plan.
func (m *MultiQuery) stackedProduct(enc Encoding, force bool, tiers []Strategy) *core.StackedProduct {
	f := 0
	if force {
		f = 1
	}
	s := &m.stacked[enc][f]
	s.once.Do(func() {
		ds := make([]*dfa.DFA, len(m.queries))
		compiled := make([]bool, len(m.queries))
		for i, q := range m.queries {
			ds[i], compiled[i] = q.an.D, tiers[i] != Stack
		}
		// The one error a set of one DFA per member can meet is the cap
		// (ErrProductTooLarge), which leaves p nil: the grouped plan.
		s.p, _ = core.NewStackedProduct(ds, compiled, enc == TermEncoding)
	})
	return s.p
}

// flushMachines drains the counters the machines batch in plain fields
// (register loads and compares, stack pool reuse) into their collector.
func flushMachines(evs []core.Evaluator) {
	for _, ev := range evs {
		core.FlushEvObs(ev)
	}
}

// plan groups the evaluators into product groups (internal/product) through
// the shared LRU cache, or fans everything out when products are disabled.
func (m *MultiQuery) plan(evs []core.Evaluator, c *obs.Collector) product.Plan {
	if m.noProduct {
		return product.FanoutPlan(len(evs))
	}
	return product.BuildPlan(evs, product.Shared(), 0, c)
}

// selectBatched is the sequential multi-query pass: the document is read
// once, in batches of stream-local label ids (an identity Batcher), and
// each product group and loose machine codes every window of a batch
// through its own Remap — one alphabet lookup per distinct label, then one
// load per event — into a shared scratch batch and steps it whole; a
// product demultiplexes its hit masks into per-query hit lists. Matches
// are replayed from the per-query hit lists in (position, query) order.
// A window is the whole batch, or under earliest one event of an eager
// batch, so every match emits at its deciding Open (DESIGN.md §14); the
// mode is exact when every member carries earliest flags, and once all of
// them prove no further match the rest of the stream is only counted. An
// instrumented run stays on this path: the collector's event total flushes
// once per return, depths observe per open in a walk over each batch, and
// matches count as they emit.
//
//treelint:partial instrumented runs flush batched counters into obs
func (m *MultiQuery) selectBatched(src encoding.Source, evs []core.Evaluator, plan product.Plan, earliest bool, c *obs.Collector, stats MultiStats, fn func(MultiMatch)) (MultiStats, error) {
	n := len(evs)
	// decs holds every member's decider, or none when one member has no
	// earliest flags: the run is decided once all of them are.
	var decs []core.EarliestDecider
	if earliest {
		stats.Earliest = EarliestExact
		for _, ev := range evs {
			d, ok := ev.(core.EarliestDecider)
			if !ok {
				stats.Earliest, decs = EarliestApprox, nil
				break
			}
			decs = append(decs, d)
		}
	}
	loose := plan.Loose
	bes := make([]core.BatchEvaluator, len(loose))
	remaps := make([]encoding.Remap, len(loose))
	for li, q := range loose {
		bes[li] = evs[q].(core.BatchEvaluator)
	}
	groups := plan.Groups
	gevs := make([]*core.ProductEvaluator, len(groups))
	gremaps := make([]encoding.Remap, len(groups))
	ghits := make([][]int32, len(groups))
	gmasks := make([][]uint64, len(groups))
	for gi, g := range groups {
		gevs[gi] = g.Machine.Evaluator()
	}
	hits := make([][]int32, n)
	if c != nil {
		// Every machine steps on every event, as in the parallel fan-out —
		// a product steps once but counts for each member.
		defer func() {
			c.Events.Add(int64(stats.Events) * int64(n))
			flushMachines(evs)
		}()
	}
	var merge hitMerge
	var win, coded []encoding.CodedEvent
	emit := func(q, i int, mt Match) {
		stats.Matches[q]++
		if c != nil {
			c.Matches.Inc()
			// Decided at window index i, confirmed after the window's last
			// event.
			c.Latency.Observe(len(win) - 1 - i)
		}
		if fn != nil {
			fn(MultiMatch{Query: q, Match: mt})
		}
	}
	b := encoding.AcquireBatcher(src, nil, earliest)
	defer b.Release()
	pos, depth := -1, 0
	decided := false
	for {
		batch, opens, err := b.NextBatch()
		stats.Events += len(batch)
		names := b.Names()
		if cap(coded) < len(batch) {
			coded = make([]encoding.CodedEvent, len(batch))
		}
		wpos, wdepth := pos, depth // before the window
		for w := 0; w < len(batch) && !decided; {
			end := len(batch)
			if earliest {
				end = w + 1
			}
			win, coded = batch[w:end], coded[:end-w]
			for li, be := range bes {
				q := loose[li]
				remaps[li] = remaps[li].Extend(names, be.CodeAlphabet())
				remaps[li].Recode(coded, win)
				hits[q] = be.SelectBatch(coded, hits[q][:0])
			}
			for gi, gev := range gevs {
				g := &groups[gi]
				for _, q := range g.Queries {
					hits[q] = hits[q][:0]
				}
				gremaps[gi] = gremaps[gi].Extend(names, g.Machine.Alphabet())
				gremaps[gi].Recode(coded, win)
				ghits[gi], gmasks[gi] = gev.SelectBatchMasks(coded, ghits[gi][:0], gmasks[gi][:0])
				words := g.Machine.MaskWords()
				for h, j := range ghits[gi] {
					for wi, word := range gmasks[gi][h*words : (h+1)*words] {
						for word != 0 {
							q := g.Queries[wi*64+bits.TrailingZeros64(word)]
							word &= word - 1
							hits[q] = append(hits[q], j)
						}
					}
				}
			}
			merge.emit(win, names, hits, wpos, wdepth, emit)
			if w = end; w < len(batch) {
				for _, e := range win {
					k := int(e.Kind)
					wpos += 1 - k
					wdepth += 1 - 2*k
				}
			}
			decided = len(decs) > 0 && allDecided(decs)
		}
		if c != nil {
			d := depth
			for _, e := range batch {
				if e.Kind == encoding.Open {
					d++
					c.Depth.Observe(d)
				} else {
					d--
				}
			}
		}
		pos += opens
		depth += 2*opens - len(batch)
		if err == io.EOF {
			return stats, nil
		}
		if err != nil {
			return stats, err
		}
	}
}

// selectStacked is the stacked plan's pass (DESIGN.md §13): the document
// is read once, in batches coded under sp's union alphabet, one
// SelectStacked per batch steps the whole set, and each hit's members emit
// straight from its mask. An instrumented run counts as selectBatched's:
// the event total flushes once per return, depths observe per open in a
// walk over each batch, and matches count as they emit.
//
//treelint:partial instrumented runs flush batched counters into obs
func (m *MultiQuery) selectStacked(src encoding.Source, sp *core.StackedProduct, c *obs.Collector, stats MultiStats, fn func(MultiMatch)) (MultiStats, error) {
	if c != nil {
		// Every member steps on every event, as in the grouped plan.
		defer func() { c.Events.Add(int64(stats.Events) * int64(len(m.queries))) }()
	}
	var batch []encoding.CodedEvent
	emit := func(q, i int, mt Match) {
		stats.Matches[q]++
		if c != nil {
			c.Matches.Inc()
			// Decided at batch index i, confirmed after the batch's last
			// event.
			c.Latency.Observe(len(batch) - 1 - i)
		}
		if fn != nil {
			fn(MultiMatch{Query: q, Match: mt})
		}
	}
	alph, run := sp.Alphabet(), sp.Run()
	defer run.Release()
	b := encoding.AcquireBatcher(src, alph, false)
	defer b.Release()
	pos, depth := -1, 0
	for {
		var opens int
		var err error
		batch, opens, err = b.NextBatch()
		stats.Events += len(batch)
		emitStacked(batch, run.SelectStacked(batch, b.Hits()), run.HitMasks(), sp.MaskWords(), alph, pos, depth, emit)
		if c != nil {
			d := depth
			for _, e := range batch {
				if e.Kind == encoding.Open {
					d++
					c.Depth.Observe(d)
				} else {
					d--
				}
			}
		}
		pos += opens
		depth += 2*opens - len(batch)
		if err == io.EOF {
			return stats, nil
		}
		if err != nil {
			return stats, err
		}
	}
}

// emitStacked reports through fn a stacked window's matches in (position,
// query) order: hits are the ascending indices into events of the Opens
// the stacked product selected, masks their members' bitsets (words per
// hit), and pos and depth those before events[0]. A hit's label is in the
// union alphabet u its events are coded under: an Open outside it steps
// every member's DFA to its dead state.
func emitStacked(events []encoding.CodedEvent, hits []int32, masks []uint64, words int, u *alphabet.Alphabet, pos, depth int, fn func(q, i int, mt Match)) {
	k, closes := 0, 0 // events walked, Closes among them
	for h, i := range hits {
		for ; k <= int(i); k++ {
			closes += int(events[k].Kind)
		}
		o := k - closes // Opens up to and including the hit
		mt := Match{Pos: pos + o, Depth: depth + o - closes, Label: u.Symbol(int(events[i].Sym))}
		for wi, word := range masks[h*words : (h+1)*words] {
			for ; word != 0; word &= word - 1 {
				fn(wi*64+bits.TrailingZeros64(word), int(i), mt)
			}
		}
	}
}

// allDecided reports whether every member's run is decided.
func allDecided(decs []core.EarliestDecider) bool {
	for _, d := range decs {
		if !d.NoFutureMatches() {
			return false
		}
	}
	return true
}

// selectParallel reads the stream once into a buffer, runs the product
// groups and the loose queries over it on the shared worker pool, then
// merges the per-query hit lists back into the exact emission order of
// the sequential pass (position, then query index). The schedule gives
// each machine max(1, workers ÷ machines) chunks: a set with at least as
// many machines as workers runs each machine whole, as one leaf task on
// the pool; a smaller set also chunks each machine, its chunks the leaf
// tasks. A product group is one run for its whole member set
// (internal/product); each query of the group owns its own demuxed hit
// list, so the merge below is oblivious to how a list was produced. A hit
// is kept as its event index, 2·Pos + 1 − Depth (DESIGN.md §14), and the
// merge recovers the match from the buffer.
func (m *MultiQuery) selectParallel(src encoding.Source, opt Options, evs []core.Evaluator, plan product.Plan, stats MultiStats, fn func(MultiMatch)) (MultiStats, error) {
	c := opt.Collector
	buf, err := readChunked(src, c, len(evs))
	defer buf.Release()
	stats.Events = buf.Len()
	if err != nil {
		return stats, err
	}
	stats.Workers = opt.Workers
	pool := parallel.Shared()
	chunks := max(1, opt.Workers/(len(plan.Groups)+len(plan.Loose)))
	hits := make([][]int32, len(evs))
	var wg sync.WaitGroup
	// schedule starts one machine's run: a leaf task on the pool when it
	// runs whole, else a goroutine that submits its chunks and joins them.
	schedule := func(run func()) {
		wg.Add(1)
		task := func() {
			defer wg.Done()
			run()
		}
		if chunks == 1 {
			pool.Submit(task)
		} else {
			go task()
		}
	}
	// Each query index belongs to exactly one machine, so appends to hits
	// race with no other task.
	for gi := range plan.Groups {
		g := plan.Groups[gi]
		schedule(func() {
			product.SelectBuffer(pool, g.Machine, buf, chunks, c, func(bit int, cm core.Match) {
				q := g.Queries[bit]
				hits[q] = append(hits[q], int32(2*cm.Pos+1-cm.Depth))
			})
		})
	}
	for _, i := range plan.Loose {
		// Every QL machine a Query builds (tag DFA, stackless, pushdown)
		// is chunkable.
		i, cm := i, evs[i].(core.Chunkable)
		schedule(func() {
			parallel.SelectBuffer(pool, cm, buf, chunks, c, func(mt core.Match) {
				hits[i] = append(hits[i], int32(2*mt.Pos+1-mt.Depth))
			})
		})
	}
	wg.Wait()
	if c != nil {
		mergeStart := time.Now()
		defer func() {
			c.Phases[obs.PhaseMerge].Observe(time.Since(mergeStart))
		}()
	}
	var merge hitMerge
	merge.emit(buf.Events, buf.Names, hits, -1, 0, func(q, _ int, mt Match) {
		stats.Matches[q]++
		if fn != nil {
			fn(MultiMatch{Query: q, Match: mt})
		}
	})
	return stats, nil
}

// hitMerge merges per-query hit lists into the emission order of the
// sequential pass — ascending position, then query index — through a
// binary heap of the lists' heads: O(log queries) per match, with no scan
// over every query.
type hitMerge struct {
	heap []int // queries with hits left, a min-heap on (next hit, query)
	next []int // per query, the index of its first unmerged hit
}

// emit reports through fn the matches in hits — per query, the ascending
// indices into events of the Opens it selected — in (position, query)
// order, with each hit's index. pos and depth are the position and depth
// before events[0]; one walk up to the last hit recovers each match's,
// and its label is names[Sym], the events holding stream-local label ids.
func (h *hitMerge) emit(events []encoding.CodedEvent, names []string, hits [][]int32, pos, depth int, fn func(q, i int, mt Match)) {
	if cap(h.next) < len(hits) {
		h.next = make([]int, len(hits))
	}
	h.heap, h.next = h.heap[:0], h.next[:len(hits)]
	clear(h.next)
	for q := range hits {
		if len(hits[q]) > 0 {
			h.heap = append(h.heap, q)
		}
	}
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(hits, i)
	}
	k, closes := 0, 0 // events walked, Closes among them
	for len(h.heap) > 0 {
		q := h.heap[0]
		i := int(hits[q][h.next[q]])
		if h.next[q]++; h.next[q] == len(hits[q]) {
			last := len(h.heap) - 1
			h.heap[0] = h.heap[last]
			h.heap = h.heap[:last]
		}
		h.down(hits, 0)
		for ; k <= i && k < len(events); k++ {
			closes += int(events[k].Kind)
		}
		o := k - closes // Opens up to and including the hit
		fn(q, i, Match{Pos: pos + o, Depth: depth + o - closes, Label: names[events[i].Sym]})
	}
}

// down restores the heap order below slot i.
func (h *hitMerge) down(hits [][]int32, i int) {
	less := func(a, b int) bool {
		x, y := hits[a][h.next[a]], hits[b][h.next[b]]
		return x < y || x == y && a < b
	}
	for {
		l := 2*i + 1
		if l >= len(h.heap) {
			return
		}
		if r := l + 1; r < len(h.heap) && less(h.heap[r], h.heap[l]) {
			l = r
		}
		if !less(h.heap[l], h.heap[i]) {
			return
		}
		h.heap[i], h.heap[l] = h.heap[l], h.heap[i]
		i = l
	}
}
