package stackless

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"time"

	"stackless/internal/alphabet"
	"stackless/internal/core"
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

// MultiQuery is a set of compiled queries evaluated together. Compatible
// registerless queries are merged into product automata (DESIGN.md §13) and
// stepped once per event for the whole group; the rest fan out as before.
//
// Each member runs an instance of its Query's machine, built once on that
// query's first use, so repeated calls on the same set find its product in
// the shared product cache instead of recompiling it. A MultiQuery is safe
// for concurrent use by multiple goroutines.
type MultiQuery struct {
	queries []*Query

	// noProduct disables product compilation, forcing the pre-§13 fan-out.
	// Unexported: it exists for the differential tests and the benchmark
	// baseline, not as API — fan-out is never preferable when a product
	// compiles.
	noProduct bool
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

// MultiStats describes a multi-query run.
type MultiStats struct {
	// Strategies per query.
	Strategies []Strategy
	// Events processed once for the whole batch.
	Events int
	// Matches per query.
	Matches []int
	// Workers the run was spread over (1 = sequential pass);
	// Options.Workers clamped to GOMAXPROCS, as in Stats. The machines run
	// concurrently on them, each in max(1, Workers ÷ machines) chunks, so a
	// set with at least as many machines as workers chunks none.
	Workers int
	// Pipeline actually used: PipelineString when the sequential per-event
	// earliest pass ran (Options.Earliest with Workers 1), PipelineCoded
	// otherwise — every query's machine compiles, and the sequential pass
	// steps each machine (or product group) in whole coded batches,
	// instrumented runs included.
	Pipeline Pipeline
	// ProductGroups is the number of product automata the query set was
	// merged into (0 when every query ran loose — singletons, incompatible
	// families, products over the state cap, or the per-event string path,
	// which never products).
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
	evs := make([]core.Evaluator, len(m.queries))
	for i, q := range m.queries {
		var err error
		evs[i], stats.Strategies[i], err = q.machine(semQL, enc, opt)
		if err != nil {
			return stats, fmt.Errorf("query %d (%s): %w", i, q, err)
		}
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
	if !opt.Earliest {
		plan := m.plan(evs, c)
		stats.ProductGroups = len(plan.Groups)
		return m.selectBatched(src, evs, plan, c, stats, fn)
	}
	stats.Pipeline = PipelineString
	// Earliest emission runs the per-event pass — it already emits every
	// match at its deciding Open — plus the early-exit check: once every
	// machine proves no further match is possible, stepping stops and the
	// rest of the stream only drains (event accounting and the balance
	// guard are unchanged). The mode is exact only when every machine
	// carries earliest flags; one approximated member never decides, so
	// the whole set degrades to the safe approximation.
	var deciders []core.EarliestDecider
	if opt.Earliest {
		stats.Earliest = EarliestExact
		deciders = make([]core.EarliestDecider, len(evs))
		for i, ev := range evs {
			if d, ok := ev.(core.EarliestDecider); ok {
				deciders[i] = d
			} else {
				stats.Earliest = EarliestApprox
			}
		}
	}
	decided := false
	pos := -1
	depth := 0
	// Every machine steps on every event, so the collector counts events
	// per machine (matching the parallel fan-out, where each query is its
	// own pass over the buffered events).
	if c != nil {
		defer func() {
			c.Events.Add(int64(stats.Events) * int64(len(evs)))
			flushMachines(evs)
		}()
	}
	for {
		e, err := src.Next()
		if err == io.EOF {
			return stats, nil
		}
		if err != nil {
			return stats, err
		}
		stats.Events++
		if e.Kind == encoding.Open {
			pos++
			depth++
			if c != nil {
				c.Depth.Observe(depth)
			}
		} else {
			depth--
		}
		if decided {
			continue
		}
		for i, ev := range evs {
			ev.Step(e)
			if e.Kind == encoding.Open && ev.Accepting() {
				stats.Matches[i]++
				if c != nil {
					c.Matches.Inc()
					c.Latency.Observe(0)
				}
				if fn != nil {
					fn(MultiMatch{Query: i, Match: Match{Pos: pos, Depth: depth, Label: e.Label}})
				}
			}
		}
		if stats.Earliest == EarliestExact {
			decided = true
			for _, d := range deciders {
				if !d.NoFutureMatches() {
					decided = false
					break
				}
			}
		}
	}
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

// selectBatched is the compiled fast path of the sequential multi-query
// pass: the document is read in batches; each product group codes the batch
// once under its shared union alphabet and steps its product whole,
// demultiplexing hit masks into per-query hit lists, while loose machines
// code and step individually as before. Matches are replayed from the
// per-query hit lists in the exact (position, query) order of the per-event
// pass. An instrumented run stays on this path: the collector's event total
// flushes once per return, depths observe per open during the replay walk
// (forced even on hitless batches), and matches count as they emit —
// counter for counter what the per-event pass reports.
//
//treelint:partial instrumented runs flush batched counters into obs
func (m *MultiQuery) selectBatched(src encoding.Source, evs []core.Evaluator, plan product.Plan, c *obs.Collector, stats MultiStats, fn func(MultiMatch)) (MultiStats, error) {
	n := len(evs)
	loose := plan.Loose
	bes := make([]core.BatchEvaluator, len(loose))
	coders := make([]*alphabet.Coder, len(loose))
	coded := make([][]encoding.CodedEvent, len(loose))
	for li, q := range loose {
		bes[li] = evs[q].(core.BatchEvaluator)
		coders[li] = alphabet.NewCoder(bes[li].CodeAlphabet())
	}
	groups := plan.Groups
	gevs := make([]*core.ProductEvaluator, len(groups))
	gcoders := make([]*alphabet.Coder, len(groups))
	gcoded := make([][]encoding.CodedEvent, len(groups))
	ghits := make([][]int32, len(groups))
	gmasks := make([][]uint64, len(groups))
	for gi, g := range groups {
		gevs[gi] = g.Machine.Evaluator()
		gcoders[gi] = alphabet.NewCoder(g.Machine.Alphabet())
	}
	hits := make([][]int32, n)
	next := make([]int, n)
	if c != nil {
		// Every machine steps on every event, as in the per-event pass and
		// the parallel fan-out — a product steps once but counts for each
		// member.
		defer func() {
			c.Events.Add(int64(stats.Events) * int64(n))
			flushMachines(evs)
		}()
	}
	batch := make([]encoding.Event, 0, encoding.DefaultBatch)
	pos, depth := -1, 0
	for {
		batch = batch[:0]
		opens := 0
		var srcErr error
		for len(batch) < encoding.DefaultBatch {
			e, err := src.Next()
			if err != nil {
				srcErr = err
				break
			}
			if e.Kind == encoding.Open {
				opens++
			}
			batch = append(batch, e)
		}
		if len(batch) > 0 {
			stats.Events += len(batch)
			anyHits := false
			for li := range bes {
				q := loose[li]
				coded[li] = encoding.CodeEvents(coders[li], batch, coded[li][:0])
				hits[q] = bes[li].SelectBatch(coded[li], hits[q][:0])
				next[q] = 0
				anyHits = anyHits || len(hits[q]) > 0
			}
			for gi := range gevs {
				g := &groups[gi]
				for _, q := range g.Queries {
					hits[q] = hits[q][:0]
					next[q] = 0
				}
				gcoded[gi] = encoding.CodeEvents(gcoders[gi], batch, gcoded[gi][:0])
				ghits[gi], gmasks[gi] = gevs[gi].SelectBatchMasks(gcoded[gi], ghits[gi][:0], gmasks[gi][:0])
				words := g.Machine.MaskWords()
				for h, j := range ghits[gi] {
					for wi, word := range gmasks[gi][h*words : (h+1)*words] {
						for word != 0 {
							q := g.Queries[wi*64+bits.TrailingZeros64(word)]
							word &= word - 1
							hits[q] = append(hits[q], j)
							anyHits = true
						}
					}
				}
			}
			if !anyHits && c == nil {
				pos += opens
				depth += 2*opens - len(batch)
			} else {
				for j := range batch {
					if batch[j].Kind != encoding.Open {
						depth--
						continue
					}
					pos++
					depth++
					if c != nil {
						c.Depth.Observe(depth)
					}
					for q := 0; q < n; q++ {
						if next[q] < len(hits[q]) && hits[q][next[q]] == int32(j) {
							next[q]++
							stats.Matches[q]++
							if c != nil {
								c.Matches.Inc()
								// Batched emission: decided at batch index
								// j, confirmed after index len(batch)-1.
								c.Latency.Observe(len(batch) - 1 - j)
							}
							if fn != nil {
								fn(MultiMatch{Query: q, Match: Match{Pos: pos, Depth: depth, Label: batch[j].Label}})
							}
						}
					}
				}
			}
		}
		if srcErr == io.EOF {
			return stats, nil
		}
		if srcErr != nil {
			return stats, srcErr
		}
	}
}

// selectParallel reads the stream once into a buffer, runs the product
// groups and the loose queries over it on the shared worker pool, then
// merges the per-query match streams back into the exact emission order of
// the sequential pass (position, then query index). The schedule gives
// each machine max(1, workers ÷ machines) chunks: a set with at least as
// many machines as workers runs each machine whole, as one leaf task on
// the pool; a smaller set also chunks each machine, its chunks the leaf
// tasks. A product group is one run for its whole member set
// (internal/product); each query of the group owns its own demuxed stream,
// so the merge below is oblivious to how a stream was produced.
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
	perQuery := make([][]Match, len(evs))
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
	// Each query index belongs to exactly one machine, so appends to
	// perQuery race with no other task.
	for gi := range plan.Groups {
		g := plan.Groups[gi]
		schedule(func() {
			product.SelectBuffer(pool, g.Machine, buf, chunks, c, func(bit int, cm core.Match) {
				q := g.Queries[bit]
				perQuery[q] = append(perQuery[q], Match{Pos: cm.Pos, Depth: cm.Depth, Label: cm.Label})
			})
		})
	}
	for _, i := range plan.Loose {
		// Every QL machine a Query builds (tag DFA, stackless, pushdown)
		// is chunkable.
		i, cm := i, evs[i].(core.Chunkable)
		schedule(func() {
			parallel.SelectBuffer(pool, cm, buf, chunks, c, func(mt core.Match) {
				perQuery[i] = append(perQuery[i], Match{Pos: mt.Pos, Depth: mt.Depth, Label: mt.Label})
			})
		})
	}
	wg.Wait()
	var mergeStart time.Time
	if c != nil {
		mergeStart = time.Now()
		defer func() {
			c.Phases[obs.PhaseMerge].Observe(time.Since(mergeStart))
		}()
	}
	next := make([]int, len(perQuery))
	for {
		best := -1
		for qi := range perQuery {
			if next[qi] >= len(perQuery[qi]) {
				continue
			}
			if best < 0 || perQuery[qi][next[qi]].Pos < perQuery[best][next[best]].Pos {
				best = qi
			}
		}
		if best < 0 {
			return stats, nil
		}
		mt := perQuery[best][next[best]]
		next[best]++
		stats.Matches[best]++
		if fn != nil {
			fn(MultiMatch{Query: best, Match: mt})
		}
	}
}
