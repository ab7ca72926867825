package parallel

import (
	"sort"
	"sync"
	"time"

	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/obs"
)

// piece is a maximal slice of a chunk: either a summarized segment (seg),
// simulated concurrently from every control state, or a single boundary
// event (hi == lo+1) replayed on the real configuration at join time.
// Which events are boundaries is the machine's CutPolicy.
type piece struct {
	lo, hi int
	seg    bool
	opens  int // Open events in [lo,hi) (segments)
	delta  int // net depth change over [lo,hi) (segments)
	exits  []core.SegmentExit
	cands  *core.CandSet
}

// SplitPoints returns the interior cut positions for an even split of n
// events into the given number of chunks (deduplicated, strictly inside
// (0, n)).
func SplitPoints(n, chunks int) []int {
	var cuts []int
	for i := 1; i < chunks; i++ {
		c := i * n / chunks
		if c <= 0 || c >= n || (len(cuts) > 0 && cuts[len(cuts)-1] == c) {
			continue
		}
		cuts = append(cuts, c)
	}
	return cuts
}

// SanitizeCuts sorts, bounds and deduplicates explicit cut positions —
// fuzzers hand in arbitrary ints — keeping those strictly inside (0, n).
// The product engine (internal/product) cleans its cuts through it too.
func SanitizeCuts(cuts []int, n int) []int {
	out := make([]int, 0, len(cuts))
	for _, c := range cuts {
		if c > 0 && c < n {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	w := 0
	for i, c := range out {
		if i > 0 && out[w-1] == c {
			continue
		}
		out[w] = c
		w++
	}
	return out[:w]
}

// cutPieces scans one chunk and splits it into pieces per the policy. The
// depth is tracked relative to the chunk entry.
//
//treelint:plain
func cutPieces(events []encoding.CodedEvent, lo, hi int, policy core.CutPolicy) []piece {
	var pieces []piece
	segLo := lo
	//treelint:partial piece-list assembly: the closure and its appends are O(pieces), not O(events)
	flush := func(end int) {
		if end > segLo {
			pieces = append(pieces, piece{lo: segLo, hi: end, seg: true})
		}
	}
	depth := 0
	threshold := 0 // running min (CutNewMin) or segment entry (CutBelowEntry)
	for i := lo; i < hi; i++ {
		if events[i].Kind == encoding.Open {
			depth++
			continue
		}
		depth--
		boundary := false
		switch policy {
		case core.CutNewMin, core.CutBoundedDepth:
			// CutBoundedDepth (the speculative pushdown) shares the
			// new-minimum rule: within a segment the depth never drops
			// below the entry, so every in-segment close pops an
			// in-segment frame and the summary is composable.
			boundary = depth < threshold
		case core.CutBelowEntry:
			boundary = depth <= threshold
		case core.CutNone, core.CutAll:
			// CutNone keeps the chunk whole; CutAll is resolved by the
			// caller before scanning (every close is a piece boundary).
		}
		if boundary {
			flush(i)
			//treelint:partial one piece record per cut boundary, O(pieces) not O(events)
			pieces = append(pieces, piece{lo: i, hi: i + 1})
			segLo = i + 1
			threshold = depth
		}
	}
	flush(hi)
	return pieces
}

// summarize simulates every segment piece of a chunk on a forked machine,
// filling exits, opens/delta and (when wantMatches) the candidate sets.
// Machines with a coded kernel simulate over coded, the chunk's events in
// the machine's codes (index-aligned with the buffer) — the hot path of
// the compiled pipeline under parallel evaluation; the others step each
// segment's events, labels restored from the buffer, one control state at
// a time.
func summarize(m core.Chunkable, buf *encoding.Buffer, coded []encoding.CodedEvent, pieces []piece, wantMatches bool) {
	kernel, hasKernel := m.(core.CodedSegmentKernel)
	var seg []encoding.Event
	for pi := range pieces {
		pc := &pieces[pi]
		if !pc.seg {
			continue
		}
		for _, e := range buf.Events[pc.lo:pc.hi] {
			if e.Kind == encoding.Open {
				pc.opens++
				pc.delta++
			} else {
				pc.delta--
			}
		}
		var cands *core.CandSet
		if wantMatches {
			cands = core.NewCandSet(m.ChunkStates())
		}
		if hasKernel {
			pc.exits = kernel.SimulateSegmentCoded(coded[pc.lo:pc.hi], cands)
		} else {
			seg = seg[:0]
			for i := pc.lo; i < pc.hi; i++ {
				seg = append(seg, buf.Event(i))
			}
			pc.exits = core.SimulateSegmentGeneric(m, seg, cands)
		}
		pc.cands = cands
	}
}

// MaxDepth returns the maximum nesting depth reached over the event
// stream (one linear scan; stray closes below the start do not go
// negative for the purpose of the maximum).
func MaxDepth(events []encoding.Event) int {
	buf := encoding.BufferEvents(events)
	defer buf.Release()
	return maxDepth(buf.Events)
}

func maxDepth(events []encoding.CodedEvent) int {
	depth, max := 0, 0
	for _, e := range events {
		if e.Kind == encoding.Open {
			depth++
			if depth > max {
				max = depth
			}
		} else if depth > 0 {
			// Stray closes below the start are the machines' empty-stack
			// no-op; they must not offset the depths of later opens.
			depth--
		}
	}
	return max
}

// SpeculationViable reports whether a CutBoundedDepth machine should fan
// out over the stream rather than degrade to the sequential coded run.
// Speculative segment simulation costs O(states) per event and the join
// replays one boundary per new-minimum close (at most maxDepth per
// chunk), so it only pays off when the stream's depth is small against
// the chunk size. The 4× factor is the break-even margin: with D·chunks
// boundaries at worst, segments must dominate by enough to amortize the
// all-states overhead.
func SpeculationViable(events []encoding.Event, chunks int) bool {
	buf := encoding.BufferEvents(events)
	defer buf.Release()
	return speculationViable(buf, chunks)
}

// speculationViable is SpeculationViable over a buffered stream.
func speculationViable(buf *encoding.Buffer, chunks int) bool {
	if chunks <= 1 || buf.Len() == 0 {
		return false
	}
	return 4*maxDepth(buf.Events)*chunks <= buf.Len()
}

// runWhole is the run without cuts: one pass on the calling goroutine
// through the compiled pipeline, identical to core.SelectCoded over the
// stream. The buffer is coded one DefaultBatch window at a time into a
// scratch batch. A window's position and depth move by its Open count,
// and its events are walked, counting Closes without a branch, only up to
// its last hit.
//
//treelint:plain
func runWhole(be core.BatchEvaluator, buf *encoding.Buffer, remap encoding.Remap, fn func(core.Match)) {
	be.Reset()
	events := buf.Events
	//treelint:partial one window-sized scratch batch per run
	batch := make([]encoding.CodedEvent, min(encoding.DefaultBatch, len(events)))
	var hits []int32
	pos, depth := -1, 0 // before the window
	for lo := 0; lo < len(events); lo += len(batch) {
		win := events[lo:min(lo+len(batch), len(events))]
		coded := batch[:len(win)]
		opens := remap.Recode(coded, win)
		if fn == nil {
			be.StepBatch(coded)
			continue
		}
		hits = be.SelectBatch(coded, hits[:0])
		k, closes := 0, 0 // events of the window walked, Closes among them
		for _, h := range hits {
			for ; k <= int(h) && k < len(win); k++ {
				closes += int(win[k].Kind)
			}
			o := k - closes // Opens up to and including the hit
			fn(core.Match{Pos: pos + o, Depth: depth + o - closes, Label: buf.Names[win[h].Sym]})
		}
		pos += opens
		depth += 2*opens - len(win)
	}
}

// run chunks the buffered stream at the given interior cuts, summarizes
// the chunks on the pool, and joins left to right, leaving m in its final
// configuration and reporting matches to fn (when non-nil) in document
// order. The output is byte-identical to the sequential run regardless of
// cuts, pool size or scheduling. A run without cuts is one whole pass; it
// counts as a sequential fallback unless planned says the caller chose it
// (the multi-query schedule, which gives each machine a worker of its own).
//
// A non-nil collector receives the chunking metrics: events and matches,
// chunks/segments/boundary counts (SegmentEvents + BoundaryEvents always
// equals the event count for a fanned-out run), per-policy run counts,
// split/simulate/join phase timings and the pool gauges. A nil collector
// is a handful of predictable branches and zero allocations.
func run(p *Pool, m core.Chunkable, buf *encoding.Buffer, cuts []int, planned bool, c *obs.Collector, fn func(core.Match)) {
	events := buf.Events
	policy := m.Cut()
	requested := len(cuts)
	cuts = SanitizeCuts(cuts, len(events))
	if c != nil {
		// Machines batch per-run metrics (register loads, pool hits) in
		// plain fields; drain them however the run exits.
		defer core.FlushEvObs(m)
		c.Events.Add(int64(len(events)))
		c.RunsByPolicy[policy].Inc()
		c.CutsRejected.Add(int64(requested - len(cuts)))
		if fn != nil {
			inner := fn
			total := len(events)
			fn = func(mt core.Match) {
				c.Matches.Inc()
				// The parallel engine confirms all matches at the end-of-
				// stream join. The deciding Open's event index recovers from
				// the match itself: opens before it = Pos, closes before it
				// = Pos+1-Depth, so it is event 2·Pos+1-Depth of the stream.
				c.Latency.Observe(total - 2*mt.Pos - 2 + mt.Depth)
				inner(mt)
			}
		}
	}
	remap := buf.Remap(m.CodeAlphabet())
	if policy == core.CutAll || len(cuts) == 0 {
		// CutAll: every event would be a boundary, so the join would replay
		// the whole stream anyway; skip the summaries.
		if c != nil && !planned {
			c.SeqFallbacks.Inc()
		}
		runWhole(m, buf, remap, fn)
		return
	}
	var coded []encoding.CodedEvent
	if _, ok := m.(core.CodedSegmentKernel); ok {
		// Each chunk task codes its own range.
		coded = encoding.AcquireEvents(len(events))
		defer encoding.ReleaseEvents(coded)
	}
	bounds := make([]int, 0, len(cuts)+2)
	bounds = append(bounds, 0)
	bounds = append(bounds, cuts...)
	bounds = append(bounds, len(events))

	chunkPieces := make([][]piece, len(bounds)-1)
	var wg sync.WaitGroup
	wantMatches := fn != nil
	var fanout time.Time
	if c != nil {
		c.ParallelRuns.Inc()
		c.Chunks.Add(int64(len(bounds) - 1))
		if policy == core.CutBoundedDepth {
			c.SpecChunks.Add(int64(len(bounds) - 1))
		}
		c.PoolWorkers.Store(int64(p.Workers()))
		fanout = time.Now()
	}
	for ci := 0; ci < len(bounds)-1; ci++ {
		ci := ci
		lo, hi := bounds[ci], bounds[ci+1]
		fork := m.Fork()
		if c != nil {
			c.PoolSubmits.Inc()
			c.QueueDepth.Observe(p.QueueLen())
		}
		wg.Add(1)
		p.Submit(func() {
			defer wg.Done()
			if c == nil {
				pieces := cutPieces(events, lo, hi, policy)
				if coded != nil {
					remap.Recode(coded[lo:hi], events[lo:hi])
				}
				summarize(fork, buf, coded, pieces, wantMatches)
				chunkPieces[ci] = pieces
				return
			}
			t0 := time.Now()
			pieces := cutPieces(events, lo, hi, policy)
			t1 := time.Now()
			if coded != nil {
				remap.Recode(coded[lo:hi], events[lo:hi])
			}
			summarize(fork, buf, coded, pieces, wantMatches)
			t2 := time.Now()
			c.Phases[obs.PhaseSplit].Observe(t1.Sub(t0))
			c.Phases[obs.PhaseSimulate].Observe(t2.Sub(t1))
			c.WorkerBusyNs.Add(t2.Sub(t0).Nanoseconds())
			var segs, segEvents, boundaries int64
			for pi := range pieces {
				if pieces[pi].seg {
					segs++
					segEvents += int64(pieces[pi].hi - pieces[pi].lo)
				} else {
					boundaries++
				}
			}
			c.Segments.Add(segs)
			c.SegmentEvents.Add(segEvents)
			c.BoundaryEvents.Add(boundaries)
			chunkPieces[ci] = pieces
		})
	}
	wg.Wait()
	var joinStart time.Time
	if c != nil {
		now := time.Now()
		c.FanoutWallNs.Add(now.Sub(fanout).Nanoseconds())
		joinStart = now
		defer func() {
			c.Phases[obs.PhaseJoin].Observe(time.Since(joinStart))
		}()
	}

	m.Reset()
	pos, depth := -1, 0
	// A boundary event is replayed as a one-event coded batch.
	one := make([]encoding.CodedEvent, 1)
	hits := make([]int32, 0, 1)
	for _, pieces := range chunkPieces {
		for pi := range pieces {
			pc := &pieces[pi]
			q := m.JoinState()
			if q < 0 {
				// Poison is absorbing and never accepting: no machine that
				// reports -1 can select or accept later. (The AL wrapper,
				// whose dead-inner runs may still accept, never reports -1.)
				return
			}
			if !pc.seg {
				opens := remap.Recode(one, events[pc.lo:pc.lo+1])
				pos += opens
				depth += 2*opens - 1
				if fn == nil {
					m.StepBatch(one)
				} else if hits = m.SelectBatch(one, hits[:0]); len(hits) > 0 {
					fn(core.Match{Pos: pos, Depth: depth, Label: buf.Label(pc.lo)})
				}
				continue
			}
			if fn != nil {
				for i, cand := range pc.cands.Cands {
					if pc.cands.Has(i, q) {
						fn(core.Match{
							Pos:   pos + 1 + int(cand.Opens),
							Depth: depth + int(cand.Depth),
							Label: buf.Label(pc.lo + int(cand.Idx)),
						})
					}
				}
			}
			m.ApplySegment(pc.exits[q], pc.delta)
			pos += pc.opens
			depth += pc.delta
		}
	}
}

// evenCuts is the even split of buf into the given number of chunks, as
// the run makes it: the interior cuts, and why the run does not fan out
// on an exact summary, in Stats.Fallback's words — "cutall" (every event
// is a boundary), "short" (too few events to cut), "deep" (a
// CutBoundedDepth machine, the speculative pushdown, whose stream is too
// deep against the chunk size: it only fans out when SpeculationViable
// holds), "speculative" (it fans out speculatively), or "". The
// explicit-cut entry points (SelectAt and friends) bypass the gate on
// purpose — they are the adversarial-boundary harness and must be able to
// force speculative fan-out on any stream.
func evenCuts(m core.Chunkable, buf *encoding.Buffer, chunks int) ([]int, string) {
	cuts := SplitPoints(buf.Len(), chunks)
	switch policy := m.Cut(); {
	case policy == core.CutAll:
		return nil, "cutall"
	case len(cuts) == 0:
		return nil, "short"
	case policy != core.CutBoundedDepth:
		return cuts, ""
	case !speculationViable(buf, len(cuts)+1):
		return nil, "deep"
	}
	return cuts, "speculative"
}

// SelectBuffer evaluates a node-selecting machine over a buffered stream in
// the given number of chunks, reporting matches in document order and
// chunking metrics into a collector (nil: zero overhead; see
// internal/obs). chunks <= 1 is a planned whole-machine run — the
// multi-query schedule, which gives each machine a worker of its own — and
// not a sequential fallback. It returns the chunks the run made and the
// fallback it took (see evenCuts).
func SelectBuffer(p *Pool, m core.Chunkable, buf *encoding.Buffer, chunks int, c *obs.Collector, fn func(core.Match)) (int, string) {
	cuts, fallback := evenCuts(m, buf, chunks)
	run(p, m, buf, cuts, chunks <= 1, c, countingFn(c, fn))
	return len(cuts) + 1, fallback
}

// The entry points below take an event slice, intern it into a Buffer
// (encoding.BufferEvents), run the buffered engine and release the buffer;
// a run without cuts counts as a sequential fallback whatever the chunk
// count asked.

// Select evaluates a node-selecting machine over the events in the given
// number of chunks, reporting matches in document order. The match set is
// identical to core.Select's.
func Select(p *Pool, m core.Chunkable, events []encoding.Event, chunks int, fn func(core.Match)) {
	SelectObs(p, m, events, chunks, nil, fn)
}

// SelectObs is Select reporting chunking metrics into a collector (nil:
// zero overhead; see internal/obs).
func SelectObs(p *Pool, m core.Chunkable, events []encoding.Event, chunks int, c *obs.Collector, fn func(core.Match)) {
	buf := encoding.BufferEvents(events)
	defer buf.Release()
	cuts, _ := evenCuts(m, buf, chunks)
	run(p, m, buf, cuts, false, c, countingFn(c, fn))
}

// countingFn keeps Matches counted even for callers that discard matches —
// core.SelectObs counts matches with a nil callback, and the parallel
// engine only collects match candidates when a callback is present, so an
// instrumented nil callback is promoted to a no-op one.
func countingFn(c *obs.Collector, fn func(core.Match)) func(core.Match) {
	if c != nil && fn == nil {
		return func(core.Match) {}
	}
	return fn
}

// SelectAt is Select with explicit interior cut positions — the
// adversarial-boundary entry point for tests and fuzzing.
func SelectAt(p *Pool, m core.Chunkable, events []encoding.Event, cuts []int, fn func(core.Match)) {
	SelectAtObs(p, m, events, cuts, nil, fn)
}

// SelectAtObs is SelectAt reporting chunking metrics into a collector —
// out-of-range cuts count into CutsRejected.
func SelectAtObs(p *Pool, m core.Chunkable, events []encoding.Event, cuts []int, c *obs.Collector, fn func(core.Match)) {
	buf := encoding.BufferEvents(events)
	defer buf.Release()
	run(p, m, buf, cuts, false, c, countingFn(c, fn))
}

// SelectPositions runs Select and collects the selected preorder positions.
func SelectPositions(p *Pool, m core.Chunkable, events []encoding.Event, chunks int) []int {
	var out []int
	Select(p, m, events, chunks, func(mt core.Match) { out = append(out, mt.Pos) })
	return out
}

// Recognize evaluates a tree-language machine over the events in the given
// number of chunks and returns the final acceptance.
func Recognize(p *Pool, m core.Chunkable, events []encoding.Event, chunks int) bool {
	return RecognizeObs(p, m, events, chunks, nil)
}

// RecognizeObs is Recognize reporting chunking metrics into a collector.
func RecognizeObs(p *Pool, m core.Chunkable, events []encoding.Event, chunks int, c *obs.Collector) bool {
	buf := encoding.BufferEvents(events)
	defer buf.Release()
	cuts, _ := evenCuts(m, buf, chunks)
	run(p, m, buf, cuts, false, c, nil)
	return m.Accepting()
}

// RecognizeAt is Recognize with explicit interior cut positions.
func RecognizeAt(p *Pool, m core.Chunkable, events []encoding.Event, cuts []int) bool {
	buf := encoding.BufferEvents(events)
	defer buf.Release()
	run(p, m, buf, cuts, false, nil, nil)
	return m.Accepting()
}
