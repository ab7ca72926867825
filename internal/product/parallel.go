package product

import (
	"math/bits"
	"sort"
	"sync"
	"time"

	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/obs"
	"stackless/internal/parallel"
)

// Chunk-parallel evaluation of a product. The generic engine of
// internal/parallel cannot drive a product: its candidate sets record
// "some entry state accepts here", but a product match needs the member
// bitset of the actual run, which depends on the chunk's true entry state.
// So products run a two-phase schedule on the same pool:
//
//  1. every chunk after the first is simulated from all product states at
//     once (SimulateChunkCoded), giving its entry→exit map, while the first
//     chunk — whose entry is the start state — runs its selection pass
//     directly;
//  2. the entry→exit maps compose left to right (O(workers) serial work)
//     to pin each chunk's entry, and the remaining chunks run their
//     selection pass from it, collecting hit positions and member masks.
//
// The chunks' hits are then emitted in order, rebased to document-global
// preorder positions and depths via per-chunk open/depth prefix sums —
// bit for bit and event for event the sequential product pass.

// relHit is one chunk-local hit: the chunk-relative event index of the
// matched Open, its chunk-relative preorder position (0-based among the
// chunk's opens) and its depth relative to the chunk entry.
type relHit struct {
	idx   int32
	pos   int
	depth int
}

// chunkResult is one chunk's selection pass: its hits with their masks
// (MaskWords words per hit, parallel to rel), the chunk's open count and
// depth delta for rebasing later chunks, and the product state at exit.
type chunkResult struct {
	rel   []relHit
	masks []uint64
	opens int
	delta int
	exit  int32
}

// windows codes events [lo, hi) of buf through remap one DefaultBatch
// window at a time into a scratch batch and calls fn with each coded window
// and the buffer index of its first event. It returns the Opens among the
// events.
func windows(buf *encoding.Buffer, remap encoding.Remap, lo, hi int, fn func(coded []encoding.CodedEvent, at int)) int {
	batch := make([]encoding.CodedEvent, min(encoding.DefaultBatch, hi-lo))
	opens := 0
	for at := lo; at < hi; at += len(batch) {
		win := buf.Events[at:min(at+len(batch), hi)]
		coded := batch[:len(win)]
		opens += remap.Recode(coded, win)
		fn(coded, at)
	}
	return opens
}

// selectChunk runs the product over events [lo, hi) of buf from the given
// entry state, collecting hits, masks, and the chunk's opens/delta/exit.
func selectChunk(pd *core.ProductDFA, buf *encoding.Buffer, remap encoding.Remap, lo, hi int, entry int32) chunkResult {
	ev := pd.EvaluatorAt(entry)
	var res chunkResult
	var hits []int32
	res.opens = windows(buf, remap, lo, hi, func(coded []encoding.CodedEvent, at int) {
		nh := len(hits)
		hits, res.masks = ev.SelectBatchMasks(coded, hits, res.masks)
		for j := nh; j < len(hits); j++ {
			hits[j] += int32(at - lo)
		}
	})
	res.exit = ev.State()
	res.delta = 2*res.opens - (hi - lo)
	// One walk up to the last hit, counting Closes, turns hit indices into
	// chunk-relative (position, depth) pairs.
	res.rel = make([]relHit, len(hits))
	events := buf.Events[lo:hi]
	k, closes := 0, 0
	for j, h := range hits {
		for ; k <= int(h) && k < len(events); k++ {
			closes += int(events[k].Kind)
		}
		res.rel[j] = relHit{idx: h, pos: k - closes - 1, depth: k - 2*closes}
	}
	return res
}

// chunkExits runs events [lo, hi) of buf from every product state at once
// and returns the exit state per entry state, composing the windows' maps.
func chunkExits(pd *core.ProductDFA, buf *encoding.Buffer, remap encoding.Remap, lo, hi int) []int32 {
	ev := pd.Evaluator()
	var exits, win []int32
	windows(buf, remap, lo, hi, func(coded []encoding.CodedEvent, _ int) {
		win = ev.SimulateChunkCoded(coded, win)
		if exits == nil {
			exits = append([]int32(nil), win...)
			return
		}
		for i, q := range exits {
			exits[i] = win[q]
		}
	})
	return exits
}

// SelectChunks evaluates the product over the events in the given number of
// chunks on the pool, calling fn for every match as (mask bit, match) —
// callers map bits to query indices through their Group.Queries. Matches
// arrive in document order (ascending position); bits within one node
// arrive in mask order. Counters mirror a fan-out of the members: Events
// grows by members × len(events) and Matches by one per (bit, node), so an
// instrumented product run is indistinguishable from the fan-out it
// replaced.
func SelectChunks(pool *parallel.Pool, pd *core.ProductDFA, events []encoding.Event, chunks int, c *obs.Collector, fn func(bit int, m core.Match)) {
	SelectChunksAt(pool, pd, events, parallel.SplitPoints(len(events), chunks), c, fn)
}

// SelectChunksAt is SelectChunks with explicit cut positions — the
// differential tests drive every cut position, size-1 chunks and fuzzed
// cuts through it. Out-of-range and duplicate cuts are dropped (counted
// into CutsRejected). A run without cuts counts as a sequential fallback.
func SelectChunksAt(pool *parallel.Pool, pd *core.ProductDFA, events []encoding.Event, cuts []int, c *obs.Collector, fn func(bit int, m core.Match)) {
	buf := encoding.BufferEvents(events)
	defer buf.Release()
	selectAt(pool, pd, buf, cuts, false, c, fn)
}

// SelectBuffer is SelectChunks over a buffered stream. chunks <= 1 is a
// planned whole-machine run (the multi-query schedule), not a sequential
// fallback.
func SelectBuffer(pool *parallel.Pool, pd *core.ProductDFA, buf *encoding.Buffer, chunks int, c *obs.Collector, fn func(bit int, m core.Match)) {
	selectAt(pool, pd, buf, parallel.SplitPoints(buf.Len(), chunks), chunks <= 1, c, fn)
}

// selectAt is the product engine: SelectChunksAt over a buffered stream,
// with planned marking a run without cuts that the caller chose.
func selectAt(pool *parallel.Pool, pd *core.ProductDFA, buf *encoding.Buffer, cuts []int, planned bool, c *obs.Collector, fn func(bit int, m core.Match)) {
	n := buf.Len()
	clean := sanitizeCuts(cuts, n)
	if c != nil {
		c.Events.Add(int64(pd.Members()) * int64(n))
		c.RunsByPolicy[core.CutNone].Inc()
		c.CutsRejected.Add(int64(len(cuts) - len(clean)))
	}
	remap := buf.Remap(pd.Alphabet())
	if len(clean) == 0 {
		if c != nil && !planned {
			c.SeqFallbacks.Inc()
		}
		res := selectChunk(pd, buf, remap, 0, n, int32(pd.Start()))
		emitChunk(pd, buf, 0, res, 0, 0, c, fn)
		return
	}
	bounds := make([]int, 0, len(clean)+2)
	bounds = append(bounds, 0)
	bounds = append(bounds, clean...)
	bounds = append(bounds, n)
	w := len(bounds) - 1

	var fanout time.Time
	if c != nil {
		c.ParallelRuns.Inc()
		c.Chunks.Add(int64(w))
		c.PoolWorkers.Store(int64(pool.Workers()))
		fanout = time.Now()
	}

	// Phase 1: chunk 0 (entry known: the start state) runs its selection
	// pass; every later chunk builds its all-states entry→exit map.
	results := make([]chunkResult, w)
	exits := make([][]int32, w)
	var wg sync.WaitGroup
	for ci := 0; ci < w; ci++ {
		ci := ci
		lo, hi := bounds[ci], bounds[ci+1]
		submit(pool, c, &wg, func() {
			if ci == 0 {
				results[0] = selectChunk(pd, buf, remap, lo, hi, int32(pd.Start()))
			} else {
				exits[ci] = chunkExits(pd, buf, remap, lo, hi)
			}
		})
	}
	wg.Wait()

	// Join: compose entries left to right, then phase 2 — the remaining
	// chunks run their selection pass from their now-known entries.
	entry := make([]int32, w)
	entry[0] = int32(pd.Start())
	for ci := 1; ci < w; ci++ {
		if ci == 1 {
			entry[1] = results[0].exit
		} else {
			entry[ci] = exits[ci-1][entry[ci-1]]
		}
	}
	for ci := 1; ci < w; ci++ {
		ci := ci
		lo, hi := bounds[ci], bounds[ci+1]
		submit(pool, c, &wg, func() {
			results[ci] = selectChunk(pd, buf, remap, lo, hi, entry[ci])
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
	opens, depth := 0, 0
	for ci := 0; ci < w; ci++ {
		emitChunk(pd, buf, bounds[ci], results[ci], opens, depth, c, fn)
		opens += results[ci].opens
		depth += results[ci].delta
	}
}

// emitChunk replays one chunk's hits in order, rebasing positions and
// depths by the prefix sums of the preceding chunks and expanding each mask
// into per-bit calls.
func emitChunk(pd *core.ProductDFA, buf *encoding.Buffer, lo int, res chunkResult, opens, depth int, c *obs.Collector, fn func(int, core.Match)) {
	words := pd.MaskWords()
	for j, rh := range res.rel {
		m := core.Match{
			Pos:   opens + rh.pos,
			Depth: depth + rh.depth,
			Label: buf.Label(lo + int(rh.idx)),
		}
		for wi, word := range res.masks[j*words : (j+1)*words] {
			for word != 0 {
				bit := wi*64 + bits.TrailingZeros64(word)
				word &= word - 1
				if c != nil {
					c.Matches.Inc()
					// All product hits emit at the end-of-stream join; the
					// deciding Open sits at global event index lo+idx.
					c.Latency.Observe(buf.Len() - 1 - (lo + int(rh.idx)))
				}
				if fn != nil {
					fn(bit, m)
				}
			}
		}
	}
}

// submit mirrors the pool discipline of internal/parallel: the WaitGroup
// grows before the task is enqueued, and pool gauges sample at submit time.
func submit(pool *parallel.Pool, c *obs.Collector, wg *sync.WaitGroup, task func()) {
	if c != nil {
		c.PoolSubmits.Inc()
		c.QueueDepth.Observe(pool.QueueLen())
		inner := task
		task = func() {
			t0 := time.Now()
			inner()
			d := time.Since(t0)
			c.Phases[obs.PhaseSimulate].Observe(d)
			c.WorkerBusyNs.Add(d.Nanoseconds())
		}
	}
	wg.Add(1)
	pool.Submit(func() {
		defer wg.Done()
		task()
	})
}

// sanitizeCuts sorts, bounds and deduplicates explicit cut positions, as in
// internal/parallel: fuzzers hand in arbitrary ints.
func sanitizeCuts(cuts []int, n int) []int {
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
