package core

import (
	"io"

	"stackless/internal/alphabet"
	"stackless/internal/encoding"
	"stackless/internal/obs"
)

// Compiled symbol-coded pipeline (DESIGN.md §11). Machines that can lower
// their transitions into flat state×symbol tables implement BatchEvaluator;
// the coded drivers below batch the event stream through a pooled
// encoding.Batcher and step whole batches per call (one-event windows
// under earliest, earliest.go), eliminating the per-event label hashing
// of the string pipeline.
// Every machine the public API runs compiles: the tag DFAs, the stackless
// machines, the pushdown and the EL/AL wrappers over them (the registerless
// EL and AL machines wrap a synopsis tag DFA). Machines without batch
// kernels (the DTD stack validator, the pattern matcher, the boolean
// products) fall back to the generic Select/Recognize path — the coded
// entry points are drop-in replacements with identical results either way.

// BatchEvaluator is the compiled contract: an Evaluator that also steps
// dense symbol-coded batches. StepBatch(b) must be equivalent to Step on
// each event of b with the labels decoded under CodeAlphabet — including
// the poison convention: the unknown sentinel Sym (= CodeAlphabet().Size())
// behaves exactly like a label outside the alphabet.
type BatchEvaluator interface {
	Evaluator
	// CodeAlphabet returns the alphabet whose Coder produces the codes
	// StepBatch and SelectBatch consume.
	CodeAlphabet() *alphabet.Alphabet
	// StepBatch processes a coded batch.
	StepBatch(batch []encoding.CodedEvent)
	// SelectBatch is StepBatch that also appends to hits the batch-relative
	// indices of Open events after which the machine pre-selects, returning
	// the extended slice.
	SelectBatch(batch []encoding.CodedEvent, hits []int32) []int32
}

// CodedSegmentKernel is implemented by machines with a one-pass all-states
// segment simulation over coded events — the hot path of
// internal/parallel, which codes the buffered stream once and hands each
// fork coded segments. Machines without one run SimulateSegmentGeneric.
type CodedSegmentKernel interface {
	// SimulateSegmentCoded runs the segment from every control state at
	// once, appending match candidates to cands when it is non-nil.
	SimulateSegmentCoded(seg []encoding.CodedEvent, cands *CandSet) []SegmentExit
}

// SelectCoded is Select through the compiled pipeline when ev supports it,
// falling back to Select otherwise. Matches, order and errors are identical
// to Select's.
func SelectCoded(ev Evaluator, src encoding.Source, fn func(Match)) (int, error) {
	return SelectCodedObs(ev, nil, src, fn)
}

// SelectCodedObs is SelectCoded reporting into a collector, with the same
// split as SelectObs: a nil collector runs the plain kernel.
func SelectCodedObs(ev Evaluator, c *obs.Collector, src encoding.Source, fn func(Match)) (int, error) {
	return selectCoded(ev, c, src, false, fn)
}

// selectCoded runs the coded Select kernels, stepping each batch in
// windows: the whole batch, or under earliest one event (DESIGN.md §14).
// Machines without batch kernels take the string Select, which emits every
// match at its deciding Open; none of them implements EarliestDecider.
func selectCoded(ev Evaluator, c *obs.Collector, src encoding.Source, earliest bool, fn func(Match)) (int, error) {
	be, ok := ev.(BatchEvaluator)
	if !ok {
		return SelectObs(ev, c, src, fn)
	}
	if c == nil {
		return selectCodedPlain(be, src, earliest, fn)
	}
	return selectCodedObs(be, c, src, earliest, fn)
}

// selectCodedPlain is the uninstrumented coded Select kernel. Position and
// depth at a hit both derive from the count of Open events before it
// (depth after event j is depth₀ + 2·opens − (j+1)), so the driver never
// replays the batch event by event: it counts opens branchlessly up to
// each hit, skips the tail after the last one, and advances whole hitless
// batches from the batcher's Open count alone. Match labels come from the
// batcher's label window, not the code alphabet: machines that accept
// regardless of the label (an EL wrapper after its match) can select events
// whose Sym is the lossy unknown sentinel.
//
// Under earliest the batcher is eager and each batch is stepped one event
// per window, so a match is emitted before the next event is read. After
// each window an EarliestDecider is asked whether any match is still
// possible; once none is, the run is decided and the remaining batches
// are only counted, keeping the event count and the source's errors.
//
//treelint:plain
func selectCodedPlain(be BatchEvaluator, src encoding.Source, earliest bool, fn func(Match)) (int, error) {
	be.Reset()
	b := encoding.AcquireBatcher(src, be.CodeAlphabet(), earliest)
	var dec EarliestDecider
	if earliest {
		dec, _ = be.(EarliestDecider)
	}
	decided := false
	events := 0
	pos, depth := -1, 0
	hits := b.Hits()
	for {
		batch, opens, err := b.NextBatch()
		events += len(batch)
		o, prev := 0, 0 // Opens among batch[:prev]
		for w := 0; w < len(batch) && !decided; {
			end := len(batch)
			if earliest {
				end = w + 1
			}
			if fn == nil {
				be.StepBatch(batch[w:end])
			} else {
				hits = be.SelectBatch(batch[w:end], hits[:0])
				for _, h := range hits {
					h := w + int(h)
					for j := prev; j < h; j++ {
						o += 1 - int(batch[j].Kind)
					}
					o++ // the hit itself is an Open
					prev = h + 1
					fn(Match{Pos: pos + o, Depth: depth + 2*o - prev, Label: b.BatchLabel(h)})
				}
			}
			w = end
			decided = dec != nil && dec.NoFutureMatches()
		}
		pos += opens
		depth += 2*opens - len(batch)
		if err != nil {
			b.Release()
			if err == io.EOF {
				return events, nil
			}
			return events, err
		}
	}
}

// selectCodedObs is the instrumented twin: every batch is walked to feed
// the per-open depth histogram, matching SelectObs's samples exactly, and
// each match's latency is the events between it and its window's end —
// zero under earliest.
func selectCodedObs(be BatchEvaluator, c *obs.Collector, src encoding.Source, earliest bool, fn func(Match)) (int, error) {
	be.Reset()
	b := encoding.AcquireBatcher(src, be.CodeAlphabet(), earliest)
	defer b.Release()
	var dec EarliestDecider
	if earliest {
		dec, _ = be.(EarliestDecider)
	}
	decided := false
	events := 0
	matches := 0
	pos, depth := -1, 0
	hits := b.Hits()
	for {
		batch, _, err := b.NextBatch()
		events += len(batch)
		for w := 0; w < len(batch); {
			end := len(batch)
			if earliest && !decided {
				end = w + 1
			}
			win := batch[w:end]
			hits = hits[:0]
			if !decided {
				hits = be.SelectBatch(win, hits)
				decided = dec != nil && dec.NoFutureMatches()
			}
			hi := 0
			for i := range win {
				if win[i].Kind != encoding.Open {
					depth--
					continue
				}
				pos++
				depth++
				c.Depth.Observe(depth)
				if hi < len(hits) && hits[hi] == int32(i) {
					hi++
					matches++
					// The match was decided at window index i and emits
					// after the window's last event.
					c.Latency.Observe(len(win) - 1 - i)
					if fn != nil {
						fn(Match{Pos: pos, Depth: depth, Label: b.BatchLabel(w + i)})
					}
				}
			}
			w = end
		}
		if err == io.EOF {
			flushRun(c, be, int64(events), int64(matches))
			return events, nil
		}
		if err != nil {
			flushRun(c, be, int64(events), int64(matches))
			return events, err
		}
	}
}

// RecognizeCoded is Recognize through the compiled pipeline when ev
// supports it, falling back to Recognize otherwise.
func RecognizeCoded(ev Evaluator, src encoding.Source) (bool, error) {
	ok, _, err := RecognizeCodedObs(ev, nil, src)
	return ok, err
}

// RecognizeCodedObs is RecognizeCoded reporting into a collector (nil:
// plain kernel, as in RecognizeObs), also returning the number of events
// processed.
func RecognizeCodedObs(ev Evaluator, c *obs.Collector, src encoding.Source) (bool, int, error) {
	be, ok := ev.(BatchEvaluator)
	if !ok {
		return RecognizeObs(ev, c, src)
	}
	if c == nil {
		return recognizeCodedPlain(be, src)
	}
	return recognizeCodedObs(be, c, src)
}

// recognizeCodedPlain is the uninstrumented coded Recognize kernel. The
// event count is a sum of batch lengths: no per-event work.
//
//treelint:plain
func recognizeCodedPlain(be BatchEvaluator, src encoding.Source) (bool, int, error) {
	be.Reset()
	b := encoding.AcquireBatcher(src, be.CodeAlphabet(), false)
	events := 0
	for {
		batch, _, err := b.NextBatch()
		events += len(batch)
		be.StepBatch(batch)
		if err != nil {
			b.Release()
			if err == io.EOF {
				return be.Accepting(), events, nil
			}
			return false, events, err
		}
	}
}

// recognizeCodedObs is the instrumented twin: the batch is stepped as a
// whole, then walked for the depth histogram.
func recognizeCodedObs(be BatchEvaluator, c *obs.Collector, src encoding.Source) (bool, int, error) {
	be.Reset()
	b := encoding.AcquireBatcher(src, be.CodeAlphabet(), false)
	defer b.Release()
	events := 0
	depth := 0
	for {
		batch, _, err := b.NextBatch()
		events += len(batch)
		be.StepBatch(batch)
		for i := range batch {
			if batch[i].Kind == encoding.Open {
				depth++
				c.Depth.Observe(depth)
			} else {
				depth--
			}
		}
		if err == io.EOF {
			flushRun(c, be, int64(events), 0)
			return be.Accepting(), events, nil
		}
		if err != nil {
			flushRun(c, be, int64(events), 0)
			return false, events, err
		}
	}
}
