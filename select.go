package stackless

import (
	"io"
	"runtime"

	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/obs"
	"stackless/internal/parallel"
)

// Collector aggregates observability metrics across evaluations: atomic
// counters (events, matches, fallbacks, chunk cuts), bounded depth /
// register / stack-depth / queue-depth histograms and per-phase timings.
// The alias lets callers use it without importing the internal package;
// obtain one with NewCollector, attach it via Options.Collector, and read
// it with Snapshot (JSON-ready) or String (expvar.Var-compatible). One
// collector may be shared by concurrent evaluations. Attaching a collector
// adds a few percent of overhead; a nil Collector is completely free (a
// nil-check per hook, zero allocations — see DESIGN.md §9).
type Collector = obs.Collector

// ObsSnapshot is the JSON-ready point-in-time view of a Collector.
type ObsSnapshot = obs.Snapshot

// NewCollector returns an empty metrics collector.
func NewCollector() *Collector { return &obs.Collector{} }

// Match is one selected node, reported at its opening tag (pre-selection,
// Section 2.3) so callers can stream the node's subtree without buffering.
type Match struct {
	// Pos is the node's preorder position in the document, 0-based.
	Pos int
	// Depth is the node's depth; the root has depth 1.
	Depth int
	// Label is the node's label.
	Label string
}

// Pipeline identifies which event pipeline an evaluation ran. It is an
// alias of core.Pipeline so the engine and the public API share one enum;
// treelint's enumswitch holds switches over it to totality.
type Pipeline = core.Pipeline

// PipelineCoded is the one pipeline every run takes: compiled tables over
// symbol-coded batches (DESIGN.md §11). Re-exported so callers compare
// Stats.Pipeline against a typed constant instead of a raw string.
const PipelineCoded = core.PipelineCoded

// EarliestMode says which earliest-emission guarantee a run carried; it is
// an alias of core.EarliestMode (see DESIGN.md §14).
type EarliestMode = core.EarliestMode

// Re-exported earliest modes, so callers compare Stats.Earliest against
// typed constants.
const (
	// EarliestOff: Options.Earliest was not set (the default).
	EarliestOff = core.EarliestOff
	// EarliestExact: per-event emission with zero deferral plus the
	// compiled earliest-decision flags — the run stops stepping at the
	// earliest event proving no further match is possible.
	EarliestExact = core.EarliestExact
	// EarliestApprox: the conservative safe approximation — every match
	// still emits at its deciding event (sequential runs) or in document
	// order at the join (parallel runs), but without a mid-stream
	// no-future-matches decision.
	EarliestApprox = core.EarliestApprox
)

// Stats describes how an evaluation ran.
type Stats struct {
	// Strategy actually used (registerless / stackless / stack).
	Strategy Strategy
	// Events processed (opening + closing tags).
	Events int
	// Matches reported.
	Matches int
	// Workers that evaluated chunks concurrently: 1 for a sequential run
	// (including every recognition run, which never chunks), the effective
	// worker count — Options.Workers clamped to GOMAXPROCS — for a
	// chunk-parallel one.
	Workers int
	// Pipeline actually used: always PipelineCoded — every machine a Query
	// runs compiles to the symbol-coded batch pipeline (dense transition
	// tables, see DESIGN.md §11), earliest runs included (§14).
	Pipeline Pipeline
	// Chunks the stream was split into: 1 for any sequential pass,
	// including parallel requests that degraded (see Fallback).
	Chunks int
	// CutPolicy of the chosen machine ("none", "newmin", "belowentry",
	// "all") when chunk-parallel selection was requested; empty otherwise.
	CutPolicy string
	// Fallback qualifies how a Workers>1 request actually ran.
	// Sequential degradations: "strategy" (every RecognizeEL and
	// RecognizeAL run: the EL/AL wrappers have no coded all-states segment
	// kernel, decided before the stream is read), "cutall" (unrestricted DRA: every event is a
	// boundary), "short" (too few events to cut), or "deep" (the
	// pushdown's speculative chunking was not viable: the stream's depth
	// is too large against the chunk size, see
	// parallel.SpeculationViable). "speculative" marks a run that *did*
	// fan out, on the pushdown's speculative CutBoundedDepth summaries
	// (DESIGN.md §16). Empty when the run fanned out on an exact summary
	// or was never asked to parallelize.
	Fallback string
	// Earliest reports which earliest-emission mode the run carried when
	// Options.Earliest was set: EarliestExact when the chosen machine
	// carries compiled earliest-decision flags (tag DFAs and stackless
	// machines), EarliestApprox for the safe approximation (all other
	// families, and every Workers>1 run, which buffers and joins).
	// EarliestOff when earliest emission was not requested.
	Earliest EarliestMode
}

// Options tune evaluation. The zero value is the default: pick the
// cheapest strategy and fall back to the stack when the theorems say a
// stackless machine cannot exist.
type Options struct {
	// ForbidStack makes evaluation fail instead of falling back to the
	// pushdown simulation (useful to surface Theorem 3.1 violations).
	ForbidStack bool
	// ForceStack skips the stackless machines entirely (baseline runs).
	ForceStack bool
	// TrustInput skips the O(1) tag-balance guard. Weak validation assumes
	// well-formed input; by default the engine still rejects streams whose
	// tags do not balance (gross transport errors), at one counter's cost.
	TrustInput bool
	// Workers > 1 evaluates the stream chunk-parallel on the shared worker
	// pool: the stream is read once into a buffer of stream-local label
	// ids, split into chunks, simulated concurrently from every machine
	// state and joined (see internal/parallel and DESIGN.md §8). The match
	// set is identical to the sequential run. The count is clamped to
	// GOMAXPROCS — requesting more workers than cores only adds join
	// overhead (EXPERIMENTS.md); Stats.Workers reports the clamped value.
	// Recognition (RecognizeEL, RecognizeAL and their Term twins) runs
	// sequentially whatever Workers asks: the EL/AL wrappers have no coded
	// segment kernel, and stepping every wrapper state per event loses to
	// the sequential run (EXPERIMENTS.md). Selection falls back to
	// sequential evaluation when the pushdown fallback's speculative
	// chunking is not viable for the stream (see Stats.Fallback); note
	// that buffering the stream trades the model's O(1) memory for
	// throughput.
	// A MultiQuery run reads the stream once for all its machines (each
	// product group is one machine for its whole member set, DESIGN.md
	// §13) and gives each machine max(1, Workers ÷ machines) chunks: a set
	// with at least as many machines as workers runs every machine whole,
	// one per worker at a time, which is planned, not a fallback. A set
	// with a stack-tier member runs as one stacked pushdown instead,
	// sequentially whatever Workers asks (MultiStats.Plan).
	Workers int
	// Earliest requests the earliest-emission latency contract (DESIGN.md
	// §14): every match is reported at the exact event that decides it,
	// never deferred to a batch boundary, and machines with compiled
	// earliest-decision flags stop stepping at the earliest event proving
	// no further match is possible. The match set, order and errors are
	// identical to the default run; the trade is throughput — the coded
	// driver steps one event per window instead of whole batches, and
	// reads no more input until it has stepped the events already read.
	// Stats.Earliest reports which mode actually ran.
	// With Workers > 1 the chunk-parallel engine is used unchanged
	// (matches still arrive in document order at the join) and the run
	// reports the safe approximation.
	Earliest bool
	// Collector, when non-nil, receives detailed metrics for the run —
	// counters, histograms and phase timings beyond what Stats reports
	// (see NewCollector and DESIGN.md §9). Nil disables collection at
	// zero cost.
	Collector *Collector
}

func (o Options) guard(src encoding.Source) encoding.Source {
	if o.TrustInput {
		return src
	}
	return encoding.CheckBalance(src)
}

// effectiveWorkers clamps a requested worker count to GOMAXPROCS: beyond
// the core count extra chunks only add boundary-replay and join work (the
// workers=2-on-1-core regression in EXPERIMENTS.md).
func effectiveWorkers(n int) int {
	if p := runtime.GOMAXPROCS(0); n > p {
		return p
	}
	return n
}

// SelectXML streams an XML document and calls fn for each node selected by
// the query, in document order.
func (q *Query) SelectXML(r io.Reader, opt Options, fn func(Match)) (Stats, error) {
	return q.selectSource(encoding.NewXMLScanner(r), MarkupEncoding, opt, fn)
}

// SelectXMLFull uses the encoding/xml bridge (slower, full XML support).
func (q *Query) SelectXMLFull(r io.Reader, opt Options, fn func(Match)) (Stats, error) {
	return q.selectSource(encoding.NewStdXMLSource(r), MarkupEncoding, opt, fn)
}

// SelectJSON streams a JSON document under the term encoding. Object keys
// are node labels; array elements are labelled "item"; the document root is
// labelled "$" (see internal/encoding).
func (q *Query) SelectJSON(r io.Reader, opt Options, fn func(Match)) (Stats, error) {
	return q.selectSource(encoding.NewJSONSource(r), TermEncoding, opt, fn)
}

// SelectTerm streams a brace-notation document (a{b{}c{}}) under the term
// encoding.
func (q *Query) SelectTerm(r io.Reader, opt Options, fn func(Match)) (Stats, error) {
	return q.selectSource(encoding.NewTermScanner(r), TermEncoding, opt, fn)
}

func (q *Query) selectSource(src encoding.Source, enc Encoding, opt Options, fn func(Match)) (Stats, error) {
	src = opt.guard(src)
	opt.Workers = effectiveWorkers(opt.Workers)
	c := opt.Collector
	ev, st, err := q.machine(semQL, enc, opt)
	if err != nil {
		return Stats{Strategy: st}, err
	}
	stats := Stats{Strategy: st, Workers: 1, Chunks: 1, Pipeline: PipelineCoded}
	report := func(m core.Match) {
		stats.Matches++
		if fn != nil {
			fn(Match{Pos: m.Pos, Depth: m.Depth, Label: m.Label})
		}
	}
	if opt.Workers > 1 {
		if opt.Earliest {
			// The chunk-parallel engine buffers the stream and emits at
			// the join; document order survives, but only the safe
			// approximation's latency bound does.
			stats.Earliest = EarliestApprox
		}
		buf, err := readChunked(src, opt.Collector, 1)
		defer buf.Release()
		stats.Events = buf.Len()
		if err != nil {
			return stats, err
		}
		stats.Workers, stats.CutPolicy = opt.Workers, ev.Cut().String()
		stats.Chunks, stats.Fallback = parallel.SelectBuffer(parallel.Shared(), ev, buf, opt.Workers, c, report)
		return stats, nil
	}
	if opt.Earliest {
		// One-event windows: matches emit at their deciding Open, never
		// at a batch boundary.
		stats.Earliest = core.EarliestClassOf(ev)
		stats.Events, err = core.SelectEarliestObs(ev, c, src, report)
		return stats, err
	}
	stats.Events, err = core.SelectCodedObs(ev, c, src, report)
	return stats, err
}

// readChunked reads src once into the buffer every chunk-parallel run
// reads: a Query's machine, or all the machines of a MultiQuery set. On
// error the events read so far count into the collector once per machine,
// as the runs would have counted them.
func readChunked(src encoding.Source, c *obs.Collector, machines int) (*encoding.Buffer, error) {
	buf, err := encoding.ReadBuffer(src)
	if err != nil && c != nil {
		c.Events.Add(int64(buf.Len()) * int64(machines))
	}
	return buf, err
}

// RecognizeEL streams an XML document and reports whether some branch's
// label path belongs to the query language (the tree language EL).
func (q *Query) RecognizeEL(r io.Reader, opt Options) (bool, Stats, error) {
	return q.recognize(encoding.NewXMLScanner(r), MarkupEncoding, semEL, opt)
}

// RecognizeAL streams an XML document and reports whether every branch's
// label path belongs to the query language (the tree language AL) — the
// weak-validation semantics of Section 4.1.
func (q *Query) RecognizeAL(r io.Reader, opt Options) (bool, Stats, error) {
	return q.recognize(encoding.NewXMLScanner(r), MarkupEncoding, semAL, opt)
}

// RecognizeELTerm and RecognizeALTerm are the term-encoding variants over
// brace-notation input.
func (q *Query) RecognizeELTerm(r io.Reader, opt Options) (bool, Stats, error) {
	return q.recognize(encoding.NewTermScanner(r), TermEncoding, semEL, opt)
}

// RecognizeALTerm recognizes AL over brace-notation input.
func (q *Query) RecognizeALTerm(r io.Reader, opt Options) (bool, Stats, error) {
	return q.recognize(encoding.NewTermScanner(r), TermEncoding, semAL, opt)
}

func (q *Query) recognize(src encoding.Source, enc Encoding, sem semantics, opt Options) (bool, Stats, error) {
	src = opt.guard(src)
	opt.Workers = effectiveWorkers(opt.Workers)
	ev, st, err := q.machine(sem, enc, opt)
	if err != nil {
		return false, Stats{Strategy: st}, err
	}
	stats := Stats{Strategy: st, Workers: 1, Chunks: 1, Pipeline: PipelineCoded}
	if opt.Workers > 1 {
		// The EL/AL wrappers have no coded segment kernel: chunked, they
		// step every control state per event and lose to this sequential
		// run.
		stats.Fallback = "strategy"
		if c := opt.Collector; c != nil {
			c.SeqFallbacks.Inc()
		}
	}
	ok, events, err := core.RecognizeCodedObs(ev, opt.Collector, src)
	stats.Events = events
	return ok, stats, err
}
