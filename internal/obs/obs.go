// Package obs is the engine's zero-dependency observability layer: atomic
// counters, bounded log₂ histograms and per-phase timers that the evaluator
// (internal/core), the pushdown fallback (internal/stackeval) and the
// chunk-parallel engine (internal/parallel) report into.
//
// The contract is that observability is free when it is off. Every hook in
// the engine is guarded by a nil check on the *Collector — a disabled run
// executes one predictable branch per hook and allocates nothing
// (TestObsDisabledZeroAllocs and BenchmarkObsOverhead enforce this). A
// Collector is safe for concurrent use: all fields are independent atomics,
// so forks of a machine running on different workers report into the same
// Collector without coordination.
//
// Numbers are cumulative. One Collector can span many evaluations (a
// service-level view) or be fresh per query (per-query cost accounting);
// Snapshot reads a consistent-enough JSON view at any time without stopping
// writers.
package obs

import (
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic last-value register (pool size, configuration).
type Gauge struct{ v atomic.Int64 }

// Store sets the gauge.
func (g *Gauge) Store(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Phase identifies one stage of a chunk-parallel evaluation.
type Phase int

// The phases of DESIGN.md §8's map/join pipeline, plus the multi-query
// merge.
const (
	// PhaseSplit: scanning a chunk for cut boundaries (cutPieces).
	PhaseSplit Phase = iota
	// PhaseSimulate: the all-states segment simulation on the workers.
	PhaseSimulate
	// PhaseJoin: the left-to-right replay of summaries and boundary events.
	PhaseJoin
	// PhaseMerge: the k-way merge of per-query match streams (MultiQuery).
	PhaseMerge
	// NumPhases is the number of phases.
	NumPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseSplit:
		return "split"
	case PhaseSimulate:
		return "simulate"
	case PhaseJoin:
		return "join"
	case PhaseMerge:
		return "merge"
	}
	return "unknown"
}

// PhaseTimer accumulates wall time and invocation counts for one phase.
type PhaseTimer struct {
	// Ns is the accumulated duration in nanoseconds.
	Ns Counter
	// Count is the number of timed intervals.
	Count Counter
}

// Observe records one timed interval.
func (t *PhaseTimer) Observe(d time.Duration) {
	t.Ns.Add(int64(d))
	t.Count.Inc()
}

// Collector aggregates everything the engine reports. The zero value is
// ready to use; share one *Collector across goroutines freely.
type Collector struct {
	// Stream-level accounting (core.SelectObs / core.RecognizeObs /
	// parallel runs / the MultiQuery pass).
	Events  Counter // tag events processed
	Matches Counter // matches reported

	// Strategy accounting (filled by the public API layer).
	StackFallbacks Counter // evaluations that ran on the pushdown fallback
	// SeqFallbacks counts chunk-parallel requests degraded to a
	// sequential pass. A whole-machine run the multi-query schedule plans
	// (more machines than workers) is not a request for chunks and counts
	// in neither this nor ParallelRuns.
	SeqFallbacks Counter
	ParallelRuns Counter // chunk-parallel runs actually fanned out

	// Multi-query product compilation (internal/product).
	ProductGroups      Counter // product groups evaluated one-pass
	ProductCacheHits   Counter // compiled products served from the LRU cache
	ProductCacheMisses Counter // products compiled (or failed) on a cache miss

	// Chunking (internal/parallel). SegmentEvents + BoundaryEvents equals
	// Events for a fanned-out run: every event is either summarized inside
	// a segment or replayed at a cut boundary.
	Chunks         Counter    // chunks fanned out to the pool
	Segments       Counter    // summarized segments across all chunks
	SegmentEvents  Counter    // events simulated inside segments
	BoundaryEvents Counter    // cut events replayed sequentially at join time
	CutsRejected   Counter    // requested cut positions dropped by sanitizing
	SpecChunks     Counter    // chunks simulated speculatively (pushdown, CutBoundedDepth)
	RunsByPolicy   [5]Counter // chunk-parallel requests per core.CutPolicy

	// Machine-level accounting (depth-register machines).
	RegisterLoads    Counter // registers/records written with the current depth
	RegisterCompares Counter // register/depth comparisons evaluated

	// Pushdown stack pool (internal/stackeval).
	StackPoolReuse  Counter // stack pushes served from the node free list
	StackPoolMisses Counter // stack pushes that had to grow the node pool

	// Pool (internal/parallel).
	PoolSubmits  Counter // tasks handed to the worker pool
	PoolWorkers  Gauge   // size of the pool last used
	WorkerBusyNs Counter // nanoseconds workers spent inside our tasks
	FanoutWallNs Counter // wall nanoseconds between fan-out and last chunk done

	// Histograms (bounded: log₂ buckets).
	Depth      Histogram // node depth at each opening tag (sequential passes)
	Registers  Histogram // live registers/records after each load
	StackDepth Histogram // pushdown stack depth at each push (fallback only)
	QueueDepth Histogram // pool queue length observed at each submit
	Latency    Histogram // per-match emission latency: events between the deciding Open and emission

	// Phases are the per-phase timers (split, simulate, join, merge).
	Phases [NumPhases]PhaseTimer
}

// Since is a convenience for phase timing: c.Phases[p].Observe(Since(t0)).
func Since(t0 time.Time) time.Duration { return time.Since(t0) }
