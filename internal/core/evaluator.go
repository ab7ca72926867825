// Package core implements the paper's computational model and its
// constructive results: depth-register automata (Definition 2.1), the
// registerless evaluator for almost-reversible languages (Lemma 3.5), the
// stackless evaluator for HAR languages (Lemma 3.8), the synopsis automaton
// recognizing EL for E-flat languages (Lemma 3.11 and Appendix A), the
// descendent-pattern matcher (Proposition 2.8), and the blind variants of
// all of these for the term encoding (Appendix B).
package core

import (
	"io"

	"stackless/internal/encoding"
	"stackless/internal/obs"
)

// Evaluator is a deterministic streaming machine over tag events. All the
// machines in this package — finite automata over Γ ∪ Γ̄, depth-register
// automata, and the compiled simulations — implement it.
//
// Acceptance conventions follow the paper:
//
//   - a *node-selecting* evaluator (realizing a unary query) pre-selects a
//     node iff Accepting() is true immediately after the node's Open event
//     (Section 2.3); its value after Close events is unspecified;
//   - a *tree-language* evaluator accepts a tree iff Accepting() is true
//     after the final event of the encoding.
type Evaluator interface {
	// Reset returns the machine to its initial configuration.
	Reset()
	// Step processes one tag event.
	Step(e encoding.Event)
	// Accepting reports whether the current configuration is accepting.
	Accepting() bool
}

// Match is one pre-selected node reported by Select.
type Match struct {
	// Pos is the preorder position of the node (0-based).
	Pos int
	// Depth is the node's depth (root = 1).
	Depth int
	// Label is the node's label.
	Label string
	// Path is the label path from the root, filled only when Select is
	// configured to track it (see SelectOptions).
	Path []string
}

// Instrumented is implemented by evaluators that can report machine-level
// metrics (register loads and comparisons, record counts, stack depths)
// into an obs.Collector. A nil collector detaches and restores the
// zero-overhead path.
type Instrumented interface {
	SetObs(*obs.Collector)
}

// Instrument attaches c to ev when the machine supports it; wrappers
// (EL/AL) forward to their inner machine. It is a no-op for machines with
// nothing to report (plain tag DFAs).
func Instrument(ev Evaluator, c *obs.Collector) {
	if i, ok := ev.(Instrumented); ok {
		i.SetObs(c)
	}
}

// obsFlusher is implemented by machines that batch metrics in plain
// machine-local fields (no atomics in Step) and report them once per run.
type obsFlusher interface{ flushObs() }

// flushEvObs drains batched machine metrics at the end of a run; wrappers
// forward to their inner machine. Machines outside this package (the
// pushdown fallback) export the hook as FlushObs — an unexported method
// cannot cross the package boundary.
func flushEvObs(ev Evaluator) {
	if f, ok := ev.(obsFlusher); ok {
		f.flushObs()
		return
	}
	if f, ok := ev.(interface{ FlushObs() }); ok {
		f.FlushObs()
	}
}

// FlushEvObs is flushEvObs for the packages layered above core: the
// chunk-parallel engine drives machines through its own loops (no
// flushRun), so it drains the batched machine metrics itself at the end
// of an instrumented run.
func FlushEvObs(ev Evaluator) { flushEvObs(ev) }

// flushRun reports a finished run's totals. Marked noinline so the cold
// exit paths of SelectObs/RecognizeObs stay one call each and the hot loop
// bodies stay small.
//
//go:noinline
func flushRun(c *obs.Collector, ev Evaluator, events, matches int64) {
	if c == nil {
		return
	}
	c.Events.Add(events)
	c.Matches.Add(matches)
	flushEvObs(ev)
}

// Select streams src through ev and calls fn for every pre-selected node,
// in document order. It returns the number of events processed. Errors from
// the source (other than io.EOF) are returned as-is.
func Select(ev Evaluator, src encoding.Source, fn func(Match)) (int, error) {
	return SelectObs(ev, nil, src, fn)
}

// SelectObs is Select reporting into a collector: events, matches and the
// per-open depth histogram. A nil collector runs the plain kernel — the
// loop is kept in a separate function with no collector state at all, so
// disabling observability costs nothing, not even dead loop variables (the
// tier-1 overhead contract; see internal/obs and TestObsDisabledZeroAllocs).
func SelectObs(ev Evaluator, c *obs.Collector, src encoding.Source, fn func(Match)) (int, error) {
	if c == nil {
		return selectPlain(ev, src, fn)
	}
	ev.Reset()
	events := 0
	matches := 0
	pos := -1
	depth := 0
	for {
		e, err := src.Next()
		if err == io.EOF {
			flushRun(c, ev, int64(events), int64(matches))
			return events, nil
		}
		if err != nil {
			flushRun(c, ev, int64(events), int64(matches))
			return events, err
		}
		events++
		if e.Kind == encoding.Open {
			pos++
			depth++
			c.Depth.Observe(depth)
		} else {
			depth--
		}
		ev.Step(e)
		if e.Kind == encoding.Open && ev.Accepting() {
			matches++
			c.Latency.Observe(0)
			if fn != nil {
				fn(Match{Pos: pos, Depth: depth, Label: e.Label})
			}
		}
	}
}

// selectPlain is the uninstrumented Select kernel. Collector-free by
// construction: the two extra loop variables of the instrumented twin
// (collector pointer, match counter) stay live across the three interface
// calls per event and cost the loop measurable spills, so the plain path
// carries neither.
//
//treelint:plain
func selectPlain(ev Evaluator, src encoding.Source, fn func(Match)) (int, error) {
	ev.Reset()
	events := 0
	pos := -1
	depth := 0
	for {
		e, err := src.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, err
		}
		events++
		if e.Kind == encoding.Open {
			pos++
			depth++
		} else {
			depth--
		}
		ev.Step(e)
		if e.Kind == encoding.Open && ev.Accepting() {
			if fn != nil {
				fn(Match{Pos: pos, Depth: depth, Label: e.Label})
			}
		}
	}
}

// SelectPositions runs Select and collects the preorder positions of all
// selected nodes.
func SelectPositions(ev Evaluator, src encoding.Source) ([]int, error) {
	var out []int
	_, err := Select(ev, src, func(m Match) { out = append(out, m.Pos) })
	return out, err
}

// Recognize streams src through ev and returns the final acceptance value.
func Recognize(ev Evaluator, src encoding.Source) (bool, error) {
	ok, _, err := RecognizeObs(ev, nil, src)
	return ok, err
}

// RecognizeObs is Recognize reporting events and the depth histogram into a
// collector; it also returns the number of events processed, as SelectObs
// does. A nil collector runs the plain kernel (see SelectObs).
func RecognizeObs(ev Evaluator, c *obs.Collector, src encoding.Source) (bool, int, error) {
	if c == nil {
		return recognizePlain(ev, src)
	}
	ev.Reset()
	events := 0
	depth := 0
	for {
		e, err := src.Next()
		if err == io.EOF {
			flushRun(c, ev, int64(events), 0)
			return ev.Accepting(), events, nil
		}
		if err != nil {
			flushRun(c, ev, int64(events), 0)
			return false, events, err
		}
		events++
		if e.Kind == encoding.Open {
			depth++
			c.Depth.Observe(depth)
		} else {
			depth--
		}
		ev.Step(e)
	}
}

// recognizePlain is the uninstrumented Recognize kernel; see selectPlain
// for why it exists.
//
//treelint:plain
func recognizePlain(ev Evaluator, src encoding.Source) (bool, int, error) {
	ev.Reset()
	events := 0
	for {
		e, err := src.Next()
		if err == io.EOF {
			return ev.Accepting(), events, nil
		}
		if err != nil {
			return false, events, err
		}
		events++
		ev.Step(e)
	}
}

// RunEvents feeds a slice of events (after Reset) and returns the final
// acceptance — a convenience for tests.
func RunEvents(ev Evaluator, events []encoding.Event) bool {
	ev.Reset()
	for _, e := range events {
		ev.Step(e)
	}
	return ev.Accepting()
}
