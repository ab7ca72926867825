package core

import (
	"fmt"

	"stackless/internal/encoding"
	"stackless/internal/obs"
)

// Earliest query answering (DESIGN.md §14), after the 2026
// Gienieczko–Muñoz–Murlak–Paperman follow-up on earliest query answering
// for streamed trees.
//
// Under pre-selection semantics (Section 2.3) every match is *decided* at
// its own Open event, so the per-match earliest point is the event itself;
// what the fast paths trade away is *emission*: the coded pipeline confirms
// hits only at batch boundaries (up to encoding.DefaultBatch events late)
// and the chunk-parallel engine only at the end-of-stream join. Earliest
// is a window of the coded drivers (coded.go): an eager batcher reads no
// input ahead of the events it returns, and each event is stepped as its
// own window, so each match is reported with zero deferral, at the very
// event that decides it. Machines that expose per-state earliest-decision
// flags (EarliestDecider) add the complementary *negative* guarantee: the
// driver proves, mid stream, that no future event can produce another
// match, after which the run is decided and stepping stops (the stream
// still drains, so event accounting and balance checking are unchanged).

// EarliestMode says which earliest-decision guarantee a run carried.
type EarliestMode int

// The three modes, from absent to strongest.
const (
	// EarliestOff: earliest emission was not requested (the default).
	EarliestOff EarliestMode = iota
	// EarliestExact: per-event emission plus the compiled earliest-decision
	// flags — the run additionally detects the earliest event after which
	// no further match is possible.
	EarliestExact
	// EarliestApprox: the conservative safe approximation — per-event
	// emission with zero deferral, but no mid-stream "no future matches"
	// decision (the machine carries no earliest flags). Every match is
	// still emitted at its provably earliest event.
	EarliestApprox
)

func (m EarliestMode) String() string {
	switch m {
	case EarliestOff:
		return "off"
	case EarliestExact:
		return "exact"
	case EarliestApprox:
		return "approx"
	}
	return fmt.Sprintf("EarliestMode(%d)", int(m))
}

// EarliestDecider is the earliest-evaluation contract: an Evaluator whose
// compiled tables carry per-state earliest-decision flags (tag DFAs and
// stackless machines fold them into the §11 []int32 form). NoFutureMatches
// must be sound and monotone along a run: once it reports true, no suffix
// of any well-formed continuation can make the machine pre-select another
// node, and it keeps reporting true if the machine steps further.
type EarliestDecider interface {
	Evaluator
	// NoFutureMatches reports that the current configuration cannot reach
	// an accepting Open transition on any future event sequence.
	NoFutureMatches() bool
}

// EarliestClassOf reports the mode an earliest run of ev gets: exact for
// machines implementing EarliestDecider, the safe approximation for the
// rest (table DRAs, the pushdown fallback and the EL/AL wrappers, the
// registerless EL and AL machines included). The approximation never consults flags, so every family — and
// any user-supplied Evaluator — gets *some* latency bound: zero emission
// deferral, with end-of-stream as the trivial decision point.
func EarliestClassOf(ev Evaluator) EarliestMode {
	if _, ok := ev.(EarliestDecider); ok {
		return EarliestExact
	}
	return EarliestApprox
}

// SelectEarliest is Select with the earliest emission contract: fn fires
// at the exact Open event deciding each match (never deferred to a batch
// boundary), and for EarliestDecider machines the run stops stepping at
// the earliest event proving no further match is possible. The match set,
// order, event count and errors are identical to Select's.
func SelectEarliest(ev Evaluator, src encoding.Source, fn func(Match)) (int, error) {
	return SelectEarliestObs(ev, nil, src, fn)
}

// SelectEarliestObs is SelectEarliest reporting into a collector, with the
// same split as SelectObs: a nil collector runs the plain kernel and costs
// nothing. It is the coded Select stepped in one-event windows over an
// eager batcher; an instrumented run observes per-match emission latency
// (always zero — that is the contract) into c.Latency alongside the usual
// events/matches/depth accounting.
func SelectEarliestObs(ev Evaluator, c *obs.Collector, src encoding.Source, fn func(Match)) (int, error) {
	return selectCoded(ev, c, src, true, fn)
}
