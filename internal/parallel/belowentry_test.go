package parallel

import (
	"reflect"
	"testing"

	"stackless/internal/core"
	"stackless/internal/encoding"
)

// Direct coverage for the CutBelowEntry path under the degenerate bound:
// every chunk a single event. Each open becomes a one-event segment
// simulated from every control state (the per-state SegmentExit array),
// and every close lands at or below its chunk's entry depth and so becomes
// a boundary piece replayed on the real configuration. The coded
// differential tests in core exercise this only through full documents;
// here the pieces, the exit arrays and the joined run are pinned one by
// one.

func open(l string) encoding.Event   { return encoding.Event{Kind: encoding.Open, Label: l} }
func close_(l string) encoding.Event { return encoding.Event{Kind: encoding.Close, Label: l} }

// belowEntryDocs: trees that drive Example 2.6 (some a-node with a
// b-descendant) through matches, restarts and register reloads.
func belowEntryDocs() [][]encoding.Event {
	flat := []encoding.Event{
		open("a"), open("c"), close_("c"), open("b"), close_("b"), close_("a"),
	}
	restart := []encoding.Event{
		open("c"),
		open("a"), open("c"), close_("c"), close_("a"), // minimal a-subtree without b
		open("a"), open("b"), close_("b"), close_("a"), // second a-subtree matches
		close_("c"),
	}
	deep := []encoding.Event{
		open("a"), open("a"), open("a"), open("b"),
		close_("b"), close_("a"), close_("a"), close_("a"),
	}
	return [][]encoding.Event{flat, restart, deep}
}

func example26Chunkable(t *testing.T) core.Chunkable {
	t.Helper()
	m, ok := core.Example26().Evaluator().(core.Chunkable)
	if !ok {
		t.Fatal("Example26 evaluator is not chunkable")
	}
	if m.Cut() != core.CutBelowEntry {
		t.Fatalf("Example26 cut policy %v, want CutBelowEntry", m.Cut())
	}
	return m
}

// TestBelowEntryPiecesSizeOneChunks pins the piece structure: within a
// one-event chunk, an open is a segment and a close is a boundary (its
// post-depth, -1 relative to the entry, is at or below the entry depth 0).
func TestBelowEntryPiecesSizeOneChunks(t *testing.T) {
	for di, events := range belowEntryDocs() {
		buf := encoding.BufferEvents(events)
		for i := range events {
			pieces := cutPieces(buf.Events, i, i+1, core.CutBelowEntry)
			if len(pieces) != 1 {
				t.Fatalf("doc %d event %d: %d pieces for a one-event chunk", di, i, len(pieces))
			}
			p := pieces[0]
			if p.lo != i || p.hi != i+1 {
				t.Fatalf("doc %d event %d: piece [%d,%d)", di, i, p.lo, p.hi)
			}
			wantSeg := events[i].Kind == encoding.Open
			if p.seg != wantSeg {
				t.Errorf("doc %d event %d (%s): seg=%v, want %v", di, i, events[i], p.seg, wantSeg)
			}
		}
	}
}

// TestBelowEntrySegmentExitArray summarizes each one-event open segment
// from every control state and checks the full exit array: one exit per
// state, each either poisoned (-1) or in-range, and equal to driving the
// segment protocol by hand from that state on a fresh fork.
func TestBelowEntrySegmentExitArray(t *testing.T) {
	m := example26Chunkable(t)
	n := m.ChunkStates()
	for di, events := range belowEntryDocs() {
		buf := encoding.BufferEvents(events)
		for i, e := range events {
			if e.Kind != encoding.Open {
				continue
			}
			pieces := []piece{{lo: i, hi: i + 1, seg: true}}
			summarize(m.Fork(), buf, nil, pieces, false)
			exits := pieces[0].exits
			if len(exits) != n {
				t.Fatalf("doc %d event %d: %d exits for %d states", di, i, len(exits), n)
			}
			for q := 0; q < n; q++ {
				if exits[q].State < -1 || exits[q].State >= n {
					t.Fatalf("doc %d event %d state %d: exit state %d out of range", di, i, q, exits[q].State)
				}
				f := m.Fork()
				f.BeginSegment(q)
				f.Step(e)
				want := f.EndSegment()
				if !reflect.DeepEqual(exits[q], want) {
					t.Errorf("doc %d event %d state %d: exit %+v, want %+v", di, i, q, exits[q], want)
				}
			}
		}
	}
}

// TestBelowEntryEveryPositionCuts is the joined differential under size-1
// chunks: cutting at every interior position must reproduce the
// sequential match stream and final verdict exactly.
func TestBelowEntryEveryPositionCuts(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for di, events := range belowEntryDocs() {
		seq := example26Chunkable(t)
		var want []core.Match
		if _, err := core.Select(seq, encoding.NewSliceSource(events), func(mt core.Match) { want = append(want, mt) }); err != nil {
			t.Fatal(err)
		}

		par := example26Chunkable(t)
		cuts := make([]int, 0, len(events)-1)
		for i := 1; i < len(events); i++ {
			cuts = append(cuts, i)
		}
		var got []core.Match
		par.Reset()
		run(p, par, encoding.BufferEvents(events), cuts, false, nil, func(mt core.Match) { got = append(got, mt) })

		if !reflect.DeepEqual(got, want) {
			t.Errorf("doc %d: matches %v, want %v", di, got, want)
		}
		if par.JoinState() != seq.JoinState() {
			t.Errorf("doc %d: final state %d, want %d", di, par.JoinState(), seq.JoinState())
		}
	}
}
