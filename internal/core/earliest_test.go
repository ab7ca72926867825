package core

import (
	"math/rand"
	"testing"

	"stackless/internal/classify"
	"stackless/internal/encoding"
	"stackless/internal/obs"
	"stackless/internal/paperfigs"
)

func TestEarliestModeString(t *testing.T) {
	cases := []struct {
		m    EarliestMode
		want string
	}{
		{EarliestOff, "off"},
		{EarliestExact, "exact"},
		{EarliestApprox, "approx"},
		{EarliestMode(42), "EarliestMode(42)"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("EarliestMode(%d).String() = %q, want %q", int(c.m), got, c.want)
		}
	}
}

// TestEarliestClassOf pins which families carry compiled earliest flags:
// tag DFAs and stackless machines are exact, the EL/AL wrappers (the
// registerless EL machine among them) and table DRAs fall back to the safe
// approximation.
func TestEarliestClassOf(t *testing.T) {
	an3a := classify.Analyze(paperfigs.Fig3a())
	an3c := classify.Analyze(paperfigs.Fig3c())
	ql, err := RegisterlessQL(an3a)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := StacklessQL(an3c)
	if err != nil {
		t.Fatal(err)
	}
	el, err := RegisterlessEL(an3a)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ev   Evaluator
		want EarliestMode
	}{
		{"tagdfa", ql.Evaluator(), EarliestExact},
		{"stackless", sl, EarliestExact},
		{"synopsis", el, EarliestApprox},
		{"dra", Example22().Evaluator(), EarliestApprox},
	}
	for _, c := range cases {
		if got := EarliestClassOf(c.ev); got != c.want {
			t.Errorf("%s: EarliestClassOf = %v, want %v", c.name, got, c.want)
		}
	}
}

// checkEarliestParity runs the same stream through Select and the earliest
// drivers and fails on any divergence in events, matches or order. For
// EarliestDecider machines it additionally replays the stream by hand and
// pins soundness and monotonicity of NoFutureMatches: once it reports true
// it stays true, and no accepting Open ever follows.
func checkEarliestParity(t *testing.T, m codedMachine, events []encoding.Event) {
	t.Helper()
	var want, got, gotObs []Match
	nWant, err1 := Select(m.fresh(), encoding.NewSliceSource(events), func(mm Match) { want = append(want, mm) })
	nGot, err2 := SelectEarliest(m.fresh(), encoding.NewSliceSource(events), func(mm Match) { got = append(got, mm) })
	var c obs.Collector
	nObs, err3 := SelectEarliestObs(m.fresh(), &c, encoding.NewSliceSource(events), func(mm Match) { gotObs = append(gotObs, mm) })
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatalf("%s: select errors %v / %v / %v", m.name, err1, err2, err3)
	}
	if nWant != nGot || nWant != nObs {
		t.Fatalf("%s: events %d (string) vs %d (earliest) vs %d (earliest-obs) on %v", m.name, nWant, nGot, nObs, events)
	}
	if len(want) != len(got) || len(want) != len(gotObs) {
		t.Fatalf("%s: %d matches (string) vs %d (earliest) vs %d (earliest-obs) on %v", m.name, len(want), len(got), len(gotObs), events)
	}
	for i := range want {
		same := func(a, b Match) bool { return a.Pos == b.Pos && a.Depth == b.Depth && a.Label == b.Label }
		if !same(want[i], got[i]) || !same(want[i], gotObs[i]) {
			t.Fatalf("%s: match %d: %+v (string) vs %+v (earliest) vs %+v (earliest-obs) on %v", m.name, i, want[i], got[i], gotObs[i], events)
		}
	}
	if c.Matches.Load() != int64(len(want)) {
		t.Fatalf("%s: collector matches %d, want %d", m.name, c.Matches.Load(), len(want))
	}
	if c.Latency.Count() != int64(len(want)) || c.Latency.Sum() != 0 {
		t.Fatalf("%s: latency count %d sum %d, want count %d sum 0", m.name, c.Latency.Count(), c.Latency.Sum(), len(want))
	}

	ev := m.fresh()
	dec, ok := ev.(EarliestDecider)
	if !ok {
		return
	}
	ev.Reset()
	decidedAt := -1
	for i, e := range events {
		ev.Step(e)
		if e.Kind == encoding.Open && ev.Accepting() && decidedAt >= 0 {
			t.Fatalf("%s: NoFutureMatches at event %d but accepting Open at event %d on %v", m.name, decidedAt, i, events)
		}
		if dec.NoFutureMatches() {
			if decidedAt < 0 {
				decidedAt = i
			}
		} else if decidedAt >= 0 {
			t.Fatalf("%s: NoFutureMatches flipped back to false at event %d (decided at %d) on %v", m.name, i, decidedAt, events)
		}
	}
}

// TestEarliestParityExhaustive: every stream up to 4 events over {a,b,zz},
// balanced or not, behaves identically under Select and the earliest
// drivers, for every compiled evaluator family.
func TestEarliestParityExhaustive(t *testing.T) {
	for _, m := range codedMachines(t) {
		for length := 0; length <= 4; length++ {
			enumEvents(length, m.blind, func(seq []encoding.Event) {
				checkEarliestParity(t, m, seq)
			})
		}
	}
}

// TestEarliestParityRandom: longer random streams, same differential check.
func TestEarliestParityRandom(t *testing.T) {
	for _, m := range codedMachines(t) {
		rng := rand.New(rand.NewSource(41))
		for i := 0; i < 200; i++ {
			checkEarliestParity(t, m, randomEvents(rng, m.blind, 1+rng.Intn(80)))
		}
	}
}

// TestEarliestDecidedStillCountsEvents pins the drain contract: a run that
// decides mid-stream must still consume and count the remaining events. On
// Fig 3a's tag DFA an unknown open poisons the run immediately, so the
// machine is decided at event 0, yet the event count covers the whole
// stream.
func TestEarliestDecidedStillCountsEvents(t *testing.T) {
	d, err := RegisterlessQL(classify.Analyze(paperfigs.Fig3a()))
	if err != nil {
		t.Fatal(err)
	}
	events := []encoding.Event{
		{Kind: encoding.Open, Label: "zz"},
		{Kind: encoding.Open, Label: "a"},
		{Kind: encoding.Open, Label: "b"},
		{Kind: encoding.Close, Label: "b"},
		{Kind: encoding.Close, Label: "a"},
		{Kind: encoding.Close, Label: "zz"},
	}
	ev := d.Evaluator()
	dec := ev.(EarliestDecider)
	ev.Reset()
	ev.Step(events[0])
	if !dec.NoFutureMatches() {
		t.Fatal("precondition: poisoned run should be decided")
	}
	for _, driver := range []func(Evaluator, encoding.Source, func(Match)) (int, error){
		SelectEarliest,
		func(ev Evaluator, src encoding.Source, fn func(Match)) (int, error) {
			var c obs.Collector
			return SelectEarliestObs(ev, &c, src, fn)
		},
	} {
		matches := 0
		n, err := driver(d.Evaluator(), encoding.NewSliceSource(events), func(Match) { matches++ })
		if err != nil {
			t.Fatal(err)
		}
		if n != len(events) {
			t.Fatalf("decided run counted %d events, want %d", n, len(events))
		}
		if matches != 0 {
			t.Fatalf("decided run reported %d matches, want 0", matches)
		}
	}
}

// TestEarliestDeciderOutOfRange: a decider whose state index falls outside
// the compiled flags must answer conservatively (not decided), never panic.
func TestEarliestDeciderOutOfRange(t *testing.T) {
	d, err := RegisterlessQL(classify.Analyze(paperfigs.Fig3a()))
	if err != nil {
		t.Fatal(err)
	}
	ev := d.Evaluator().(*tagEvaluator)
	if ev.NoFutureMatches() {
		t.Fatal("fresh run should not be decided")
	}
	ev.state = 10_000
	if ev.NoFutureMatches() {
		t.Fatal("out-of-range state must be conservative, not decided")
	}

	an3c := classify.Analyze(paperfigs.Fig3c())
	sl, err := StacklessQL(an3c)
	if err != nil {
		t.Fatal(err)
	}
	slev := sl
	if slev.NoFutureMatches() {
		t.Fatal("fresh stackless run should not be decided")
	}
	slev.state = 10_000
	if slev.NoFutureMatches() {
		t.Fatal("out-of-range stackless state must be conservative, not decided")
	}
}

// TestEarliestStacklessRecordsBlock pins the record check: even when the
// surface state's flag says decided, a stacked record whose restored state
// could still match keeps the run undecided (a pop can revive it).
func TestEarliestStacklessRecordsBlock(t *testing.T) {
	sl, err := StacklessQL(classify.Analyze(paperfigs.Fig3c()))
	if err != nil {
		t.Fatal(err)
	}
	ev := sl
	ev.Reset()
	// Fig 3c is .*a.*b over markup: every live state can still reach the
	// accepting open on b, so nothing here decides; the run stays open at
	// any depth.
	for _, e := range []encoding.Event{
		{Kind: encoding.Open, Label: "a"},
		{Kind: encoding.Open, Label: "c"},
	} {
		ev.Step(e)
		if ev.NoFutureMatches() {
			t.Fatalf("run decided after %v, but b is still reachable", e)
		}
	}
}
