package core

import (
	"math/rand"
	"testing"

	"stackless/internal/classify"
	"stackless/internal/encoding"
	"stackless/internal/paperfigs"
	"stackless/internal/rex"
)

// TestInstanceStepsAsParent: a runtime instance (a Fork, which is what a
// query slot hands each call) steps exactly as the machine it came from
// along random streams — the same acceptance and, for machines with
// compiled earliest flags, the same NoFutureMatches after every event. The
// empty-language stackless machines are decided from the start, so an
// instance that dropped the flags would answer differently.
func TestInstanceStepsAsParent(t *testing.T) {
	all, err := rex.CompileString(".*", paperfigs.GammaABC())
	if err != nil {
		t.Fatal(err)
	}
	anEmpty := classify.Analyze(all.Complement())
	machines := codedMachines(t)
	for _, m := range []struct {
		name  string
		blind bool
		build func(*classify.Analysis) (*StacklessEvaluator, error)
	}{
		{"stackless/empty", false, StacklessQL},
		{"stackless/empty-term", true, BlindStacklessQL},
	} {
		sl, err := m.build(anEmpty)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		machines = append(machines, codedMachine{name: m.name, blind: m.blind, fresh: func() Evaluator { return sl }})
	}
	for _, m := range machines {
		rng := rand.New(rand.NewSource(53))
		for i := 0; i < 100; i++ {
			events := randomEvents(rng, m.blind, 1+rng.Intn(60))
			parent := m.fresh()
			parent.Reset()
			inst := parent.(Chunkable).Fork()
			pd, decides := parent.(EarliestDecider)
			for j := -1; j < len(events); j++ {
				if j >= 0 {
					parent.Step(events[j])
					inst.Step(events[j])
				}
				if parent.Accepting() != inst.Accepting() {
					t.Fatalf("%s: after %v accepting %v, instance %v", m.name, events[:j+1], parent.Accepting(), inst.Accepting())
				}
				if decides {
					if want, got := pd.NoFutureMatches(), inst.(EarliestDecider).NoFutureMatches(); got != want {
						t.Fatalf("%s: after %v NoFutureMatches %v, instance %v", m.name, events[:j+1], want, got)
					}
				}
			}
		}
	}
}

// TestInstanceIndependent: stepping an instance leaves its parent — and a
// sibling instance — in the initial configuration, so one compiled machine
// can serve concurrent runs.
func TestInstanceIndependent(t *testing.T) {
	for _, m := range codedMachines(t) {
		parent := m.fresh()
		parent.Reset()
		a, b := parent.(Chunkable).Fork(), parent.(Chunkable).Fork()
		ref := m.fresh()
		ref.Reset()
		events := []encoding.Event{{Kind: encoding.Open, Label: "a"}, {Kind: encoding.Open, Label: "zz"}}
		for _, e := range events {
			a.Step(e)
		}
		if parent.Accepting() != ref.Accepting() || b.Accepting() != ref.Accepting() {
			t.Errorf("%s: stepping an instance moved its parent or a sibling", m.name)
		}
		for _, e := range events {
			b.Step(e)
		}
		if a.Accepting() != b.Accepting() {
			t.Errorf("%s: sibling instances diverge on the same stream", m.name)
		}
	}
}
