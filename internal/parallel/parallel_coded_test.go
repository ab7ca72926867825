package parallel_test

import (
	"testing"

	"stackless/internal/classify"
	"stackless/internal/core"
	"stackless/internal/paperfigs"
	"stackless/internal/parallel"
)

// The compiled pipeline under chunking: machines with coded segment kernels
// run them whenever the parallel engine fans out (summarize codes the
// buffered stream once), so every differential test in this file doubles as
// a coded-vs-string check — the sequential reference always takes the
// string path.

// TestParallelCodedUnknownLabels drives documents containing labels outside
// the machine alphabet (the unknown-sentinel path of the coded kernels)
// through every chunkable machine class, over adversarial cut positions —
// including cuts landing exactly on the out-of-alphabet events. Covers the
// CutNone (tag DFA), CutNewMin (stackless), CutBelowEntry (restricted DRA,
// Example 2.6) and CutAll (unrestricted DRA, Example 2.2) kernels.
func TestParallelCodedUnknownLabels(t *testing.T) {
	p := parallel.NewPool(4)
	defer p.Close()
	an3a := classify.Analyze(paperfigs.Fig3a())
	an3c := classify.Analyze(paperfigs.Fig3c())
	tagM, err := core.RegisterlessQL(an3a)
	if err != nil {
		t.Fatal(err)
	}
	stM, err := core.StacklessQL(an3c)
	if err != nil {
		t.Fatal(err)
	}
	machines := []struct {
		name   string
		fresh  func() core.Chunkable
		kernel bool // has a coded all-states segment kernel
	}{
		{"tagdfa", func() core.Chunkable { return tagM.Evaluator().(core.Chunkable) }, true},
		{"stackless", func() core.Chunkable { return stM.Fork() }, true},
		{"dra/example26-cutbelowentry", func() core.Chunkable { return core.Example26().Evaluator().(core.Chunkable) }, false},
		{"dra/example22-cutall", func() core.Chunkable { return core.Example22().Evaluator().(core.Chunkable) }, false},
		{"dra/example27", func() core.Chunkable { return core.Example27Minimal().Evaluator().(core.Chunkable) }, false},
	}
	for _, mc := range machines {
		m := mc.fresh()
		if _, got := m.(core.CodedSegmentKernel); got != mc.kernel {
			t.Fatalf("%s: coded segment kernel = %v, want %v", mc.name, got, mc.kernel)
		}
		if mc.name == "dra/example26-cutbelowentry" {
			if pol := m.Cut(); pol != core.CutBelowEntry {
				t.Fatalf("Example26 cut policy: got %v, want CutBelowEntry", pol)
			}
		}
		// "z" is outside every machine alphabet here ({a,b,c} or {a,b}):
		// docs mix known and unknown labels at all positions.
		for _, events := range corpus("abz") {
			diffSelect(t, p, mc.name, m, events)
		}
	}
}
