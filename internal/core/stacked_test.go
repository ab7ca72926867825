package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"stackless/internal/alphabet"
	"stackless/internal/classify"
	"stackless/internal/dfa"
	"stackless/internal/encoding"
	"stackless/internal/rex"
)

// stackedMembers compiles the members of the stacked tests: a registerless
// query over {a,b}, a stackless and a stack-tier one over {a,b,c}, with
// each one's own compiled machine (nil for the stack tier).
func stackedMembers(t *testing.T, blind bool) ([]*dfa.DFA, []Evaluator) {
	t.Helper()
	var ds []*dfa.DFA
	var own []Evaluator
	for _, m := range []struct{ expr, labels string }{{"a.*b", "ab"}, {".*a.*b", "abc"}, {".*ab", "abc"}} {
		l, err := rex.CompileString(m.expr, alphabet.Letters(m.labels))
		if err != nil {
			t.Fatal(err)
		}
		an := classify.Analyze(l)
		ds = append(ds, an.D)
		switch m.expr {
		case "a.*b":
			build := RegisterlessQL
			if blind {
				build = BlindRegisterlessQL
			}
			d, err := build(an)
			if err != nil {
				t.Fatal(err)
			}
			own = append(own, d.Evaluator())
		case ".*a.*b":
			build := StacklessQL
			if blind {
				build = BlindStacklessQL
			}
			ev, err := build(an)
			if err != nil {
				t.Fatal(err)
			}
			own = append(own, ev)
		default:
			own = append(own, nil)
		}
	}
	return ds, own
}

// TestStackedVsMembers runs random documents, deep ones included (past the
// 64 frames a run starts with), through SelectStacked in random batch
// sizes, and holds every hit's mask to the members: a compiled member's own
// machine, and the stack-tier member's DFA over the path to the node.
func TestStackedVsMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	labels := []string{"a", "b", "c", "zz"} // zz: outside every member
	for _, blind := range []bool{false, true} {
		ds, own := stackedMembers(t, blind)
		p, err := NewStackedProduct(ds, []bool{true, true, false}, blind)
		if err != nil {
			t.Fatal(err)
		}
		u := p.Alphabet()
		for trial := 0; trial < 300; trial++ {
			tr := randomTree(rng, labels, 1+rng.Intn(40))
			if trial%10 == 0 {
				for n, i := tr, 0; i < 100; i++ { // a spine of 100 more levels
					c := randomTree(rng, labels, 1)
					n.Children = append(n.Children, c)
					n = c
				}
			}
			events := encoding.Markup(tr)
			if blind {
				events = encoding.Term(tr)
			}
			batch := make([]encoding.CodedEvent, len(events))
			for i, e := range events {
				sym, ok := u.ID(e.Label)
				if !ok || (blind && e.Kind == encoding.Close) {
					sym = u.Size()
				}
				batch[i] = encoding.CodedEvent{Sym: alphabet.Sym(sym), Kind: e.Kind}
			}
			run := p.Run()
			var hits []int32
			var masks []uint64
			for lo := 0; lo < len(batch); {
				hi := min(len(batch), lo+1+rng.Intn(8))
				for _, h := range run.SelectStacked(batch[lo:hi], nil) {
					hits = append(hits, int32(lo)+h)
				}
				masks = append(masks, run.HitMasks()...)
				lo = hi
			}
			run.Release()

			for _, ev := range own {
				if ev != nil {
					ev.Reset()
				}
			}
			path := []int{ds[2].Start}
			h := 0
			for i, e := range events {
				want := uint64(0)
				for m, ev := range own {
					if ev != nil {
						ev.Step(e)
						if e.Kind == encoding.Open && ev.Accepting() {
							want |= 1 << m
						}
					}
				}
				if e.Kind == encoding.Close {
					path = path[:len(path)-1]
				} else {
					q := -1
					if id, ok := ds[2].Alphabet.ID(e.Label); ok && path[len(path)-1] >= 0 {
						q = ds[2].Delta[path[len(path)-1]][id]
					}
					path = append(path, q)
					if q >= 0 && ds[2].Accept[q] {
						want |= 1 << 2
					}
				}
				got := uint64(0)
				if h < len(hits) && int(hits[h]) == i {
					got = masks[h]
					h++
				}
				if got != want {
					t.Fatalf("blind=%v trial %d event %d (%v): mask %03b, members %03b", blind, trial, i, e, got, want)
				}
			}
		}
	}
}

// TestStackedEmptyStackClose: a Close on an empty stack is a no-op, as in
// the pushdown.
func TestStackedEmptyStackClose(t *testing.T) {
	ds, _ := stackedMembers(t, false)
	p, err := NewStackedProduct(ds, []bool{true, true, false}, false)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.Alphabet().ID("a")
	b, _ := p.Alphabet().ID("b")
	run := p.Run()
	defer run.Release()
	hits := run.SelectStacked([]encoding.CodedEvent{
		{Sym: alphabet.Sym(a), Kind: encoding.Close},
		{Sym: alphabet.Sym(a)},
		{Sym: alphabet.Sym(b)},
	}, nil)
	if len(hits) != 1 || hits[0] != 2 || run.HitMasks()[0] != 0b111 {
		t.Fatalf("hits %v masks %v, want ⟨b selected by every member", hits, run.HitMasks())
	}
}

// TestStackedRunAllocs: a warm run steps a batch without allocating.
func TestStackedRunAllocs(t *testing.T) {
	ds, _ := stackedMembers(t, false)
	p, err := NewStackedProduct(ds, []bool{true, true, false}, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(163))
	events := encoding.Markup(randomTree(rng, []string{"a", "b", "c"}, 300))
	batch := make([]encoding.CodedEvent, len(events))
	for i, e := range events {
		sym, _ := p.Alphabet().ID(e.Label)
		batch[i] = encoding.CodedEvent{Sym: alphabet.Sym(sym), Kind: e.Kind}
	}
	run := p.Run()
	defer run.Release()
	hits := run.SelectStacked(batch, nil) // warm-up: grow the hit buffers
	if allocs := testing.AllocsPerRun(50, func() { hits = run.SelectStacked(batch, hits[:0]) }); allocs != 0 {
		t.Errorf("SelectStacked allocates %.1f times per warm batch, want 0", allocs)
	}
}

// TestStackedCellCap: on a wide alphabet the stacked product's cell cap
// stops the build long before its state cap. Thirteen ".*lN.*m" members
// over 4,000 labels reach every subset of their flags, 2¹³ tuples, which
// under DefaultProductMaxStates alone would fill 8,192 rows of 4,001
// columns, 131 MB; the build fails at DefaultStackedMaxCells having
// allocated a few MiB.
func TestStackedCellCap(t *testing.T) {
	labels := make([]string, 4000)
	for i := range labels {
		labels[i] = fmt.Sprintf("l%04d", i)
	}
	alph := alphabet.New(labels...)
	var ds []*dfa.DFA
	for i := 0; i < 13; i++ {
		ds = append(ds, dfa.Minimize(rex.MustCompile(fmt.Sprintf(".*'%s'.*'%s'", labels[i], labels[len(labels)-1]), alph)))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewStackedProduct(ds, make([]bool, len(ds)), false)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrProductTooLarge) {
		t.Fatalf("err = %v, want ErrProductTooLarge", err)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 8<<20 {
		t.Errorf("the build allocated %d bytes before it stopped, want at most 8 MiB", b)
	} else {
		t.Logf("the build allocated %d bytes before it stopped", b)
	}
}
