package core

import (
	"fmt"

	"stackless/internal/encoding"
)

// Lemma 2.4: the classes of registerless and stackless tree languages are
// closed under intersection, union and complementation. This file makes
// the closure effective at the evaluator level: synchronous products and
// complements of arbitrary streaming evaluators. (For registerless
// machines the product of the underlying automata is again a finite
// automaton; for depth-register machines the product machine's registers
// are the disjoint union of the components' registers — both closures are
// realized here by running the component machines in lockstep.)

// BoolOp combines component acceptance bits.
type BoolOp func(a, b bool) bool

// The standard combinators.
var (
	And  BoolOp = func(a, b bool) bool { return a && b }
	Or   BoolOp = func(a, b bool) bool { return a || b }
	Xor  BoolOp = func(a, b bool) bool { return a != b }
	Diff BoolOp = func(a, b bool) bool { return a && !b }
)

// product runs two evaluators in lockstep.
type product struct {
	x, y Evaluator
	op   BoolOp
}

// Product returns the synchronous product of two evaluators, accepting
// according to op. The components receive every event.
func Product(x, y Evaluator, op BoolOp) Evaluator {
	return &product{x: x, y: y, op: op}
}

// Intersect accepts when both components accept (Lemma 2.4, intersection).
func Intersect(x, y Evaluator) Evaluator { return Product(x, y, And) }

// Union accepts when either component accepts (Lemma 2.4, union).
func Union(x, y Evaluator) Evaluator { return Product(x, y, Or) }

func (p *product) Reset() {
	p.x.Reset()
	p.y.Reset()
}

func (p *product) Step(e encoding.Event) {
	p.x.Step(e)
	p.y.Step(e)
}

func (p *product) Accepting() bool {
	return p.op(p.x.Accepting(), p.y.Accepting())
}

// complement flips acceptance (Lemma 2.4, complementation). Note the
// convention caveat: machines in this package treat labels outside their
// alphabet as poisoning (never accepting); Complement preserves that
// convention when the inner machine is Chunkable and reports the poison
// as JoinState -1, so that trees outside the alphabet are rejected by
// both L and its complement.
type complement struct {
	inner Evaluator
}

// Complement returns an evaluator accepting exactly when the inner one
// rejects (and the run stayed inside the alphabet, when detectable).
func Complement(inner Evaluator) Evaluator { return &complement{inner: inner} }

func (c *complement) Reset()                { c.inner.Reset() }
func (c *complement) Step(e encoding.Event) { c.inner.Step(e) }

func (c *complement) Accepting() bool {
	if m, ok := c.inner.(Chunkable); ok && m.JoinState() < 0 {
		return false
	}
	return !c.inner.Accepting()
}

// ProductTagDFA builds the explicit product of two tag automata over the
// same symbol set — the finite-state witness that registerless tree
// languages are closed under boolean operations (Lemma 2.4). Both inputs
// must be of the same encoding flavour (markup or term).
func ProductTagDFA(x, y *TagDFA, op BoolOp) (*TagDFA, error) {
	if !x.Alphabet.SameSymbolSet(y.Alphabet) {
		return nil, fmt.Errorf("core: product over different alphabets")
	}
	if (x.CloseAny == nil) != (y.CloseAny == nil) {
		return nil, fmt.Errorf("core: product of markup and term automata")
	}
	ymap := make([]int, x.Alphabet.Size())
	for a := 0; a < x.Alphabet.Size(); a++ {
		ymap[a] = y.Alphabet.MustID(x.Alphabet.Symbol(a))
	}
	nx, ny := x.NumStates(), y.NumStates()
	id := func(p, q int) int { return p*ny + q }
	var out *TagDFA
	if x.CloseAny == nil {
		out = NewTagDFA(x.Alphabet, nx*ny, id(x.Start, y.Start))
	} else {
		out = NewTermTagDFA(x.Alphabet, nx*ny, id(x.Start, y.Start))
	}
	for p := 0; p < nx; p++ {
		for q := 0; q < ny; q++ {
			s := id(p, q)
			out.Accept[s] = op(x.Accept[p], y.Accept[q])
			for a := 0; a < x.Alphabet.Size(); a++ {
				out.OpenT[s][a] = id(x.OpenT[p][a], y.OpenT[q][ymap[a]])
				if x.CloseT != nil {
					out.CloseT[s][a] = id(x.CloseT[p][a], y.CloseT[q][ymap[a]])
				}
			}
			if x.CloseAny != nil {
				out.CloseAny[s] = id(x.CloseAny[p], y.CloseAny[q])
			}
		}
	}
	return out, nil
}

// ComplementTagDFA flips the accepting set of a tag automaton.
func ComplementTagDFA(x *TagDFA) *TagDFA {
	out := &TagDFA{
		Alphabet: x.Alphabet,
		Start:    x.Start,
		Accept:   make([]bool, len(x.Accept)),
		OpenT:    x.OpenT,
		CloseT:   x.CloseT,
		CloseAny: x.CloseAny,
	}
	for i, a := range x.Accept {
		out.Accept[i] = !a
	}
	return out
}
