// Package alphabet provides dense interning of finite alphabets.
//
// Automata in this module work over an arbitrary finite alphabet Γ whose
// symbols are strings (XML element names, JSON keys, or single letters in
// the paper's examples). An Alphabet assigns each symbol a dense integer id
// so that transition tables can be plain slices.
package alphabet

import (
	"fmt"
	"sort"
	"strings"
)

// Alphabet is an immutable-after-construction mapping between symbol names
// and dense ids in [0, Size()).
type Alphabet struct {
	symbols []string
	index   map[string]int
}

// New builds an alphabet from the given symbols. Duplicates are collapsed;
// order of first occurrence is preserved.
func New(symbols ...string) *Alphabet {
	a := &Alphabet{index: make(map[string]int, len(symbols))}
	for _, s := range symbols {
		a.Add(s)
	}
	return a
}

// Letters builds an alphabet of single-character symbols from the runes of s.
// Letters("abc") == New("a", "b", "c").
func Letters(s string) *Alphabet {
	a := &Alphabet{index: make(map[string]int, len(s))}
	for _, r := range s {
		a.Add(string(r))
	}
	return a
}

// Add interns symbol s, returning its id. Existing symbols keep their id.
func (a *Alphabet) Add(s string) int {
	if id, ok := a.index[s]; ok {
		return id
	}
	id := len(a.symbols)
	a.symbols = append(a.symbols, s)
	if a.index == nil {
		a.index = make(map[string]int)
	}
	a.index[s] = id
	return id
}

// Size returns the number of distinct symbols.
func (a *Alphabet) Size() int { return len(a.symbols) }

// Generation returns the alphabet's mutation generation: it advances exactly
// when Add interns a new symbol, and symbols are never removed or renumbered,
// so two observations with equal generations saw identical alphabets. Caches
// keyed on an alphabet (the compiled-product cache of internal/product) fold
// the generation into their keys, so growing an alphabet after a compile
// invalidates the cached artifact instead of silently shearing its tables.
func (a *Alphabet) Generation() int { return len(a.symbols) }

// Union builds the shared alphabet of a set of machines: every symbol of
// every input, first-occurrence order across the inputs (so equal input
// sequences yield equal unions). The result is independent of the inputs —
// extending it does not affect them. A product automaton's transition table
// is indexed by the union's Sym space; member tables are re-indexed through
// it at construction (see core.NewProductDFA).
func Union(as ...*Alphabet) *Alphabet {
	u := &Alphabet{index: make(map[string]int)}
	for _, a := range as {
		for _, s := range a.symbols {
			u.Add(s)
		}
	}
	return u
}

// ID returns the id of symbol s and whether it is present.
func (a *Alphabet) ID(s string) (int, bool) {
	id, ok := a.index[s]
	return id, ok
}

// MustID returns the id of symbol s, panicking if absent. Intended for
// tests and for construction code where the symbol set is fixed.
func (a *Alphabet) MustID(s string) int {
	id, ok := a.index[s]
	if !ok {
		panic(fmt.Sprintf("alphabet: unknown symbol %q", s))
	}
	return id
}

// Symbol returns the symbol with the given id.
func (a *Alphabet) Symbol(id int) string { return a.symbols[id] }

// Symbols returns a copy of the symbol list in id order.
func (a *Alphabet) Symbols() []string {
	out := make([]string, len(a.symbols))
	copy(out, a.symbols)
	return out
}

// Contains reports whether s is a symbol of the alphabet.
func (a *Alphabet) Contains(s string) bool {
	_, ok := a.index[s]
	return ok
}

// Equal reports whether two alphabets have the same symbols with the same ids.
func (a *Alphabet) Equal(b *Alphabet) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i, s := range a.symbols {
		if b.symbols[i] != s {
			return false
		}
	}
	return true
}

// SameSymbolSet reports whether two alphabets contain the same symbols,
// regardless of id assignment.
func (a *Alphabet) SameSymbolSet(b *Alphabet) bool {
	if a.Size() != b.Size() {
		return false
	}
	for _, s := range a.symbols {
		if !b.Contains(s) {
			return false
		}
	}
	return true
}

// String renders the alphabet as {a,b,c} with symbols sorted for stability.
func (a *Alphabet) String() string {
	syms := a.Symbols()
	sort.Strings(syms)
	return "{" + strings.Join(syms, ",") + "}"
}

// Clone returns an independent copy that can be extended without affecting a.
func (a *Alphabet) Clone() *Alphabet {
	c := &Alphabet{
		symbols: make([]string, len(a.symbols)),
		index:   make(map[string]int, len(a.index)),
	}
	copy(c.symbols, a.symbols)
	for k, v := range a.index {
		c.index[k] = v
	}
	return c
}

// Sym is a dense symbol code under an alphabet: ids in [0, Size()) for
// alphabet symbols, plus the sentinel Size() for any label outside the
// alphabet. Keeping the unknown sentinel dense — one extra column rather
// than a negative id — lets compiled transition tables stay total: a
// state×symbol table with Size()+1 columns steps every event without a
// bounds or validity branch, and the unknown column simply rows into the
// machine's dead state (the poison convention of internal/core).
type Sym int32

// Coder codes labels to dense Sym codes under one alphabet: one alphabet
// lookup per call, labels outside it coding to the unknown sentinel. The
// event pipeline codes each distinct label of a stream once, through a
// remap of the stream's local label ids (internal/encoding), so a Coder
// keeps no cache of its own.
type Coder struct {
	alph    *Alphabet
	unknown Sym
}

// NewCoder returns a coder for the alphabet.
func NewCoder(a *Alphabet) *Coder {
	return &Coder{alph: a, unknown: Sym(a.Size())}
}

// Alphabet returns the alphabet the codes index into.
func (c *Coder) Alphabet() *Alphabet { return c.alph }

// Unknown returns the sentinel code for labels outside the alphabet:
// Sym(Alphabet().Size()), the extra column of compiled tables.
func (c *Coder) Unknown() Sym { return c.unknown }

// Code returns the dense code of label: its id, or Unknown() for a label
// outside the alphabet.
func (c *Coder) Code(label string) Sym {
	if id, ok := c.alph.ID(label); ok {
		return Sym(id)
	}
	return c.unknown
}

// Resolver memoizes label-to-id resolution for streaming hot paths. A small
// linear cache exploits two facts: documents use few distinct labels, and
// interned label strings make the == comparison a pointer check. Machines
// hold one by value: only the string Step fills its cache, so a machine
// instance that runs coded batches never allocates it.
type Resolver struct {
	alph   *Alphabet
	labels []string
	ids    []int
}

// NewResolver returns a resolver for the alphabet.
func NewResolver(a *Alphabet) Resolver {
	return Resolver{alph: a}
}

// ID resolves a label, caching the result.
func (r *Resolver) ID(label string) (int, bool) {
	for i, l := range r.labels {
		if l == label {
			return r.ids[i], true
		}
	}
	id, ok := r.alph.ID(label)
	if ok && len(r.labels) < 32 {
		r.labels = append(r.labels, label)
		r.ids = append(r.ids, id)
	}
	return id, ok
}
