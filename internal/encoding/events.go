// Package encoding implements the two serializations of trees studied in
// the paper: the markup encoding ⟨T⟩ over Γ ∪ Γ̄ (opening and closing tags
// both carry the label, as in XML) and the term encoding [T] over Γ ∪ {◁}
// (only opening tags carry the label, as in JSON) — Sections 2 and 4.2.
//
// The event model is shared: an Event is an opening tag with a label, or a
// closing tag whose label is present under the markup encoding and empty
// under the term encoding. Streaming sources produce events from XML-ish
// text, term-encoding text and JSON (byte lexers), and real XML (via
// encoding/xml).
package encoding

import (
	"errors"
	"fmt"
	"io"

	"stackless/internal/tree"
)

// Kind distinguishes opening from closing tags.
type Kind uint8

// Event kinds.
const (
	Open Kind = iota
	Close
)

// Event is one tag of an encoded tree. Label is empty on Close events under
// the term encoding.
type Event struct {
	Kind  Kind
	Label string
}

// String renders the event in the paper's notation: a for opening, ā
// (rendered a/) for closing, ◁ for an unlabelled close.
func (e Event) String() string {
	if e.Kind == Open {
		return e.Label
	}
	if e.Label == "" {
		return "◁"
	}
	return e.Label + "̄"
}

// ErrMalformed is returned when an event stream is not a well-formed
// encoding of a tree.
var ErrMalformed = errors.New("encoding: malformed event stream")

// Source is a pull-based stream of events; Next returns io.EOF after the
// last event.
type Source interface {
	Next() (Event, error)
}

// SliceSource adapts an event slice to a Source.
type SliceSource struct {
	events []Event
	pos    int
}

// NewSliceSource returns a Source over the given events.
func NewSliceSource(events []Event) *SliceSource { return &SliceSource{events: events} }

// Rewind resets the source to the first event, so one SliceSource can be
// replayed across runs (benchmarks and allocation tests).
func (s *SliceSource) Rewind() { s.pos = 0 }

// Next implements Source.
func (s *SliceSource) Next() (Event, error) {
	if s.pos >= len(s.events) {
		return Event{}, io.EOF
	}
	e := s.events[s.pos]
	s.pos++
	return e, nil
}

// ReadAll drains a Source into an event slice. On error it returns the
// events read so far together with the error (io.EOF is not an error).
func ReadAll(src Source) ([]Event, error) {
	if s, ok := src.(*SliceSource); ok && s.pos == 0 {
		s.pos = len(s.events)
		return s.events, nil
	}
	var out []Event
	for {
		e, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// Markup returns the markup encoding ⟨T⟩ as an event slice: every closing
// tag carries its label.
func Markup(t *tree.Node) []Event {
	out := make([]Event, 0, 2*t.Size())
	var rec func(n *tree.Node)
	rec = func(n *tree.Node) {
		out = append(out, Event{Open, n.Label})
		for _, c := range n.Children {
			rec(c)
		}
		out = append(out, Event{Close, n.Label})
	}
	rec(t)
	return out
}

// Term returns the term encoding [T] as an event slice: closing tags have
// no label.
func Term(t *tree.Node) []Event {
	out := make([]Event, 0, 2*t.Size())
	var rec func(n *tree.Node)
	rec = func(n *tree.Node) {
		out = append(out, Event{Open, n.Label})
		for _, c := range n.Children {
			rec(c)
		}
		out = append(out, Event{Kind: Close})
	}
	rec(t)
	return out
}

// Decode rebuilds a tree from an event stream, under either encoding:
// closing labels, when present, must match the opening tag. It fails on
// non-well-formed streams (ErrMalformed wrapped with detail).
func Decode(src Source) (*tree.Node, error) {
	var stack []*tree.Node
	var root *tree.Node
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if root != nil && len(stack) == 0 {
			return nil, fmt.Errorf("%w: content after root element", ErrMalformed)
		}
		switch e.Kind {
		case Open:
			n := tree.New(e.Label)
			if len(stack) == 0 {
				root = n
			} else {
				top := stack[len(stack)-1]
				top.Children = append(top.Children, n)
			}
			stack = append(stack, n)
		case Close:
			if len(stack) == 0 {
				return nil, fmt.Errorf("%w: unmatched closing tag %q", ErrMalformed, e.Label)
			}
			top := stack[len(stack)-1]
			if e.Label != "" && e.Label != top.Label {
				return nil, fmt.Errorf("%w: closing tag %q for element %q", ErrMalformed, e.Label, top.Label)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if root == nil {
		return nil, fmt.Errorf("%w: empty stream", ErrMalformed)
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("%w: %d unclosed elements", ErrMalformed, len(stack))
	}
	return root, nil
}

// IsWellFormedMarkup reports whether the event slice is a valid markup
// encoding of some tree.
func IsWellFormedMarkup(events []Event) bool {
	_, err := Decode(NewSliceSource(events))
	return err == nil
}

// balancedSource wraps a Source with the O(1) well-formedness guard the
// weak-validation setting permits: tag balance. It rejects streams whose
// depth goes negative or does not return to zero, and streams with events
// after the root closes. Label mismatches on closing tags are *not*
// detected — that would need the stack the model is avoiding; under weak
// validation the input is assumed well formed and this guard only catches
// gross transport errors.
type balancedSource struct {
	inner  Source
	depth  int
	opened bool
	done   bool
}

// CheckBalance wraps src with the balance guard. On an XMLScanner, a
// TermScanner or a JSONSource it switches on the lexer's inline guard
// instead and returns src itself, so a Batcher over the result still reads
// the lexer's coded batches. Guard errors name their byte offset there.
func CheckBalance(src Source) Source {
	if ls, ok := src.(lexSource); ok {
		ls.lexerOf().guard = true
		return src
	}
	return &balancedSource{inner: src}
}

// Next implements Source.
func (b *balancedSource) Next() (Event, error) {
	e, err := b.inner.Next()
	if err == io.EOF {
		if b.depth != 0 || !b.opened {
			return Event{}, fmt.Errorf("%w: stream ended at depth %d", ErrMalformed, b.depth)
		}
		return Event{}, io.EOF
	}
	if err != nil {
		return Event{}, err
	}
	if b.done {
		return Event{}, fmt.Errorf("%w: content after the root element", ErrMalformed)
	}
	if e.Kind == Open {
		b.opened = true
		b.depth++
	} else {
		b.depth--
		if b.depth < 0 {
			return Event{}, fmt.Errorf("%w: unmatched closing tag", ErrMalformed)
		}
		if b.depth == 0 {
			b.done = true
		}
	}
	return e, nil
}
