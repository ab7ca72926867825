package encoding

import (
	"io"
	"sync"

	"stackless/internal/alphabet"
)

// Buffer is a whole stream read into memory for the chunk-parallel engine
// (DESIGN.md §8): one CodedEvent per event whose Sym is the label's
// stream-local id, and Names, the labels by local id (id 0 is the empty
// label of term Closes). The events hold no pointers, so the GC never
// scans them. Each machine reading the buffer codes it through its own
// Remap: one alphabet lookup per distinct label, then one load per event.
type Buffer struct {
	Events []CodedEvent
	Names  []string
}

// drainInitial is the least event capacity a lexer's drain starts with.
const drainInitial = 4096

// eventPool recycles the stream-sized event arrays of buffers and of the
// chunk-parallel engine's coded streams, so a steady run of Workers > 1
// calls does not allocate them anew each time.
var eventPool sync.Pool // of *[]CodedEvent

// AcquireEvents returns n events, contents undefined, backed by a pooled
// array when one is large enough. Give them back with ReleaseEvents once
// nothing reads them.
func AcquireEvents(n int) []CodedEvent {
	if p, _ := eventPool.Get().(*[]CodedEvent); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]CodedEvent, n)
}

// ReleaseEvents returns an event array to the pool.
func ReleaseEvents(events []CodedEvent) {
	eventPool.Put(&events)
}

// Release returns the buffer's event array to the pool. Labels already
// handed out stay valid; the buffer itself may not be read again.
func (b *Buffer) Release() {
	ReleaseEvents(b.Events)
	b.Events, b.Names = nil, nil
}

// ReadBuffer drains src into a Buffer. An XMLScanner or TermScanner
// (guarded by CheckBalance or not) fills it straight from its lexer, whose
// local ids are the buffer's; any other Source interns each label through
// the same intern table. As with ReadAll, an error comes back together with
// the events read before it, and io.EOF is not an error.
func ReadBuffer(src Source) (*Buffer, error) {
	if ls, ok := src.(lexSource); ok {
		if lx := ls.lexerOf(); lx.lexState != nil && lx.vi == lx.vn {
			lx.setCoder(nil)
			events, err := lx.drain(AcquireEvents(drainInitial)[:0])
			b := &Buffer{Events: events, Names: append([]string(nil), lx.names...)}
			lx.release()
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
	}
	s := acquireLexState()
	defer s.put()
	var events []CodedEvent
	var err error
	if ss, ok := src.(*SliceSource); ok {
		events = AcquireEvents(len(ss.events) - ss.pos)[:0]
		for _, e := range ss.events[ss.pos:] {
			events = append(events, CodedEvent{Sym: alphabet.Sym(s.lookup(e.Label)), Kind: e.Kind})
		}
		ss.pos = len(ss.events)
	} else {
		events = AcquireEvents(0)
		for {
			var e Event
			if e, err = src.Next(); err != nil {
				break
			}
			events = append(events, CodedEvent{Sym: alphabet.Sym(s.lookup(e.Label)), Kind: e.Kind})
		}
		if err == io.EOF {
			err = nil
		}
	}
	return &Buffer{Events: events, Names: append([]string(nil), s.names...)}, err
}

// BufferEvents interns an event slice into a Buffer: the adapter through
// which callers holding []Event reach the buffered engines. Release the
// buffer when the run is done.
func BufferEvents(events []Event) *Buffer {
	b, _ := ReadBuffer(NewSliceSource(events))
	return b
}

// Len returns the number of buffered events.
func (b *Buffer) Len() int { return len(b.Events) }

// Label returns the label of event i.
func (b *Buffer) Label(i int) string { return b.Names[b.Events[i].Sym] }

// Event returns event i with its label.
func (b *Buffer) Event(i int) Event {
	e := b.Events[i]
	return Event{Kind: e.Kind, Label: b.Names[e.Sym]}
}

// Remap maps a Buffer's local label ids to one machine's codes.
type Remap []alphabet.Sym

// Remap codes the buffer's labels under alphabet a, one lookup per
// distinct label, as a Coder made for a now would: a label's id, or the
// unknown sentinel Sym(a.Size()). Each name is coded once, so a Coder's
// caches would only add work.
func (b *Buffer) Remap(a *alphabet.Alphabet) Remap {
	r := make(Remap, len(b.Names))
	unknown := alphabet.Sym(a.Size())
	for id, name := range b.Names {
		r[id] = unknown
		if s, ok := a.ID(name); ok {
			r[id] = alphabet.Sym(s)
		}
	}
	return r
}

// Recode writes src, buffered events whose Sym is a local id, into dst
// with each Sym mapped through r (one load per event) and returns the
// number of Opens among them. dst must hold at least len(src) events;
// otherwise nothing is written.
//
//treelint:plain
func (r Remap) Recode(dst, src []CodedEvent) int {
	if len(dst) < len(src) {
		return 0
	}
	dst = dst[:len(src)]
	closes := 0
	for i, e := range src {
		sym := alphabet.Sym(0)
		if j := int(e.Sym); uint(j) < uint(len(r)) {
			sym = r[j]
		}
		dst[i] = CodedEvent{Sym: sym, Kind: e.Kind}
		closes += int(e.Kind)
	}
	return len(src) - closes
}

// drain lexes the rest of the stream onto dst, growing it as needed, and
// returns it with the terminal error (io.EOF at a clean end). The caller
// sets the identity remap first, so each event's Sym is its local id.
//
//treelint:plain
func (l *lexer) drain(dst []CodedEvent) ([]CodedEvent, error) {
	ids := l.ids
	for {
		if cap(dst)-len(dst) < len(ids) {
			//treelint:partial growing the buffer: it doubles, so amortized O(1) per event
			grown := make([]CodedEvent, len(dst), 2*cap(dst)+len(ids))
			copy(grown, dst)
			dst = grown
		}
		free := dst[len(dst):cap(dst)]
		if len(free) > len(ids) {
			free = free[:len(ids)]
		}
		n, err := l.fillBatch(free, ids, false)
		if uint(n) <= uint(len(free)) {
			dst = append(dst, free[:n]...)
		}
		if err != nil {
			return dst, err
		}
	}
}
