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

// ReadBuffer drains src into a Buffer through the fill a Batcher reads
// (lexer.go) with the identity remap: an XMLScanner, TermScanner or
// JSONSource (guarded by CheckBalance or not) lexes straight into it, and
// any other Source is interned event by event into the same table. As with
// ReadAll, an error comes back together with the events read before it,
// and io.EOF is not an error.
func ReadBuffer(src Source) (*Buffer, error) {
	n := drainInitial
	if ss, ok := src.(*SliceSource); ok {
		// Room for one event past the rest, so the fill meets the end
		// without growing the array.
		n = len(ss.events) - ss.pos + 1
	}
	var own lexer
	lx := streamLexer(src, &own)
	lx.setAlphabet(nil)
	events, err := lx.drain(AcquireEvents(n)[:0])
	b := &Buffer{Events: events, Names: append([]string(nil), lx.names...)}
	lx.release()
	if err == io.EOF {
		err = nil
	}
	return b, err
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
// distinct label.
func (b *Buffer) Remap(a *alphabet.Alphabet) Remap {
	return make(Remap, 0, len(b.Names)).Extend(b.Names, a)
}

// Extend codes names[len(r):] — the labels a stream interned since r was
// last extended — under alphabet a and returns r covering all of names:
// each label's id, or the unknown sentinel Sym(a.Size()) for one outside
// a. A nil a is the identity: each local id codes to itself. The lexers
// extend their remap through it once per new label, and a machine reading
// local ids (a Buffer, an identity Batcher) extends its own.
func (r Remap) Extend(names []string, a *alphabet.Alphabet) Remap {
	for id := len(r); id < len(names); id++ {
		sym := alphabet.Sym(id)
		if a != nil {
			sym = alphabet.Sym(a.Size())
			if s, ok := a.ID(names[id]); ok {
				sym = alphabet.Sym(s)
			}
		}
		r = append(r, sym)
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

// drain fills the rest of the stream onto dst, growing it as needed, and
// returns it with the terminal error (io.EOF at a clean end). The caller
// sets the identity remap first, so each event's Sym is its local id.
//
//treelint:plain
func (l *lexer) drain(dst []CodedEvent) ([]CodedEvent, error) {
	ids := l.ids
	for {
		if len(dst) == cap(dst) {
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
