package encoding

import (
	"io"
	"sync"

	"stackless/internal/alphabet"
)

// Coded event pipeline (DESIGN.md §11). The string labels of an event
// stream are lowered once, per distinct label, to dense alphabet.Sym codes;
// the machines then step flat state×symbol tables over CodedEvent batches
// with no hashing, no interface dispatch and no resolver in the hot loop.
// Labels outside the machine's alphabet code to the dense unknown sentinel
// (alphabet.Coder.Unknown), which compiled tables route to their dead
// state — the same poison convention the string pipeline implements with a
// branch per event.

// CodedEvent is a tag event lowered to a dense symbol code: 8 bytes, no
// pointers, so a batch is one cache-friendly allocation the GC never scans.
type CodedEvent struct {
	// Sym is the label's code under the machine's alphabet, or the coder's
	// unknown sentinel. Close events under the term encoding carry the
	// sentinel (their empty label is outside every alphabet); machines with
	// universal-close tables never consult it.
	Sym alphabet.Sym
	// Kind distinguishes Open from Close, as in Event.
	Kind Kind
}

// DefaultBatch is the batch size used by the coded drivers: big enough to
// amortize the per-batch bookkeeping, small enough to stay resident in L1.
const DefaultBatch = 4096

// CodeEvents lowers events into coded form using coder, appending to buf
// (pass nil to allocate). One-shot counterpart of Batcher for callers that
// hold a batch of events (the sequential multi-query pass); a stream read
// whole for the chunk-parallel engine is a Buffer, coded through a Remap.
func CodeEvents(coder *alphabet.Coder, events []Event, buf []CodedEvent) []CodedEvent {
	for _, e := range events {
		buf = append(buf, CodedEvent{Sym: coder.Code(e.Label), Kind: e.Kind})
	}
	return buf
}

// Batcher drains a Source into reusable coded batches. The slice returned
// by NextBatch is overwritten by the next call; consumers must finish with
// a batch before pulling the next one. Two sources skip the per-event
// interface call: a *SliceSource is coded straight from its backing slice,
// and an XMLScanner or TermScanner (guarded by CheckBalance or not) fills
// the batch from its lexer, each event's Sym one load from the stream's
// remap of local label ids to the coder's codes.
type Batcher struct {
	src   Source
	slice *SliceSource // non-nil fast path
	lx    *lexer       // non-nil fast path
	coder *alphabet.Coder
	buf   []CodedEvent
	err   error

	// Label recovery for the current batch: the source window (slice fast
	// path, no copying), the local label ids (lexer path) or the collected
	// labels (generic path). Needed because coding is lossy — every
	// out-of-alphabet label maps to the one unknown sentinel, yet machines
	// that accept regardless of the label (e.g. the synopsis ⊤ state) can
	// select such events, and the reported match must carry the original
	// label.
	win    []Event
	ids    []int32
	labels []string

	hits   []int32 // AcquireBatcher: the driver's hit buffer
	pooled bool
}

// BatchLabel returns the original label of event i of the current batch.
func (b *Batcher) BatchLabel(i int) string {
	switch {
	case b.win != nil:
		return b.win[i].Label
	case b.lx != nil:
		return b.lx.names[b.ids[i]]
	}
	return b.labels[i]
}

// NewBatcher returns a batcher of the given batch size (DefaultBatch when
// size <= 0) coding src's labels with coder.
func NewBatcher(src Source, coder *alphabet.Coder, size int) *Batcher {
	if size <= 0 {
		size = DefaultBatch
	}
	b := &Batcher{coder: coder, buf: make([]CodedEvent, 0, size)}
	b.attach(src)
	return b
}

// attach points b at src, taking a fast path where src has one. A scanner
// whose Source view holds undelivered events stays on the generic path.
func (b *Batcher) attach(src Source) {
	b.src = src
	switch s := src.(type) {
	case *SliceSource:
		b.slice = s
	case lexSource:
		lx := s.lexerOf()
		if lx.lexState == nil || lx.vi != lx.vn {
			return
		}
		b.lx = lx
		lx.setCoder(b.coder)
		if cap(b.ids) < cap(b.buf) {
			b.ids = make([]int32, cap(b.buf))
		}
	}
}

// batcherPool recycles the coded drivers' Batchers with their batch,
// local-id, label and hit buffers and their Coder.
var batcherPool = sync.Pool{New: func() any {
	return &Batcher{
		coder:  new(alphabet.Coder),
		buf:    make([]CodedEvent, 0, DefaultBatch),
		hits:   make([]int32, 0, DefaultBatch),
		pooled: true,
	}
}}

// AcquireBatcher is NewBatcher at DefaultBatch with a Coder for a, all
// taken from a pool: the coded drivers' per-call state. The caller must
// Release it when the stream is done.
func AcquireBatcher(src Source, a *alphabet.Alphabet) *Batcher {
	b := batcherPool.Get().(*Batcher)
	b.coder.Reset(a)
	b.attach(src)
	return b
}

// Hits returns an empty hit buffer owned by b, with room for the hits of a
// whole batch (at most one per event), so SelectBatch never grows it.
func (b *Batcher) Hits() []int32 { return b.hits[:0] }

// Release ends b's run: the pooled state of a scanner it read from goes
// back to the lexer pool, and a Batcher from AcquireBatcher goes back to
// its own. Neither b, its last batch nor the scanner may be used after.
func (b *Batcher) Release() {
	if b.lx != nil {
		b.lx.release()
	}
	clear(b.labels[:cap(b.labels)])
	b.src, b.slice, b.lx, b.win, b.err = nil, nil, nil, nil, nil
	b.labels = b.labels[:0]
	if b.pooled {
		batcherPool.Put(b)
	}
}

// NextBatch returns the next coded batch, the number of Open events in it,
// and the error that terminated the stream (io.EOF at a clean end). A final
// partial batch is returned together with its error; callers must process
// the batch before acting on the error. Subsequent calls repeat the error
// with an empty batch.
func (b *Batcher) NextBatch() ([]CodedEvent, int, error) {
	if b.err != nil {
		return nil, 0, b.err
	}
	if b.lx != nil {
		// Depth moves +1 per Open and -1 per Close, so a batch of n events
		// holds (n + Δdepth)/2 Opens.
		before := b.lx.depth
		n, err := b.lx.fillBatch(b.buf[:cap(b.buf)], b.ids[:cap(b.buf)], false)
		b.err = err
		if n == 0 {
			return nil, 0, err
		}
		return b.buf[:n], (n + b.lx.depth - before) / 2, err
	}
	buf := b.buf[:0]
	opens := 0
	if b.slice != nil {
		s := b.slice
		rest := s.events[s.pos:]
		if len(rest) == 0 {
			b.err = io.EOF
			return nil, 0, io.EOF
		}
		if len(rest) > cap(buf) {
			rest = rest[:cap(buf)]
		}
		for _, e := range rest {
			buf = append(buf, CodedEvent{Sym: b.coder.Code(e.Label), Kind: e.Kind})
			if e.Kind == Open {
				opens++
			}
		}
		s.pos += len(rest)
		b.buf, b.win = buf, rest
		return buf, opens, nil
	}
	labels := b.labels[:0]
	for len(buf) < cap(buf) {
		e, err := b.src.Next()
		if err != nil {
			b.err = err
			b.buf, b.labels = buf, labels
			return buf, opens, err
		}
		buf = append(buf, CodedEvent{Sym: b.coder.Code(e.Label), Kind: e.Kind})
		labels = append(labels, e.Label)
		if e.Kind == Open {
			opens++
		}
	}
	b.buf, b.labels = buf, labels
	return buf, opens, nil
}
