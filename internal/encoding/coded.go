package encoding

import (
	"sync"

	"stackless/internal/alphabet"
)

// Coded event pipeline (DESIGN.md §11). The string labels of an event
// stream are lowered once, per distinct label, to dense alphabet.Sym codes
// through a Remap of the stream's local label ids; the machines then step
// flat state×symbol tables over CodedEvent batches with no hashing, no
// interface dispatch and no resolver in the hot loop. Labels outside the
// machine's alphabet a code to the dense unknown sentinel Sym(a.Size()),
// which compiled tables route to their dead state — the same poison
// convention the string pipeline implements with a branch per event.

// CodedEvent is a tag event lowered to a dense symbol code: 8 bytes, no
// pointers, so a batch is one cache-friendly allocation the GC never scans.
type CodedEvent struct {
	// Sym is the label's code under the machine's alphabet, or the
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
// (pass nil to allocate): one Coder.Code per event. No run codes this way —
// a stream is coded once per distinct label, through a Remap — so it serves
// as the plain reference the coded drivers are checked against.
func CodeEvents(coder *alphabet.Coder, events []Event, buf []CodedEvent) []CodedEvent {
	for _, e := range events {
		buf = append(buf, CodedEvent{Sym: coder.Code(e.Label), Kind: e.Kind})
	}
	return buf
}

// Batcher drains a Source into reusable coded batches. The slice returned
// by NextBatch is overwritten by the next call; consumers must finish with
// a batch before pulling the next one. Every source is read by one fill
// (lexer.go): an XMLScanner, TermScanner or JSONSource (guarded by
// CheckBalance or not) lexes its bytes straight into the batch, and any
// other Source is read through a window of its events into the same intern
// table. Either way each event's Sym is one load from the stream's remap
// of local label ids to the consuming alphabet's codes, and its local id
// is kept for label recovery.
type Batcher struct {
	lx  *lexer // the scanner's lexer, or own reading any other Source
	own lexer
	buf []CodedEvent
	ids []int32 // the current batch's local label ids
	err error

	hits   []int32 // AcquireBatcher: the driver's hit buffer
	pooled bool
	eager  bool // AcquireBatcher: return the events ready, read nothing ahead
}

// BatchLabel returns the original label of event i of the current batch.
// Coding is lossy — every out-of-alphabet label maps to the one unknown
// sentinel — yet machines that accept regardless of the label (e.g. an EL
// wrapper after its match) can select such events, and the reported match
// must carry the original label.
func (b *Batcher) BatchLabel(i int) string { return b.lx.names[b.ids[i]] }

// Names returns the stream's labels by local id, as far as it has been
// read: a batcher acquired with a nil alphabet delivers local ids as Syms,
// each machine codes them through its own Remap extended over Names, and
// Names()[sym] is the label. The table only grows; ids never change.
func (b *Batcher) Names() []string { return b.lx.names }

// NewBatcher returns a batcher of the given batch size (DefaultBatch when
// size <= 0) coding src's labels under coder's alphabet.
func NewBatcher(src Source, coder *alphabet.Coder, size int) *Batcher {
	if size <= 0 {
		size = DefaultBatch
	}
	b := &Batcher{buf: make([]CodedEvent, 0, size), ids: make([]int32, size)}
	b.attach(src, coder.Alphabet())
	return b
}

// attach points b at src, coding under a.
func (b *Batcher) attach(src Source, a *alphabet.Alphabet) {
	b.lx = streamLexer(src, &b.own)
	b.lx.setAlphabet(a)
}

// batcherPool recycles the coded drivers' Batchers with their batch,
// local-id and hit buffers.
var batcherPool = sync.Pool{New: func() any {
	return &Batcher{
		buf:    make([]CodedEvent, 0, DefaultBatch),
		ids:    make([]int32, DefaultBatch),
		hits:   make([]int32, 0, DefaultBatch),
		pooled: true,
	}
}}

// AcquireBatcher is NewBatcher at DefaultBatch coding under a, taken from
// a pool: the coded drivers' per-call state. A nil a is the identity: each
// Sym is the label's local id (see Names). An eager batcher returns the
// events its source has ready instead of filling the batch: those a byte
// lexer can lex from the bytes already read, the rest of a SliceSource,
// one event of any other Source. So a driver that steps each event before
// the next NextBatch (the earliest drivers, DESIGN.md §14) reads no input
// past the event that decides a match before emitting it. The caller must
// Release the batcher when the stream is done.
func AcquireBatcher(src Source, a *alphabet.Alphabet, eager bool) *Batcher {
	b := batcherPool.Get().(*Batcher)
	b.attach(src, a)
	b.eager = eager
	return b
}

// Hits returns an empty hit buffer owned by b, with room for the hits of a
// whole batch (at most one per event), so SelectBatch never grows it.
func (b *Batcher) Hits() []int32 { return b.hits[:0] }

// Release ends b's run: the pooled state of the lexer it read from goes
// back to the lexer pool, and a Batcher from AcquireBatcher goes back to
// its own. Neither b, its last batch nor a scanner it read may be used
// after.
func (b *Batcher) Release() {
	b.lx.release()
	b.lx, b.own, b.err, b.eager = nil, lexer{}, nil, false
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
	// Depth moves +1 per Open and -1 per Close, so a batch of n events
	// holds (n + Δdepth)/2 Opens.
	before := b.lx.depth
	n, err := b.lx.fillBatch(b.buf[:cap(b.buf)], b.ids[:cap(b.buf)], b.eager)
	b.err = err
	if n == 0 {
		return nil, 0, err
	}
	return b.buf[:n], (n + b.lx.depth - before) / 2, err
}
