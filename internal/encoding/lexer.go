package encoding

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"

	"stackless/internal/alphabet"
)

// The byte lexers (DESIGN.md §11). One lexer per notation (XML, term, JSON)
// reads its input through a reusable 64 KiB window, skips text, comments
// and quoted attribute values with bytes.IndexByte, and interns each
// distinct label once per stream into a dense stream-local id. Every event
// leaves the scan loop as a CodedEvent whose Sym is one load from the
// stream's remap (local id → the consuming machine's code, resolved once
// per distinct label), beside its local id for label recovery. A Batcher
// over a scanner takes these batches as they are; the scanners' Next reads
// the same batches back as Events. The O(1) balance guard of CheckBalance
// runs inside the scan loop.
//
// Every other Source is read by the same lexer type in a third mode: its
// events, read through a window of events as bytes are read through the
// byte window, are interned into the same table and coded through the
// same remap by fillEvents, so a stream of any origin becomes a Sym one
// way.

const (
	// windowSize is the lexer's byte window.
	windowSize = 64 << 10
	// MaxLabelBytes bounds a tag name, term label or JSON key (as
	// written, escapes included): a label must fit in the lexer's 64 KiB
	// window together with the byte that ends it. A longer one fails with
	// ErrMalformed at its offset instead of being buffered without limit.
	MaxLabelBytes = windowSize - 1
	// viewBatch is the Source view's batch: events lexed ahead of Next.
	viewBatch = 256
	// maxPooledLabels drops an intern table grown past it on release, so a
	// stream with many distinct labels does not pin its table in the pool.
	maxPooledLabels = 1 << 11
	// maxEmptyReads bounds consecutive (0, nil) reads, as bufio does.
	maxEmptyReads = 100
)

// The notations a byte lexer reads.
const (
	nXML uint8 = iota
	nTerm
	nJSON
)

// Lexer states: where the scan stood when its window ran dry. The JSON
// states between tokens say what the next token may be; each JSON string
// state is followed by its escape and \u states, in that order.
const (
	lText      uint8 = iota // between tags (XML) or tokens (term); JSON: before the root value
	lTag                    // XML: after '<'
	lOpenName               // XML: in an opening tag's name, from mark
	lCloseName              // XML: in a closing tag's name, from mark
	lAttrs                  // XML: after an opening tag's name, up to its '>'
	lQuote                  // XML: inside a quoted attribute value
	lCloseEnd               // XML: after a closing tag's name, up to its '>'
	lBang                   // XML: after "<!", deciding comment, CDATA or directive
	lSkip                   // XML: skipping up to marker, m bytes of it matched
	lSelfClose              // XML: the Close of a self-closing tag is pending
	lLabel                  // term: in a label, from mark
	jRoot                   // JSON: the root opened; a scalar root opens its "value" child
	jValue                  // JSON: a value, after ':' or an array's item
	jFirst                  // JSON: after '[': an element or ']'
	jElem                   // JSON: after ',' in an array: an element, whose item opens first
	jKeyFirst               // JSON: after '{': a key or '}'
	jKey                    // JSON: after ',' in an object: a key
	jColon                  // JSON: after a key: ':'
	jNext                   // JSON: after a value: ',' or its container's close
	jClose                  // JSON: a scalar root ended; the root's Close is pending
	jAfter                  // JSON: after the root, up to the first non-space byte
	jKeyStr                 // JSON: in a key, from mark
	jKeyEsc                 // JSON: after a backslash in a key
	jKeyHex                 // JSON: in a key's \u escape, m hex digits read
	jStr                    // JSON: in a string value
	jStrEsc                 // JSON: after a backslash in a string value
	jStrHex                 // JSON: in a string value's \u escape, m hex digits read
	jNum                    // JSON: in a number, m its grammar state
	jLit                    // JSON: in true, false or null: m bytes of marker matched
)

// nameStop marks the bytes that end an XML tag name.
var nameStop = [256]bool{'>': true, '/': true, ' ': true, '\t': true, '\n': true, '\r': true}

// Byte classes inside an opening tag, after its name.
const (
	aOther uint8 = iota // clears the self-closing flag
	aSpace              // whitespace or '=': leaves the flag alone
	aSlash              // sets the flag
	aQuote              // opens an attribute value
	aEnd                // '>' ends the tag
)

var attrClass = [256]uint8{
	' ': aSpace, '\t': aSpace, '\n': aSpace, '\r': aSpace, '=': aSpace,
	'/': aSlash, '"': aQuote, '\'': aQuote, '>': aEnd,
}

// cdataOpen follows "<!" at the start of a CDATA section.
var cdataOpen = []byte("[CDATA[")

// termSkip marks the separators between term tokens.
var termSkip = [256]bool{' ': true, '\t': true, '\n': true, '\r': true, ',': true}

// lexState is a lexer's pooled per-stream memory: the window, the intern
// table, the consuming alphabet with its remap, the Source view's batch,
// the events mode's event window and the JSON lexer's state.
type lexState struct {
	buf    []byte           // the window; nil until a byte lexer needs it
	names  []string         // local id → label; id 0 is the empty label of term Closes
	one    [256]int32       // single-byte label → local id, 0 if not interned
	index  map[string]int32 // longer label → local id
	alph   *alphabet.Alphabet
	remap  Remap // local id → code under alph (nil alph: the identity)
	view   []CodedEvent
	ids    []int32
	events []Event    // events mode's window buffer; nil until needed
	js     *jsonState // the JSON lexer's state; nil until a JSON stream needs it
}

var lexPool = sync.Pool{New: func() any {
	return &lexState{
		index: make(map[string]int32),
		view:  make([]CodedEvent, viewBatch),
		ids:   make([]int32, viewBatch),
	}
}}

// lexer is the scan state of one stream. The window holds buf[pos:end]
// unread; base is the stream offset of buf[0], so every error names its
// byte.
type lexer struct {
	*lexState // nil once released

	r   io.Reader
	src Source  // events mode: the Source read by fillEvents, nil for bytes
	win []Event // events mode: events pulled from src, not yet filled

	pos, end int
	base     int64
	rerr     error // r's own error, returned once the window runs dry
	err      error // terminal and sticky: io.EOF at a clean end, else the error

	// Resumable scan state.
	mark   int    // start of the pending label (name states, lBang, lLabel, JSON key states)
	scan   int    // label: where the search for its end resumes
	marker string // lSkip: the terminator; jLit: the literal
	m      int    // lSkip: bytes of marker matched, as the naive matcher counts; JSON: see the states
	nest   int    // JSON: open containers
	depth  int    // open tags, tracked with or without the guard

	vi, vn int // Source view: view[vi:vn] are lexed, undelivered

	tag      int32 // local id of the tag whose '>' is pending
	item     int32 // JSON: local id of ArrayItem, 0 until the stream needs it
	notation uint8
	st       uint8
	quote    byte // lQuote: the quote that ends the value
	guard    bool // CheckBalance: enforce tag balance inline
	eof      bool // r reported io.EOF
	self     bool // the opening tag's last significant byte was '/'
	esc      bool // jKeyStr: the key holds an escape or a byte ≥ 0x80
	rooted   bool // an Open was lexed
}

// lexSource is implemented by the scanners built on a lexer, so CheckBalance
// and the Batcher can reach it through a Source.
type lexSource interface {
	Source
	lexerOf() *lexer
}

func (l *lexer) lexerOf() *lexer { return l }

// acquireLexState takes a lexState from the pool with an empty intern
// table, only local id 0 (the empty label), and the identity remap.
func acquireLexState() *lexState {
	s := lexPool.Get().(*lexState)
	s.names = append(s.names[:0], "")
	s.alph, s.remap = nil, append(s.remap[:0], 0)
	s.one = [256]int32{}
	return s
}

// put returns s to the pool. Labels already handed out stay valid: they
// are strings of their own, not views of the window.
func (s *lexState) put() {
	if len(s.names) > maxPooledLabels {
		s.names, s.index, s.remap = nil, make(map[string]int32), nil
	}
	if s.js != nil && s.js.oversized() {
		s.js = nil
	}
	clear(s.names)
	clear(s.index)
	clear(s.events)
	s.alph = nil
	lexPool.Put(s)
}

// init readies l to scan r, written in notation, with pooled state.
func (l *lexer) init(r io.Reader, notation uint8) {
	l.lexState, l.r, l.notation = acquireLexState(), r, notation
	if l.buf == nil {
		l.buf = make([]byte, windowSize)
	}
	if notation == nJSON && l.js == nil {
		l.js = &jsonState{arrays: make([]uint64, 1)}
	}
}

// streamLexer returns the lexer that reads src as coded batches: a scanner's
// own, unless its Source view holds undelivered events or its state went
// back to the pool, else l, reset to read src's events through fillEvents
// with pooled state.
func streamLexer(src Source, l *lexer) *lexer {
	if ls, ok := src.(lexSource); ok {
		if lx := ls.lexerOf(); lx.lexState != nil && lx.vi == lx.vn {
			return lx
		}
	}
	*l = lexer{lexState: acquireLexState(), src: src}
	return l
}

// release returns the pooled state.
func (l *lexer) release() {
	s := l.lexState
	if s == nil {
		return
	}
	l.lexState = nil
	if l.err == nil {
		l.err = errReleased
	}
	s.put()
}

var errReleased = errors.New("encoding: scanner read after its batcher was released")

// setAlphabet makes the remap code labels under a (nil: the identity).
func (s *lexState) setAlphabet(a *alphabet.Alphabet) {
	s.alph = a
	s.remap = s.remap[:0].Extend(s.names, a)
}

// id returns the local id of label, or 0 if the stream has not interned
// it yet. Single-byte labels (the paper's letter alphabets) take one load
// from a 256-entry table; longer ones one lookup in a map keyed by the
// whole label, which converts nothing.
func (s *lexState) id(label []byte) int32 {
	if len(label) == 1 {
		return s.one[label[0]]
	}
	return s.index[string(label)]
}

// intern enters name into the intern table as the stream's next local id
// and extends the remap to code it.
//
//treelint:partial new labels: each distinct label is interned once per stream
func (s *lexState) intern(name string) int32 {
	id := int32(len(s.names))
	s.names = append(s.names, name)
	if len(name) == 1 {
		s.one[name[0]] = id
	} else {
		s.index[name] = id
	}
	s.remap = s.remap.Extend(s.names, s.alph)
	return id
}

// malformed records an ErrMalformed naming byte i of the window.
func (l *lexer) malformed(i int, format string, args ...any) {
	l.err = fmt.Errorf("%w at byte %d: %s", ErrMalformed, l.base+int64(i), fmt.Sprintf(format, args...))
}

// unbalanced records the guard's verdict on an event at depth 0 ending at
// window index i: a second root (rooted), or a Close before any Open.
func (l *lexer) unbalanced(i int, rooted bool) {
	if rooted {
		l.malformed(i, "content after the root element")
	} else {
		l.malformed(i, "unmatched closing tag")
	}
}

// lexXML scans the window into dst (local ids into ids) until dst is full,
// the window runs dry or an error is recorded, and returns the events
// written. It matches the reference scanner byte for byte: tag names end
// at '>', '/' or whitespace; attribute values are skipped to their quote;
// comments, CDATA sections and processing instructions to their
// terminators, with the reference's naive marker matching.
//
//treelint:plain
func (l *lexer) lexXML(dst []CodedEvent, ids []int32) int {
	if len(ids) < len(dst) {
		return 0
	}
	ids = ids[:len(dst)]
	if uint(l.end) > uint(len(l.buf)) {
		return 0
	}
	w := l.buf[:l.end]
	remap := l.remap
	pos, n, st := l.pos, 0, l.st
	mark, scan, tag, self := l.mark, l.scan, l.tag, l.self
	depth, rooted := l.depth, l.rooted
lex:
	for uint(n) < uint(len(dst)) {
		var kind Kind
		var id int32
		switch st {
		case lText:
			if uint(pos) > uint(len(w)) {
				break lex
			}
			i := bytes.IndexByte(w[pos:], '<')
			if i < 0 {
				pos = len(w)
				break lex
			}
			pos += i + 1
			st = lTag
			fallthrough
		case lTag:
			if uint(pos) >= uint(len(w)) {
				break lex
			}
			switch w[pos] {
			case '/':
				pos++
				mark, scan, st = pos, pos, lCloseName
				continue
			case '!':
				pos++
				mark, st = pos, lBang
				continue
			case '?':
				pos++
				l.marker, l.m, st = "?>", 0, lSkip
				continue
			}
			mark, scan, st = pos, pos, lOpenName
			fallthrough
		case lOpenName, lCloseName:
			i := scan
			for uint(i) < uint(len(w)) && !nameStop[w[i]] {
				i++
			}
			if i-mark > MaxLabelBytes {
				//treelint:partial error construction: once per stream
				l.malformed(mark, "tag name longer than %d bytes", MaxLabelBytes)
				break lex
			}
			if i >= len(w) || mark < 0 || mark > i {
				scan = i
				break lex
			}
			if i == mark {
				//treelint:partial error construction: once per stream
				l.malformed(mark, "empty tag name")
				break lex
			}
			if tag = l.id(w[mark:i]); tag == 0 {
				//treelint:partial new label: interned once per distinct label and stream
				tag = l.intern(string(w[mark:i]))
				remap = l.remap
			}
			pos = i
			if st == lCloseName {
				st = lCloseEnd
				continue
			}
			self, st = false, lAttrs
			continue
		case lQuote:
			if uint(pos) > uint(len(w)) {
				break lex
			}
			i := bytes.IndexByte(w[pos:], l.quote)
			if i < 0 {
				pos = len(w)
				break lex
			}
			pos += i + 1
			self, st = false, lAttrs
			fallthrough
		case lAttrs:
			for st == lAttrs && uint(pos) < uint(len(w)) {
				c := w[pos]
				pos++
				switch attrClass[c] {
				case aOther:
					self = false
				case aSlash:
					self = true
				case aQuote:
					l.quote, st = c, lQuote
				case aEnd:
					st = lText
				}
			}
			if st != lText {
				if st == lAttrs {
					break lex
				}
				continue
			}
			kind, id = Open, tag
			if self {
				st = lSelfClose
			}
		case lSelfClose:
			kind, id, st = Close, tag, lText
		case lCloseEnd:
			if uint(pos) > uint(len(w)) {
				break lex
			}
			i := bytes.IndexByte(w[pos:], '>')
			if i < 0 {
				pos = len(w)
				break lex
			}
			pos += i + 1
			kind, id, st = Close, tag, lText
		case lBang:
			if uint(pos) > uint(len(w)) {
				break lex
			}
			rest := w[pos:]
			switch {
			case len(rest) >= 2 && rest[0] == '-' && rest[1] == '-':
				l.marker = "-->"
			case len(rest) < 7 && !l.eof:
				break lex
			case bytes.HasPrefix(rest, cdataOpen):
				l.marker = "]]>"
			default:
				l.marker = ">"
			}
			l.m, st = 0, lSkip
			continue
		case lSkip:
			marker, m := l.marker, l.m
			for uint(m) < uint(len(marker)) {
				if m == 0 {
					if uint(pos) > uint(len(w)) {
						break
					}
					i := bytes.IndexByte(w[pos:], marker[0])
					if i < 0 {
						pos = len(w)
						break
					}
					pos += i + 1
					m = 1
					continue
				}
				if uint(pos) >= uint(len(w)) {
					break
				}
				c := w[pos]
				pos++
				switch {
				case c == marker[m]:
					m++
				case c == marker[0]:
					m = 1
				default:
					m = 0
				}
			}
			l.m = m
			if m < len(marker) {
				break lex
			}
			st = lText
			continue
		}
		// An event: kind and id are set. The guard can only object at
		// depth 0, before the root or after it closed.
		if depth == 0 && l.guard && (rooted || kind == Close) {
			//treelint:partial error construction: once per stream
			l.unbalanced(pos, rooted)
			break lex
		}
		if kind == Open {
			depth++
			rooted = true
		} else {
			depth--
		}
		sym := alphabet.Sym(0)
		if i := int(id); uint(i) < uint(len(remap)) {
			sym = remap[i]
		}
		dst[n] = CodedEvent{Sym: sym, Kind: kind}
		ids[n] = id
		n++
	}
	l.pos, l.st = pos, st
	l.mark, l.scan, l.tag, l.self = mark, scan, tag, self
	l.depth, l.rooted = depth, rooted
	return n
}

// lexTerm is lexXML for the brace notation: separators (whitespace and
// commas) are skipped, '}' is a Close, and any other byte starts a label
// that runs to the next '{'.
//
//treelint:plain
func (l *lexer) lexTerm(dst []CodedEvent, ids []int32) int {
	if len(ids) < len(dst) {
		return 0
	}
	ids = ids[:len(dst)]
	if uint(l.end) > uint(len(l.buf)) {
		return 0
	}
	w := l.buf[:l.end]
	remap := l.remap
	pos, n, st, mark, scan := l.pos, 0, l.st, l.mark, l.scan
	depth, rooted := l.depth, l.rooted
lex:
	for uint(n) < uint(len(dst)) {
		var kind Kind
		var id int32
		if st == lText {
			for uint(pos) < uint(len(w)) && termSkip[w[pos]] {
				pos++
			}
			if uint(pos) >= uint(len(w)) {
				break lex
			}
			if w[pos] == '}' {
				pos++
				kind = Close
			} else {
				// The label's first byte is taken as is, even a '{'.
				mark, scan, st = pos, pos+1, lLabel
			}
		}
		if st == lLabel {
			if uint(scan) > uint(len(w)) {
				break lex
			}
			i := bytes.IndexByte(w[scan:], '{')
			if i < 0 {
				if len(w)-mark > MaxLabelBytes {
					//treelint:partial error construction: once per stream
					l.malformed(mark, "term label longer than %d bytes", MaxLabelBytes)
				}
				pos, scan = len(w), len(w)
				break lex
			}
			end := scan + i
			if mark < 0 || mark > end || end >= len(w) {
				break lex
			}
			if id = l.id(w[mark:end]); id == 0 {
				//treelint:partial new label: interned once per distinct label and stream
				id = l.intern(string(w[mark:end]))
				remap = l.remap
			}
			pos, st, kind = end+1, lText, Open
		}
		if depth == 0 && l.guard && (rooted || kind == Close) {
			//treelint:partial error construction: once per stream
			l.unbalanced(pos, rooted)
			break lex
		}
		if kind == Open {
			depth++
			rooted = true
		} else {
			depth--
		}
		sym := alphabet.Sym(0)
		if i := int(id); uint(i) < uint(len(remap)) {
			sym = remap[i]
		}
		dst[n] = CodedEvent{Sym: sym, Kind: kind}
		ids[n] = id
		n++
	}
	l.pos, l.st, l.mark, l.scan = pos, st, mark, scan
	l.depth, l.rooted = depth, rooted
	return n
}

// fillBatch lexes into dst and ids until dst is full, the stream ends or
// fails, or — eager — the window runs dry after at least one event (so a
// Source view or an eager Batcher never blocks on input it does not need
// yet). It returns the events written and the terminal error: io.EOF at a
// clean end, nil while the stream goes on. In events mode it is fillEvents.
//
//treelint:plain
func (l *lexer) fillBatch(dst []CodedEvent, ids []int32, eager bool) (int, error) {
	if l.src != nil {
		return l.fillEvents(dst, ids, eager)
	}
	n := 0
	for l.err == nil && uint(n) <= uint(len(dst)) && uint(n) <= uint(len(ids)) {
		switch l.notation {
		case nXML:
			n += l.lexXML(dst[n:], ids[n:])
		case nTerm:
			n += l.lexTerm(dst[n:], ids[n:])
		default:
			n += l.lexJSON(dst[n:], ids[n:])
		}
		if n == len(dst) || l.err != nil || eager && n > 0 {
			break
		}
		if l.eof {
			//treelint:partial end of input: settles the verdict once per stream
			l.finish()
			break
		}
		//treelint:partial refill: one Read per window, not per event
		l.refill()
	}
	return n, l.err
}

// fillEvents is fillBatch over the events of a Source that is not a byte
// lexer, read through a window of events as the byte lexers read bytes:
// each label takes one load (single byte) or one map lookup in the intern
// table, a new one is interned, and the Sym is one load from the remap.
// The Source's error (io.EOF at its end) is terminal once the window
// drains. Eager, it returns once the window runs dry after at least one
// event, and pull reads one event at a time.
//
//treelint:plain
func (l *lexer) fillEvents(dst []CodedEvent, ids []int32, eager bool) (int, error) {
	n := 0
	for l.err == nil && uint(n) < uint(len(dst)) && uint(n) <= uint(len(ids)) {
		if len(l.win) == 0 {
			if eager && n > 0 {
				break
			}
			//treelint:partial refill: one pull per window of events, not per event
			l.pull(eager)
			continue
		}
		all, d, is := l.win, dst[n:], ids[n:]
		k := len(all)
		if k > len(d) {
			k = len(d)
		}
		if k > len(is) {
			k = len(is)
		}
		win := all[:k]
		d, is = d[:k], is[:k]
		remap, depth := l.remap, l.depth
		for i := range win {
			label, kind := win[i].Label, win[i].Kind
			var id int32
			if len(label) == 1 {
				id = l.one[label[0]]
			} else {
				id = l.index[label]
			}
			if id == 0 && label != "" {
				//treelint:partial new label: interned once per distinct label and stream
				id = l.intern(label)
				remap = l.remap
			}
			sym := alphabet.Sym(0)
			if j := int(id); uint(j) < uint(len(remap)) {
				sym = remap[j]
			}
			d[i] = CodedEvent{Sym: sym, Kind: kind}
			is[i] = id
			depth += 1 - 2*int(kind)
		}
		l.win, l.depth = all[k:], depth
		n += k
	}
	return n, l.err
}

// pull refills the event window of events mode. A *SliceSource hands over
// the rest of its slice, read in place; any other Source is read through
// Next into the pooled event buffer, up to its size (one event when eager)
// or the Source's error, which is held until the window drains.
//
//treelint:partial refill: one pull per window of events, not per event
func (l *lexer) pull(eager bool) {
	if l.rerr != nil {
		l.err = l.rerr
		return
	}
	if ss, ok := l.src.(*SliceSource); ok {
		l.win, l.rerr = ss.events[ss.pos:], io.EOF
		ss.pos = len(ss.events)
		return
	}
	if l.events == nil {
		l.events = make([]Event, viewBatch)
	}
	win := l.events[:0]
	for len(win) < cap(win) {
		e, err := l.src.Next()
		if err != nil {
			l.rerr = err
			break
		}
		win = append(win, e)
		if eager {
			break
		}
	}
	l.win = win
}

// finish records how the input ended: cleanly between tags or after a JSON
// root (subject to the guard), or inside a construct.
func (l *lexer) finish() {
	at := l.end
	switch l.st {
	case lText, jAfter:
		if l.guard && (l.depth != 0 || !l.rooted) {
			l.malformed(at, "stream ended at depth %d", l.depth)
			return
		}
		l.err = io.EOF
	case lTag:
		l.malformed(at, "truncated tag")
	case lOpenName, lCloseName:
		l.malformed(at, "truncated name")
	case lAttrs:
		l.malformed(at, "truncated tag %q", l.names[l.tag])
	case lQuote:
		l.malformed(at, "unterminated attribute")
	case lCloseEnd:
		l.malformed(at, "truncated closing tag")
	case lSkip:
		switch l.marker {
		case "-->":
			l.malformed(at, "unterminated comment")
		case "]]>":
			l.malformed(at, "unterminated CDATA section")
		case "?>":
			l.malformed(at, "truncated processing instruction")
		default:
			l.malformed(at, "truncated directive")
		}
	case lLabel:
		l.malformed(at, "truncated term label")
	case jValue, jColon:
		l.malformed(at, "truncated JSON: key without value")
	case jFirst, jElem, jKeyFirst, jKey, jNext:
		l.malformed(at, "truncated JSON: %d containers open", l.nest)
	case jKeyStr, jStr:
		l.truncated(at, "string")
	case jKeyEsc, jStrEsc:
		l.truncated(at, "escape")
	case jKeyHex, jStrHex:
		l.truncated(at, `\u escape`)
	case jLit:
		l.truncated(at, "literal")
	default:
		l.malformed(at, "truncated input")
	}
}

// refill slides the unconsumed bytes — from the pending label's start, if
// one is open — to the front of the window and reads once into the rest.
// A reader error is held until the window runs dry, then returned as is.
func (l *lexer) refill() {
	if l.rerr != nil {
		l.err = l.rerr
		return
	}
	keep := l.pos
	switch l.st {
	case lOpenName, lCloseName, lBang, lLabel, jKeyStr, jKeyEsc, jKeyHex:
		keep = l.mark
	}
	if keep > 0 {
		copy(l.buf, l.buf[keep:l.end])
		l.end -= keep
		l.pos -= keep
		l.mark -= keep
		l.scan -= keep
		l.base += int64(keep)
	}
	for range maxEmptyReads {
		k, err := l.r.Read(l.buf[l.end:])
		if k < 0 || k > len(l.buf)-l.end {
			l.err = fmt.Errorf("encoding: reader returned %d bytes for a %d-byte read", k, len(l.buf)-l.end)
			return
		}
		l.end += k
		if err == io.EOF {
			l.eof = true
			return
		}
		if err != nil {
			l.rerr = err
			if k == 0 {
				l.err = err
			}
			return
		}
		if k > 0 {
			return
		}
	}
	l.err = io.ErrNoProgress
}

// Next implements Source: the lexer's batches, one event at a time. The
// pooled state goes back to its pool when the stream ends.
func (l *lexer) Next() (Event, error) {
	if l.vi == l.vn {
		if l.lexState == nil {
			return Event{}, l.err
		}
		n, err := l.fillBatch(l.view, l.lexState.ids, true)
		l.vi, l.vn = 0, n
		if n == 0 {
			l.release()
			return Event{}, err
		}
	}
	e, id := l.view[l.vi], l.lexState.ids[l.vi]
	l.vi++
	return Event{Kind: e.Kind, Label: l.names[id]}, nil
}

// XMLScanner is the XML lexer's Source view: a streaming scanner for XML
// markup that produces markup events (Close events carry the label)
// without buffering the document.
//
// Supported: <a>, </a>, <a/>, text between tags (skipped), attributes
// (skipped up to the closing '>', quoted values included), comments
// (<!-- -->), CDATA sections, directives (<!...>) and processing
// instructions (<? ?>). A tag name longer than MaxLabelBytes is an error.
// A closing tag's name is not matched against its opening tag, here or in
// any later layer: the O(1) balance guard (CheckBalance) counts depth only,
// so a close naming the wrong label reaches the machines as written.
// A Batcher over an XMLScanner reads coded batches straight from the
// lexer.
type XMLScanner struct{ lexer }

// NewXMLScanner returns a scanner over r.
func NewXMLScanner(r io.Reader) *XMLScanner {
	s := &XMLScanner{}
	s.init(r, nXML)
	return s
}

// TermScanner is the term lexer's Source view: it streams the brace
// notation a{b{}c{}} as term events. A label is every byte from its first
// up to the next '{'; whitespace and commas separate tokens.
type TermScanner struct{ lexer }

// NewTermScanner returns a scanner over r.
func NewTermScanner(r io.Reader) *TermScanner {
	s := &TermScanner{}
	s.init(r, nTerm)
	return s
}
