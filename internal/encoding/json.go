package encoding

import (
	"fmt"
	"io"
	"unicode/utf16"
	"unicode/utf8"

	"stackless/internal/alphabet"
)

// The JSON lexer, the byte lexer's third notation (DESIGN.md §11). It reads
// a JSON document under the paper's JSON reading (Sections 1 and 4.2):
// object keys are node labels, so {"a":{"b":1,"c":[2,3]}} becomes the tree
// $(a(b,c(item,item))). The root is labelled RootLabel, every array
// element ArrayItem, a scalar root has one child labelled "value", and a
// scalar is a leaf. The events are term events: a Close carries no label.

// RootLabel and ArrayItem are the synthetic labels of the JSON reading.
const (
	RootLabel = "$"
	ArrayItem = "item"
	// scalarLabel labels the one child of a scalar root.
	scalarLabel = "value"
)

// jsonState is the JSON lexer's part of a pooled lexState, allocated on the
// state's first JSON stream: one bit per open container, set for an array
// (so a close can be checked against its opener), and the buffer an
// escaped key is decoded into.
type jsonState struct {
	arrays []uint64
	key    []byte
}

// oversized reports whether a deep or long-keyed stream grew the state past
// what the pool keeps.
func (js *jsonState) oversized() bool {
	return len(js.arrays) > 64 || cap(js.key) > 4<<10
}

// grow makes room for 64 more levels of containers.
//
//treelint:partial deep nesting: the container bits grow once per 64 levels
func (js *jsonState) grow() []uint64 {
	js.arrays = append(js.arrays, 0)
	return js.arrays
}

// innerArray reports whether the innermost of nest open containers is an
// array.
func innerArray(arrays []uint64, nest int) bool {
	k := uint(nest-1) >> 6
	return nest > 0 && k < uint(len(arrays)) && arrays[k]>>(uint(nest-1)&63)&1 != 0
}

// closed returns the scan state after a container closes: the containers
// still open, whether the innermost is an array, and the next state.
func closed(arrays []uint64, nest int) (int, bool, uint8) {
	if nest--; nest == 0 {
		return 0, false, jAfter
	}
	return nest, innerArray(arrays, nest), jNext
}

// afterScalar returns the state after a scalar ends inside nest open
// containers: the next token, or, at the root, the root's Close.
func afterScalar(nest int) uint8 {
	if nest == 0 {
		return jClose
	}
	return jNext
}

// jsonSpace marks JSON's insignificant whitespace.
var jsonSpace = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// betweenTokens marks the JSON states that skip whitespace up to a token,
// which the state then reads as c.
const betweenTokens = 1<<lText | 1<<jValue | 1<<jFirst | 1<<jElem | 1<<jKeyFirst |
	1<<jKey | 1<<jColon | 1<<jNext | 1<<jAfter

// Byte classes inside a JSON string.
const (
	sPlain   uint8 = iota // carried as is
	sHigh                 // 0x80 and above: carried as is; a key holding one is decoded
	sQuote                // '"' ends the string
	sEscape               // '\\' starts an escape
	sControl              // below 0x20: invalid in a string
)

var strClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c < 0x20:
			t[c] = sControl
		case c >= 0x80:
			t[c] = sHigh
		}
	}
	t['"'], t['\\'] = sQuote, sEscape
	return t
}()

// escapeKind classifies the byte after a backslash: eShort for a one-byte
// escape, eHex for \u, 0 for an invalid escape.
const (
	eShort uint8 = 1 + iota
	eHex
)

var escapeKind = [256]uint8{
	'"': eShort, '\\': eShort, '/': eShort, 'b': eShort, 'f': eShort,
	'n': eShort, 'r': eShort, 't': eShort, 'u': eHex,
}

var isHex = func() (t [256]bool) {
	for _, c := range "0123456789abcdefABCDEF" {
		t[c] = true
	}
	return t
}()

// What a value's first byte starts.
const (
	vBad uint8 = iota
	vContainer
	vString
	vNumber
	vLiteral
)

var valueStart = func() (t [256]uint8) {
	t['{'], t['['], t['"'] = vContainer, vContainer, vString
	t['-'] = vNumber
	for c := '0'; c <= '9'; c++ {
		t[c] = vNumber
	}
	t['t'], t['f'], t['n'] = vLiteral, vLiteral, vLiteral
	return t
}()

// Number grammar states (m in jNum), after RFC 8259's
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. A number ends before the
// first byte that cannot continue it (nEnd), which is an error (nBad) in a
// state that cannot end one; the end of input ends a number as any such
// byte does. Nothing is converted.
const (
	nStart = iota // the first byte: '-' or a digit
	nSign         // after '-': a digit
	nZero         // after a leading 0: '.', 'e' or the end
	nInt          // in the integer digits
	nDot          // after '.': a digit
	nFrac         // in the fraction digits
	nE            // after 'e': a sign or a digit
	nESign        // after the exponent's sign: a digit
	nExp          // in the exponent digits
	nEnd          // the number ends before this byte
	nBad          // the number is invalid at this byte
)

// Byte classes of the number grammar; cOther also stands for the end of
// input.
const (
	cOther = iota
	cZero
	cDigit
	cMinus
	cPlus
	cDot
	cE
)

var numClass = func() (t [256]uint8) {
	t['0'] = cZero
	for c := '1'; c <= '9'; c++ {
		t[c] = cDigit
	}
	t['-'], t['+'], t['.'], t['e'], t['E'] = cMinus, cPlus, cDot, cE, cE
	return t
}()

// numNext is the number grammar's transition table, by state and class.
var numNext = func() (t [16][8]uint8) {
	for s := range t {
		for c := range t[s] {
			t[s][c] = nBad
		}
	}
	for _, s := range []int{nZero, nInt, nFrac, nExp} {
		for c := range t[s] {
			t[s][c] = nEnd
		}
	}
	t[nStart][cMinus], t[nStart][cZero], t[nStart][cDigit] = nSign, nZero, nInt
	t[nSign][cZero], t[nSign][cDigit] = nZero, nInt
	t[nZero][cDot], t[nZero][cE] = nDot, nE
	t[nInt][cZero], t[nInt][cDigit], t[nInt][cDot], t[nInt][cE] = nInt, nInt, nDot, nE
	t[nDot][cZero], t[nDot][cDigit] = nFrac, nFrac
	t[nFrac][cZero], t[nFrac][cDigit], t[nFrac][cE] = nFrac, nFrac, nE
	t[nE][cZero], t[nE][cDigit], t[nE][cPlus], t[nE][cMinus] = nExp, nExp, nESign, nESign
	t[nESign][cZero], t[nESign][cDigit] = nExp, nExp
	t[nExp][cZero], t[nExp][cDigit] = nExp, nExp
	return t
}()

// lexJSON is lexXML for JSON: it validates the document byte by byte —
// strings with their escapes and control bytes, numbers by the grammar,
// the literals, and the structure, checking each close against the bit of
// its container — and writes the events of the JSON reading. The root
// opens at its value's first byte; a key's Open is written at its closing
// quote, an array element's item at its first byte, and a scalar's Close
// at its end. After the root the scan stops at the first non-space byte:
// the stream ends there, and what follows is not read. The guard has
// nothing to check inline: the lexer writes no event at depth 0 but the
// root's Open.
//
//treelint:plain
func (l *lexer) lexJSON(dst []CodedEvent, ids []int32) int {
	if len(ids) < len(dst) || l.js == nil {
		return 0
	}
	ids = ids[:len(dst)]
	if uint(l.end) > uint(len(l.buf)) {
		return 0
	}
	w := l.buf[:l.end]
	remap, arrays := l.remap, l.js.arrays
	pos, n, st, mark, m := l.pos, 0, l.st, l.mark, l.m
	nest, item, esc := l.nest, l.item, l.esc
	depth, rooted := l.depth, l.rooted
	arr := innerArray(arrays, nest)
lex:
	for uint(n) < uint(len(dst)) {
		var kind Kind
		var id int32
		var c byte
		if betweenTokens>>(st&63)&1 != 0 {
			for uint(pos) < uint(len(w)) && jsonSpace[w[pos]] {
				pos++
			}
			if uint(pos) >= uint(len(w)) {
				break lex
			}
			c = w[pos]
		}
		switch st {
		case lText:
			//treelint:partial new label: interned once per stream
			id = l.labelID(RootLabel)
			remap = l.remap
			kind, st = Open, jRoot
		case jRoot:
			if uint(pos) >= uint(len(w)) {
				break lex
			}
			st = jValue
			if valueStart[w[pos]] == vContainer {
				continue
			}
			//treelint:partial new label: interned once per stream
			id = l.labelID(scalarLabel)
			remap = l.remap
			kind = Open
		case jFirst, jElem:
			if c == ']' && st == jFirst {
				pos++
				kind = Close
				nest, arr, st = closed(arrays, nest)
				break
			}
			if item == 0 {
				//treelint:partial new label: interned once per stream
				item = l.labelID(ArrayItem)
				remap = l.remap
			}
			kind, id, st = Open, item, jValue
		case jValue:
			switch valueStart[c] {
			case vContainer:
				k := uint(nest) >> 6
				if k >= uint(len(arrays)) {
					//treelint:partial deep nesting: the container bits grow once per 64 levels
					arrays = l.js.grow()
				}
				if k < uint(len(arrays)) {
					bit := uint64(1) << (uint(nest) & 63)
					arrays[k] &^= bit
					if arr = c == '['; arr {
						arrays[k] |= bit
					}
				}
				nest++
				pos++
				st = jKeyFirst
				if arr {
					st = jFirst
				}
			case vString:
				pos++
				st = jStr
			case vNumber:
				m, st = nStart, jNum
			case vLiteral:
				switch c {
				case 't':
					l.marker = "true"
				case 'f':
					l.marker = "false"
				default:
					l.marker = "null"
				}
				m, st = 0, jLit
			default:
				//treelint:partial error construction: once per stream
				l.malformed(pos, "invalid character %q, want a value", c)
				break lex
			}
			continue
		case jKeyFirst, jKey:
			if c == '"' {
				pos++
				mark, esc, st = pos, false, jKeyStr
				continue
			}
			if c == '}' && st == jKeyFirst {
				pos++
				kind = Close
				nest, arr, st = closed(arrays, nest)
				break
			}
			//treelint:partial error construction: once per stream
			l.malformed(pos, "invalid character %q, want an object key", c)
			break lex
		case jKeyStr:
			for uint(pos) < uint(len(w)) {
				k := strClass[w[pos]]
				if k > sHigh {
					break
				}
				esc = esc || k == sHigh
				pos++
			}
			if uint(pos) >= uint(len(w)) {
				break lex
			}
			switch strClass[w[pos]] {
			case sEscape:
				pos++
				esc, st = true, jKeyEsc
				continue
			case sControl:
				//treelint:partial error construction: once per stream
				l.malformed(pos, "control character %#02x in a string", w[pos])
				break lex
			}
			if mark < 0 || mark > pos {
				break lex
			}
			key := w[mark:pos]
			pos++
			if esc {
				//treelint:partial escaped key: decoded into a reused buffer, interned once per distinct label
				id = l.escapedID(key)
				remap = l.remap
			} else if id = l.id(key); id == 0 && len(key) > 0 {
				//treelint:partial new label: interned once per distinct label and stream
				id = l.intern(string(key))
				remap = l.remap
			}
			kind, st = Open, jColon
		case jKeyEsc, jStrEsc:
			if uint(pos) >= uint(len(w)) {
				break lex
			}
			switch escapeKind[w[pos]] {
			case eShort:
				st--
			case eHex:
				m, st = 0, st+1
			default:
				//treelint:partial error construction: once per stream
				l.malformed(pos, "invalid escape %q in a string", w[pos])
				break lex
			}
			pos++
			continue
		case jKeyHex, jStrHex:
			for m < 4 && uint(pos) < uint(len(w)) {
				if !isHex[w[pos]] {
					//treelint:partial error construction: once per stream
					l.malformed(pos, "invalid character %q in a \\u escape", w[pos])
					break lex
				}
				m++
				pos++
			}
			if m < 4 {
				break lex
			}
			st -= 2
			continue
		case jColon:
			if c != ':' {
				//treelint:partial error construction: once per stream
				l.malformed(pos, "invalid character %q after an object key, want ':'", c)
				break lex
			}
			pos++
			st = jValue
			continue
		case jStr:
			for uint(pos) < uint(len(w)) && strClass[w[pos]] <= sHigh {
				pos++
			}
			if uint(pos) >= uint(len(w)) {
				break lex
			}
			switch strClass[w[pos]] {
			case sEscape:
				pos++
				st = jStrEsc
				continue
			case sControl:
				//treelint:partial error construction: once per stream
				l.malformed(pos, "control character %#02x in a string", w[pos])
				break lex
			}
			pos++
			kind, st = Close, afterScalar(nest)
		case jNum:
			next := uint8(nEnd)
			for uint(pos) < uint(len(w)) {
				if next = numNext[m&15][numClass[w[pos]]&7]; next >= nEnd {
					break
				}
				m = int(next)
				pos++
			}
			if uint(pos) >= uint(len(w)) {
				if !l.eof {
					break lex
				}
				next = numNext[m&15][cOther]
			}
			if next == nBad {
				if uint(pos) < uint(len(w)) {
					//treelint:partial error construction: once per stream
					l.malformed(pos, "invalid character %q in a number", w[pos])
				} else {
					//treelint:partial error construction: once per stream
					l.truncated(pos, "number")
				}
				break lex
			}
			kind, st = Close, afterScalar(nest)
		case jLit:
			lit := l.marker
			for uint(m) < uint(len(lit)) && uint(pos) < uint(len(w)) {
				if w[pos] != lit[m] {
					//treelint:partial error construction: once per stream
					l.malformed(pos, "invalid character %q in the literal %s", w[pos], lit)
					break lex
				}
				m++
				pos++
			}
			if m < len(lit) {
				break lex
			}
			kind, st = Close, afterScalar(nest)
		case jNext:
			if c == ',' {
				pos++
				st = jKey
				if arr {
					st = jElem
				}
				continue
			}
			if arr && c != ']' || !arr && c != '}' {
				//treelint:partial error construction: once per stream
				l.malformed(pos, "invalid character %q after a value, want ',' or the container's close", c)
				break lex
			}
			pos++
			kind = Close
			nest, arr, st = closed(arrays, nest)
		case jClose:
			kind, st = Close, jAfter
		default: // jAfter: the stream ended at its root; c is not read
			l.err = io.EOF
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
	if l.err == nil && jKeyStr <= st && st <= jKeyHex && len(w)-mark > MaxLabelBytes {
		//treelint:partial error construction: once per stream
		l.malformed(mark, "JSON key longer than %d bytes", MaxLabelBytes)
	}
	l.pos, l.st, l.mark, l.m = pos, st, mark, m
	l.nest, l.item, l.esc = nest, item, esc
	l.depth, l.rooted = depth, rooted
	return n
}

// labelID returns the local id of name, interning it if the stream has not
// met it yet.
//
//treelint:partial new labels: each distinct label is interned once per stream
func (s *lexState) labelID(name string) int32 {
	var id int32
	if len(name) == 1 {
		id = s.one[name[0]]
	} else {
		id = s.index[name]
	}
	if id == 0 {
		id = s.intern(name)
	}
	return id
}

// escapedID returns the local id of a key holding an escape or a byte
// ≥ 0x80, given its raw bytes between the quotes: the key is decoded first,
// as encoding/json decodes it, into a buffer reused across keys.
//
//treelint:partial escaped key: decoded into a reused buffer, interned once per distinct label
func (l *lexer) escapedID(raw []byte) int32 {
	key := appendUnquoted(l.js.key[:0], raw)
	l.js.key = key
	id := l.id(key)
	if id == 0 {
		id = l.intern(string(key))
	}
	return id
}

// appendUnquoted appends s, the validated bytes of a JSON string between
// its quotes, to dst decoded as encoding/json decodes it: escapes
// resolved, a \u surrogate pair joined into one rune, and a lone surrogate
// and each byte of invalid UTF-8 replaced by U+FFFD.
func appendUnquoted(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\' && i+1 < len(s):
			switch e := s[i+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(s[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					if i+1 < len(s) && s[i] == '\\' && s[i+1] == 'u' {
						if d := utf16.DecodeRune(r, hex4(s[i+2:])); d != utf8.RuneError {
							dst = utf8.AppendRune(dst, d)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// hex4 reads the four hex digits of a validated \u escape.
func hex4(s []byte) rune {
	var r rune
	for i := 0; i < 4 && i < len(s); i++ {
		c := rune(s[i])
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | c
	}
	return r
}

// truncated records input that ended inside a JSON token: an ErrMalformed
// that also wraps io.ErrUnexpectedEOF, as encoding/json reports such a cut.
func (l *lexer) truncated(i int, token string) {
	l.err = fmt.Errorf("%w at byte %d: truncated %s: %w", ErrMalformed, l.base+int64(i), token, io.ErrUnexpectedEOF)
}

// JSONSource is the JSON lexer's Source view: it streams a JSON document as
// term events under the JSON reading. Object keys are node labels, each
// array element is a node labelled ArrayItem, a scalar is a leaf, the root
// is labelled RootLabel, and a scalar root has one child labelled "value".
//
// The whole value is validated byte by byte: strings with their escapes,
// numbers by the JSON grammar (no number is converted), the literals and
// the structure. A key longer than MaxLabelBytes is an error; a key holding
// an escape or a byte ≥ 0x80 is decoded as encoding/json decodes it. A
// string value is never held in memory. After the root the source reads on
// only to the first non-space byte: a reader error met there fails the
// stream, and trailing content is ignored. Every error of the input wraps
// ErrMalformed and names its byte offset. A Batcher over a JSONSource reads
// coded batches straight from the lexer.
type JSONSource struct{ lexer }

// NewJSONSource returns a term-event Source over a JSON document.
func NewJSONSource(r io.Reader) *JSONSource {
	s := &JSONSource{}
	s.init(r, nJSON)
	return s
}
