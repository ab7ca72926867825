package encoding

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The reference scanners: the byte-at-a-time bufio scanners and the
// encoding/json adapter the lexers replaced, kept as the oracles of
// FuzzXMLScanner, FuzzTermScanner and FuzzJSONSource. The lexers must
// produce the same events, labels and error-or-not verdict on every input,
// read whole or in pieces, with the guard on (CheckBalance wrapping a
// reference scanner) or off.

// refXMLScanner is a hand-rolled streaming scanner for the minimal XML form.
// It produces markup events (Close events carry the label) without
// buffering the document.
//
// Supported: <a>, </a>, <a/>, whitespace between tags, attributes (skipped
// up to the closing '>'), comments (<!-- -->) and processing instructions
// (<? ?>). Text content is skipped. Mismatched closing tags are reported by
// the evaluator layer, not here.
type refXMLScanner struct {
	r       *bufio.Reader
	self    string // pending self-closing tag label to emit a Close for
	done    bool
	nameBuf []byte
	intern  map[string]string // label interning: one allocation per distinct label
}

// newRefXMLScanner returns a scanner over r.
func newRefXMLScanner(r io.Reader) *refXMLScanner {
	return &refXMLScanner{
		r:      bufio.NewReaderSize(r, 64<<10),
		intern: make(map[string]string, 16),
	}
}

// Next implements Source.
func (s *refXMLScanner) Next() (Event, error) {
	if s.self != "" {
		label := s.self
		s.self = ""
		return Event{Close, label}, nil
	}
	if s.done {
		return Event{}, io.EOF
	}
	for {
		// Skip to next '<'.
		if err := s.skipTo('<'); err != nil {
			s.done = true
			return Event{}, io.EOF
		}
		c, err := s.r.ReadByte()
		if err != nil {
			return Event{}, fmt.Errorf("%w: truncated tag", ErrMalformed)
		}
		switch c {
		case '/':
			name, err := s.readName()
			if err != nil {
				return Event{}, err
			}
			if err := s.skipTo('>'); err != nil {
				return Event{}, fmt.Errorf("%w: truncated closing tag", ErrMalformed)
			}
			return Event{Close, name}, nil
		case '!':
			// Comment <!-- ... -->, CDATA <![CDATA[ ... ]]> (skipped like
			// text), or doctype <!...>.
			if err := s.skipDirective(); err != nil {
				return Event{}, err
			}
			continue
		case '?':
			// Processing instruction: skip to the closing '?>'.
			if err := s.skipUntil("?>"); err != nil {
				return Event{}, fmt.Errorf("%w: truncated processing instruction", ErrMalformed)
			}
			continue
		default:
			if err := s.r.UnreadByte(); err != nil {
				return Event{}, err
			}
			name, err := s.readName()
			if err != nil {
				return Event{}, err
			}
			// Skip attributes; detect self-closing.
			selfClose := false
			for {
				b, err := s.r.ReadByte()
				if err != nil {
					return Event{}, fmt.Errorf("%w: truncated tag %q", ErrMalformed, name)
				}
				if b == '/' {
					selfClose = true
					continue
				}
				if b == '>' {
					break
				}
				if b == '"' || b == '\'' { // attribute value; skip to matching quote
					if err := s.skipTo(b); err != nil {
						return Event{}, fmt.Errorf("%w: unterminated attribute", ErrMalformed)
					}
					selfClose = false
				} else if b != ' ' && b != '\t' && b != '\n' && b != '\r' && b != '=' {
					selfClose = false
				}
			}
			if selfClose {
				s.self = name
			}
			return Event{Open, name}, nil
		}
	}
}

func (s *refXMLScanner) readName() (string, error) {
	s.nameBuf = s.nameBuf[:0]
	for {
		c, err := s.r.ReadByte()
		if err != nil {
			return "", fmt.Errorf("%w: truncated name", ErrMalformed)
		}
		if c == '>' || c == '/' || c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			if err := s.r.UnreadByte(); err != nil {
				return "", err
			}
			break
		}
		s.nameBuf = append(s.nameBuf, c)
	}
	if len(s.nameBuf) == 0 {
		return "", fmt.Errorf("%w: empty tag name", ErrMalformed)
	}
	if label, ok := s.intern[string(s.nameBuf)]; ok { // no alloc: map lookup by []byte-to-string conversion is optimized
		return label, nil
	}
	label := string(s.nameBuf)
	s.intern[label] = label
	return label, nil
}

// skipDirective consumes a directive after "<!": comments to "-->", CDATA
// sections to "]]>", anything else to ">".
func (s *refXMLScanner) skipDirective() error {
	peek, err := s.r.Peek(2)
	if err == nil && string(peek) == "--" {
		if err := s.skipUntil("-->"); err != nil {
			return fmt.Errorf("%w: unterminated comment", ErrMalformed)
		}
		return nil
	}
	peek, err = s.r.Peek(7)
	if err == nil && string(peek) == "[CDATA[" {
		if err := s.skipUntil("]]>"); err != nil {
			return fmt.Errorf("%w: unterminated CDATA section", ErrMalformed)
		}
		return nil
	}
	if err := s.skipTo('>'); err != nil {
		return fmt.Errorf("%w: truncated directive", ErrMalformed)
	}
	return nil
}

// skipUntil discards input up to and including the marker string.
func (s *refXMLScanner) skipUntil(marker string) error {
	matched := 0
	for {
		c, err := s.r.ReadByte()
		if err != nil {
			return err
		}
		if c == marker[matched] {
			matched++
			if matched == len(marker) {
				return nil
			}
		} else if c == marker[0] {
			matched = 1
		} else {
			matched = 0
		}
	}
}

// skipTo discards input up to and including delim without allocating.
func (s *refXMLScanner) skipTo(delim byte) error {
	for {
		c, err := s.r.ReadByte()
		if err != nil {
			return err
		}
		if c == delim {
			return nil
		}
	}
}

// refTermScanner streams the brace notation a{b{}c{}} as term events.
type refTermScanner struct {
	r    *bufio.Reader
	done bool
}

// newRefTermScanner returns a scanner over r.
func newRefTermScanner(r io.Reader) *refTermScanner {
	return &refTermScanner{r: bufio.NewReaderSize(r, 64<<10)}
}

// Next implements Source.
func (s *refTermScanner) Next() (Event, error) {
	if s.done {
		return Event{}, io.EOF
	}
	for {
		c, err := s.r.ReadByte()
		if err != nil {
			s.done = true
			return Event{}, io.EOF
		}
		switch {
		case c == '}':
			return Event{Kind: Close}, nil
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ',':
			continue
		default:
			var b strings.Builder
			b.WriteByte(c)
			for {
				c, err := s.r.ReadByte()
				if err != nil {
					return Event{}, fmt.Errorf("%w: truncated term label", ErrMalformed)
				}
				if c == '{' {
					return Event{Open, b.String()}, nil
				}
				b.WriteByte(c)
			}
		}
	}
}

// refJSONSource is the encoding/json adapter the JSON lexer replaced, kept
// as the oracle of FuzzJSONSource with one change: its decoder uses
// UseNumber, so it accepts or rejects a number by the grammar alone, as
// the lexer does, instead of failing on one that overflows a float64.
type refJSONSource struct {
	dec     *json.Decoder
	events  []Event // small lookahead buffer
	stack   []bool  // per open container: is it an array
	done    bool
	opened  bool
	drained bool  // the input after the root was read
	tail    error // the reader's error after the root
}

// newRefJSONSource returns the reference adapter over a JSON document.
func newRefJSONSource(r io.Reader) *refJSONSource {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	return &refJSONSource{dec: dec}
}

// Next implements Source.
func (s *refJSONSource) Next() (Event, error) {
	for len(s.events) == 0 {
		if s.done {
			return Event{}, s.end()
		}
		if err := s.advance(); err != nil {
			return Event{}, err
		}
	}
	e := s.events[0]
	s.events = s.events[1:]
	return e, nil
}

func (s *refJSONSource) advance() error {
	tok, err := s.dec.Token()
	if err == io.EOF {
		s.done = true
		if s.opened {
			return fmt.Errorf("%w: truncated JSON", ErrMalformed)
		}
		return nil
	}
	if err != nil {
		return s.malformed(err)
	}
	if !s.opened {
		s.opened = true
		s.events = append(s.events, Event{Open, RootLabel})
	}
	if t, isDelim := tok.(json.Delim); isDelim {
		switch t {
		case '{', '[':
			// A container that is an array element becomes an "item" node;
			// a container that is a key's value or the root reuses the node
			// opened for the key / the root.
			if len(s.stack) > 0 && s.stack[len(s.stack)-1] {
				s.events = append(s.events, Event{Open, ArrayItem})
			}
			s.stack = append(s.stack, t == '[')
		case '}', ']':
			s.stack = s.stack[:len(s.stack)-1]
			// The closed container's node: root if the stack emptied, else
			// the enclosing key/item node.
			s.events = append(s.events, Event{Kind: Close})
			if len(s.stack) == 0 {
				s.done = true
			}
		}
		return nil
	}
	// Non-delimiter token: either an object key or a scalar value.
	return s.handleValueOrKey(tok)
}

// end reports how the input after the root ends: io.EOF, unless the
// reader fails there, whose error is returned. Trailing content is
// ignored.
func (s *refJSONSource) end() error {
	if !s.drained {
		s.drained = true
		if _, err := s.dec.Token(); err != nil && err != io.EOF && !tokenizerError(err) {
			s.tail = err
		}
	}
	if s.tail != nil {
		return s.tail
	}
	return io.EOF
}

// malformed types a tokenizer error: syntax errors and input ending inside
// a token (io.ErrUnexpectedEOF) wrap ErrMalformed with the decoder's byte
// offset, keeping the cause matchable. Errors of the underlying reader
// pass through unchanged.
func (s *refJSONSource) malformed(err error) error {
	if tokenizerError(err) {
		return fmt.Errorf("%w at byte %d: %w", ErrMalformed, s.dec.InputOffset(), err)
	}
	return err
}

// tokenizerError reports whether err is the tokenizer's verdict on the
// input (a syntax error, or input ending inside a token) rather than the
// reader's own error.
func tokenizerError(err error) bool {
	var syn *json.SyntaxError
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &syn)
}

func (s *refJSONSource) handleValueOrKey(tok json.Token) error {
	if len(s.stack) == 0 {
		// Bare scalar document: single leaf under root.
		s.events = append(s.events, Event{Open, "value"}, Event{Kind: Close}, Event{Kind: Close})
		s.done = true
		return nil
	}
	if s.stack[len(s.stack)-1] {
		s.events = append(s.events, Event{Open, ArrayItem}, Event{Kind: Close})
		return nil
	}
	// In an object: this token is a key; its value follows.
	key, ok := tok.(string)
	if !ok {
		return fmt.Errorf("%w: non-string object key %v", ErrMalformed, tok)
	}
	s.events = append(s.events, Event{Open, key})
	// Peek the value: scalar closes immediately; container defers the close
	// to the matching closing delimiter.
	val, err := s.dec.Token()
	if err == io.EOF {
		return fmt.Errorf("%w: key %q without value", ErrMalformed, key)
	}
	if err != nil {
		return s.malformed(err)
	}
	if d, isDelim := val.(json.Delim); isDelim {
		switch d {
		case '{', '[':
			s.stack = append(s.stack, d == '[')
		default:
			return fmt.Errorf("%w: unexpected %v after key %q", ErrMalformed, d, key)
		}
		return nil
	}
	s.events = append(s.events, Event{Kind: Close})
	return nil
}
