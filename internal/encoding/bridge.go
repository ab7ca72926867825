package encoding

import (
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
)

// Bridges to the standard library parsers: real-world XML via encoding/xml
// and real-world JSON via encoding/json's streaming tokenizer.

// StdXMLSource adapts encoding/xml's token stream to markup events,
// skipping character data, comments, directives and processing
// instructions. It is slower than XMLScanner but handles full XML.
type StdXMLSource struct {
	dec *xml.Decoder
}

// NewStdXMLSource returns a Source over full XML input.
func NewStdXMLSource(r io.Reader) *StdXMLSource {
	return &StdXMLSource{dec: xml.NewDecoder(r)}
}

// Next implements Source.
func (s *StdXMLSource) Next() (Event, error) {
	for {
		tok, err := s.dec.Token()
		if err != nil {
			return Event{}, err // io.EOF at end
		}
		switch t := tok.(type) {
		case xml.StartElement:
			return Event{Open, t.Name.Local}, nil
		case xml.EndElement:
			return Event{Close, t.Name.Local}, nil
		}
	}
}

// JSONSource adapts a JSON document to term events following the paper's
// JSON reading (Sections 1 and 4.2): object keys are node labels, so the
// document {"a":{"b":1,"c":[2,3]}} becomes the tree
// root(a(b,c(item,item))). Arrays introduce children labelled ArrayItem;
// scalars are leaves. The root object is labelled RootLabel.
type JSONSource struct {
	dec     *json.Decoder
	events  []Event // small lookahead buffer
	stack   []jsonCtx
	done    bool
	opened  bool
	drained bool  // the input after the root was read
	tail    error // the reader's error after the root
}

type jsonCtx struct {
	inArray bool
}

// RootLabel and ArrayItem are the synthetic labels used by JSONSource.
const (
	RootLabel = "$"
	ArrayItem = "item"
)

// NewJSONSource returns a term-event Source over a JSON document.
func NewJSONSource(r io.Reader) *JSONSource {
	return &JSONSource{dec: json.NewDecoder(r)}
}

// Next implements Source.
func (s *JSONSource) Next() (Event, error) {
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

func (s *JSONSource) advance() error {
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
			if len(s.stack) > 0 && s.stack[len(s.stack)-1].inArray {
				s.events = append(s.events, Event{Open, ArrayItem})
			}
			s.stack = append(s.stack, jsonCtx{inArray: t == '['})
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
func (s *JSONSource) end() error {
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
func (s *JSONSource) malformed(err error) error {
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

func (s *JSONSource) handleValueOrKey(tok json.Token) error {
	if len(s.stack) == 0 {
		// Bare scalar document: single leaf under root.
		s.events = append(s.events, Event{Open, "value"}, Event{Kind: Close}, Event{Kind: Close})
		s.done = true
		return nil
	}
	top := s.stack[len(s.stack)-1]
	if top.inArray {
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
		case '{':
			s.stack = append(s.stack, jsonCtx{inArray: false})
		case '[':
			s.stack = append(s.stack, jsonCtx{inArray: true})
		default:
			return fmt.Errorf("%w: unexpected %v after key %q", ErrMalformed, d, key)
		}
		return nil
	}
	s.events = append(s.events, Event{Kind: Close})
	return nil
}
