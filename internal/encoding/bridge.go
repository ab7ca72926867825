package encoding

import (
	"encoding/xml"
	"io"
)

// The bridge to the standard library's XML parser, for real-world XML.

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
