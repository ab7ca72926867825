package encoding

import (
	"bufio"
	"io"
	"strings"

	"stackless/internal/tree"
)

// Text forms. The markup encoding is written as XML-ish text
// (<a><b/></a>); the term encoding as brace text (a{b{}}), the notation of
// Section 4.2.

// XMLString renders the tree as minimal XML (no declaration, attributes or
// text content).
func XMLString(t *tree.Node) string {
	var b strings.Builder
	WriteXML(&b, t)
	return b.String()
}

// WriteXML streams the tree as minimal XML to w.
func WriteXML(w io.Writer, t *tree.Node) {
	bw := bufio.NewWriter(w)
	var rec func(n *tree.Node)
	rec = func(n *tree.Node) {
		if len(n.Children) == 0 {
			bw.WriteString("<")
			bw.WriteString(n.Label)
			bw.WriteString("/>")
			return
		}
		bw.WriteString("<")
		bw.WriteString(n.Label)
		bw.WriteString(">")
		for _, c := range n.Children {
			rec(c)
		}
		bw.WriteString("</")
		bw.WriteString(n.Label)
		bw.WriteString(">")
	}
	rec(t)
	bw.Flush()
}

// TermString renders the tree in the brace notation of Section 4.2:
// a{b{a{}a{}}c{}}.
func TermString(t *tree.Node) string {
	var b strings.Builder
	var rec func(n *tree.Node)
	rec = func(n *tree.Node) {
		b.WriteString(n.Label)
		b.WriteByte('{')
		for _, c := range n.Children {
			rec(c)
		}
		b.WriteByte('}')
	}
	rec(t)
	return b.String()
}

// ParseXML parses the minimal XML form into a tree.
func ParseXML(s string) (*tree.Node, error) {
	return Decode(NewXMLScanner(strings.NewReader(s)))
}

// ParseTerm parses the brace form into a tree.
func ParseTerm(s string) (*tree.Node, error) {
	return Decode(NewTermScanner(strings.NewReader(s)))
}
