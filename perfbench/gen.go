package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	"stackless/internal/tree"
)

// Corpus generators. Each document is produced twice from one random
// decision sequence: as the bytes the engine reads and as the tree those
// bytes encode. The oracle reads only the tree, so no expectation is ever
// derived by a scanner under test.

// doc is one input document of a workload's pool.
type doc struct {
	data []byte
	// tree is the document the bytes encode; nil for a truncated document.
	tree *tree.Node
	// truncated marks a document cut at a seeded byte offset: every call on
	// it must return an error.
	truncated bool
}

// --- XML catalogs (xml-select) ---

var catalogLabels = []string{"catalog", "item", "name", "category", "price", "note"}

var words = []string{"red", "blue", "steel", "oak", "linen", "glass", "amber", "slate", "cedar", "wool", "brass", "jade"}

// xmlWriter renders a tree as XML with attributes and text content, the way
// catalog exports look, while the tree keeps only the element structure.
type xmlWriter struct {
	rng *rand.Rand
	buf bytes.Buffer
}

func (w *xmlWriter) text(n int) {
	for i := 0; i < n; i++ {
		if i > 0 {
			w.buf.WriteByte(' ')
		}
		w.buf.WriteString(words[w.rng.Intn(len(words))])
	}
}

func (w *xmlWriter) node(n *tree.Node, depth int) {
	indent := func() {
		w.buf.WriteByte('\n')
		for i := 0; i < depth; i++ {
			w.buf.WriteString("  ")
		}
	}
	indent()
	w.buf.WriteByte('<')
	w.buf.WriteString(n.Label)
	switch n.Label {
	case "item":
		fmt.Fprintf(&w.buf, ` id="i%d" stock="%d"`, w.rng.Intn(1e6), w.rng.Intn(500))
	case "category":
		fmt.Fprintf(&w.buf, ` code="c%d"`, w.rng.Intn(1000))
	}
	if len(n.Children) == 0 {
		switch n.Label {
		case "price":
			fmt.Fprintf(&w.buf, ">%d.%02d</price>", w.rng.Intn(1000), w.rng.Intn(100))
		case "name":
			w.buf.WriteByte('>')
			w.text(1 + w.rng.Intn(3))
			w.buf.WriteString("</name>")
		case "note":
			w.buf.WriteByte('>')
			w.text(3 + w.rng.Intn(8))
			w.buf.WriteString("</note>")
		default:
			w.buf.WriteString("/>")
		}
		return
	}
	w.buf.WriteByte('>')
	for _, c := range n.Children {
		w.node(c, depth+1)
	}
	indent()
	w.buf.WriteString("</")
	w.buf.WriteString(n.Label)
	w.buf.WriteByte('>')
}

// category builds a category subtree nested at most to maxDepth (the depth
// of the category node itself counts).
func category(rng *rand.Rand, depth, maxDepth int) *tree.Node {
	c := tree.New("category")
	if rng.Intn(4) > 0 {
		c.Children = append(c.Children, tree.New("name"))
	}
	for depth < maxDepth-1 && rng.Intn(3) == 0 {
		c.Children = append(c.Children, category(rng, depth+1, maxDepth))
	}
	if len(c.Children) == 0 {
		c.Children = append(c.Children, tree.New("name"))
	}
	return c
}

// catalogDoc builds a catalog of about size bytes: items with a name, a
// price, optional notes and nested categories, nesting at most 6.
func catalogDoc(rng *rand.Rand, size int) doc {
	root := tree.New("catalog")
	w := &xmlWriter{rng: rng}
	w.buf.WriteString(`<?xml version="1.0" encoding="UTF-8"?>`)
	est := 0
	for est < size {
		item := tree.New("item", tree.New("name"), tree.New("price"))
		if rng.Intn(3) == 0 {
			item.Children = append(item.Children, tree.New("note"))
		}
		for k := rng.Intn(3); k >= 0; k-- {
			item.Children = append(item.Children, category(rng, 3, 6))
		}
		root.Children = append(root.Children, item)
		est += 37 * item.Size() // bytes per element, measured
	}
	w.node(root, 0)
	w.buf.WriteByte('\n')
	return doc{data: w.buf.Bytes(), tree: root}
}

// --- JSON orders (json-small) ---

var orderLabels = []string{"$", "item", "id", "customer", "name", "city", "items", "sku", "qty", "price", "category", "tags", "total", "shipping"}

// jnode is a JSON value: an object (ordered keys), an array or a scalar.
// Its tree node is labelled with its key, "item" inside arrays, and "$" at
// the root, as the JSON source reads it.
type jnode struct {
	label  string
	kind   byte // 'o' object, 'a' array, 's' scalar
	scalar string
	kids   []*jnode
}

func jobj(label string, kids ...*jnode) *jnode { return &jnode{label: label, kind: 'o', kids: kids} }
func jarr(label string, kids ...*jnode) *jnode { return &jnode{label: label, kind: 'a', kids: kids} }
func jstr(label, s string) *jnode              { return &jnode{label: label, kind: 's', scalar: strconv.Quote(s)} }
func jnum(label string, n int) *jnode {
	return &jnode{label: label, kind: 's', scalar: strconv.Itoa(n)}
}

func (j *jnode) write(b *bytes.Buffer) {
	switch j.kind {
	case 's':
		b.WriteString(j.scalar)
	case 'a':
		b.WriteByte('[')
		for i, k := range j.kids {
			if i > 0 {
				b.WriteByte(',')
			}
			k.write(b)
		}
		b.WriteByte(']')
	default:
		b.WriteByte('{')
		for i, k := range j.kids {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Quote(k.label))
			b.WriteByte(':')
			k.write(b)
		}
		b.WriteByte('}')
	}
}

func (j *jnode) tree() *tree.Node {
	n := tree.New(j.label)
	for _, k := range j.kids {
		n.Children = append(n.Children, k.tree())
	}
	return n
}

// orderDoc builds one order message of 0.2–2 KB; one in 64 is truncated at
// a seeded byte offset strictly inside the message.
func orderDoc(rng *rand.Rand) doc {
	word := func() string { return words[rng.Intn(len(words))] }
	var items []*jnode
	for k := 1 + rng.Intn(16); k > 0; k-- {
		items = append(items, jobj("item",
			jstr("sku", fmt.Sprintf("SKU-%06d", rng.Intn(1e6))),
			jnum("qty", 1+rng.Intn(9)),
			jnum("price", rng.Intn(10000)),
			jobj("category", jnum("id", rng.Intn(500)), jstr("name", word()+" "+word()))))
	}
	shipping := jobj("shipping", jstr("city", word()), jnum("price", rng.Intn(2000)))
	if rng.Intn(4) == 0 {
		shipping.kids = append(shipping.kids, jstr("sku", "SHIP-"+word()))
	}
	var tags []*jnode
	for k := rng.Intn(4); k > 0; k-- {
		tags = append(tags, jstr("item", word()))
	}
	root := jobj("$",
		jnum("id", rng.Intn(1e9)),
		jobj("customer", jstr("name", word()+" "+word()), jstr("city", word())),
		jarr("items", items...),
		jarr("tags", tags...),
		shipping,
		jnum("total", rng.Intn(1e6)))
	var b bytes.Buffer
	root.write(&b)
	if rng.Intn(64) == 0 {
		cut := 1 + rng.Intn(b.Len()-1)
		return doc{data: b.Bytes()[:cut], truncated: true}
	}
	return doc{data: b.Bytes(), tree: root.tree()}
}

// --- brace-notation trees (term-validate) ---

var termLabels = []string{"a", "b", "c"}

// termDoc builds a random tree of about n nodes over {a,b,c} with one chain
// of spike nodes hanging off a random node. A valid document has root a and
// every leaf b under a parent a, so every branch is in a.*b, .*a.*b and .*ab
// and the AL verdicts are true; other documents are random.
func termDoc(rng *rand.Rand, n, spike int, valid bool) doc {
	nodes := []*tree.Node{tree.New(termLabels[rng.Intn(3)])}
	for len(nodes) < n-spike {
		// Uniform attachment: a random recursive tree, depth about e·ln n.
		p := nodes[rng.Intn(len(nodes))]
		c := tree.New(termLabels[rng.Intn(3)])
		p.Children = append(p.Children, c)
		nodes = append(nodes, c)
	}
	at := nodes[rng.Intn(len(nodes))]
	for i := 0; i < spike; i++ {
		c := tree.New(termLabels[rng.Intn(3)])
		at.Children = append(at.Children, c)
		at = c
	}
	root := nodes[0]
	if valid {
		root.Label = "a"
		root.Walk(func(x *tree.Node, _ int) bool {
			for _, c := range x.Children {
				if len(c.Children) == 0 {
					x.Label, c.Label = "a", "b"
				}
			}
			return true
		})
	}
	var b bytes.Buffer
	var rec func(x *tree.Node)
	rec = func(x *tree.Node) {
		b.WriteString(x.Label)
		b.WriteByte('{')
		for _, c := range x.Children {
			rec(c)
		}
		b.WriteByte('}')
	}
	rec(root)
	return doc{data: b.Bytes(), tree: root}
}

// --- Zipf-labelled XML (multi-parallel) ---

// zipfLabels is the 200-label vocabulary of multi-parallel; label i is the
// i-th most frequent.
func zipfLabels() []string {
	out := make([]string, 200)
	for i := range out {
		out[i] = fmt.Sprintf("t%03d", i)
	}
	return out
}

// zipfDoc builds an XML document of about size bytes, depth at most 12,
// whose labels follow Zipf(1.2) over the vocabulary.
func zipfDoc(rng *rand.Rand, labels []string, size int) doc {
	z := rand.NewZipf(rng, 1.2, 1, uint64(len(labels)-1))
	label := func() string { return labels[z.Uint64()] }
	budget := size / 10 // about 10 bytes per element, measured
	var grow func(depth int) *tree.Node
	grow = func(depth int) *tree.Node {
		n := tree.New(label())
		budget--
		for budget > 0 && depth < 12 && rng.Intn(depth+2) < 3 {
			n.Children = append(n.Children, grow(depth+1))
		}
		return n
	}
	root := tree.New(label())
	for budget > 0 {
		root.Children = append(root.Children, grow(2))
	}
	var b bytes.Buffer
	var rec func(x *tree.Node)
	rec = func(x *tree.Node) {
		if len(x.Children) == 0 {
			b.WriteString("<" + x.Label + "/>")
			return
		}
		b.WriteString("<" + x.Label + ">")
		for _, c := range x.Children {
			rec(c)
		}
		b.WriteString("</" + x.Label + ">")
	}
	rec(root)
	return doc{data: b.Bytes(), tree: root}
}
