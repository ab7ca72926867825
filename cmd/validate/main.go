// Command validate performs weak validation (Section 4.1) of streamed XML
// documents against a path DTD given in the text format of internal/dtd:
//
//	root doc
//	doc  -> (item)*
//	item -> (item | leaf)*
//	leaf -> ()*
//
// It classifies the DTD (registerless / stackless / stack-only per the
// characterization theorems), compiles the cheapest validator, and runs it
// over each document.
//
// Usage:
//
//	validate -dtd grammar.dtd doc1.xml doc2.xml
//	validate -dtd grammar.dtd -classify
//	cat doc.xml | validate -dtd grammar.dtd
//
// The exit status is 0 when every document validates, 1 when any document
// is invalid or fails to stream, and 2 on usage or DTD errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"stackless/internal/core"
	"stackless/internal/dtd"
	"stackless/internal/encoding"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dtdPath  = fs.String("dtd", "", "path to the DTD grammar file (required)")
		classify = fs.Bool("classify", false, "print the weak-validation classification and exit")
		stack    = fs.Bool("stack", false, "force the stack baseline validator")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dtdPath == "" {
		fmt.Fprintln(stderr, "validate: -dtd is required")
		return 2
	}
	src, err := os.ReadFile(*dtdPath)
	if err != nil {
		fmt.Fprintln(stderr, "validate:", err)
		return 2
	}
	d, err := dtd.ParsePathDTD(string(src))
	if err != nil {
		fmt.Fprintln(stderr, "validate:", err)
		return 2
	}

	rep, err := d.Analyze()
	if err != nil {
		fmt.Fprintln(stderr, "validate:", err)
		return 2
	}
	if *classify {
		fmt.Fprintf(stdout, "DTD root=%s\n%s", d.Root, d.Format())
		fmt.Fprintf(stdout, "weak validation: registerless=%v stackless=%v (term: %v/%v)\n",
			rep.Registerless(), rep.Stackless(), rep.TermRegisterless(), rep.TermStackless())
		return 0
	}

	var validator core.Evaluator
	kind := "stack"
	if !*stack {
		if ev, k, err := d.Validator(); err == nil {
			validator, kind = ev, k
		}
	}
	if validator == nil {
		validator = d.AsGeneral().NewStackValidator()
	}

	allValid := true
	check := func(name string, r io.Reader) {
		// The balance guard rejects truncated or gross-transport-damaged
		// streams, matching the public API's default. The compiled
		// validators run coded batches; the stack validator has no batch
		// kernel and runs per event.
		ok, err := core.RecognizeCoded(validator, encoding.CheckBalance(encoding.NewXMLScanner(r)))
		if err != nil {
			allValid = false
			fmt.Fprintf(stdout, "%s: error: %v\n", name, err)
			return
		}
		if !ok {
			allValid = false
		}
		fmt.Fprintf(stdout, "%s: valid=%v (%s)\n", name, ok, kind)
	}
	if fs.NArg() == 0 {
		check("stdin", stdin)
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "validate:", err)
			return 2
		}
		check(path, f)
		_ = f.Close() // read-side close; check has already consumed the stream
	}
	if !allValid {
		return 1
	}
	return 0
}
