// dtdvalidate demonstrates weak validation (Segoufin–Vianu, Section 4.1):
// given that the input stream is a well-formed document, can a DTD be
// validated without a stack? For path DTDs the answer is decided by the
// A-flatness (finite automaton) and HAR (depth-register automaton)
// criteria on the DTD's path language.
package main

import (
	"fmt"
	"log"
	"strings"

	"stackless/internal/classify"
	"stackless/internal/core"
	"stackless/internal/dtd"
	"stackless/internal/encoding"
)

func main() {
	// A fully recursive document grammar: doc → item*, item → (item|leaf)*,
	// leaf → ε.
	d := &dtd.PathDTD{
		Root: "doc",
		Prods: map[string]dtd.Production{
			"doc":  {Symbols: []string{"item"}},
			"item": {Symbols: []string{"item", "leaf"}},
			"leaf": {},
		},
	}
	rep, err := d.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DTD root=%s\n", d.Root)
	fmt.Printf("weak validation: registerless=%v stackless=%v (term: %v/%v)\n\n",
		rep.Registerless(), rep.Stackless(), rep.TermRegisterless(), rep.TermStackless())

	ev, kind, err := d.Validator()
	if err != nil {
		log.Fatal(err)
	}
	docs := []string{
		"<doc><item><leaf/><item><leaf/></item></item></doc>",
		"<doc><leaf/></doc>",             // leaf directly under doc: invalid
		"<doc><item><doc/></item></doc>", // doc below item: invalid
	}
	for _, x := range docs {
		ok, err := core.RecognizeCoded(ev, encoding.NewXMLScanner(strings.NewReader(x)))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-55s %-12s valid=%v\n", x, kind, ok)
	}

	// The Figure 6 pitfall: a specialized DTD whose annotated automaton
	// looks A-flat, but whose projected language is not — the criterion
	// must be applied to the determinized, minimized projection.
	fmt.Println("\nFigure 6 specialized DTD:")
	s := dtd.Fig6()
	fmt.Printf("  naive A-flat check on annotated automaton: %v\n", s.NaiveAFlat())
	proj, err := s.ProjectedPathLanguage()
	if err != nil {
		log.Fatal(err)
	}
	an := classify.Analyze(proj)
	aflat, _ := an.AFlat()
	har, _ := an.HAR()
	fmt.Printf("  projected minimal automaton: %d states, A-flat=%v, HAR=%v\n",
		proj.NumStates(), aflat, har)
}
