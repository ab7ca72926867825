// Package tablecheck statically verifies the compiled transition tables of
// DESIGN.md §11 and checks each compiled machine against its uncompiled
// (string-path) form over a bounded universe of trees.
//
// The compiled tables are the artifacts the hot path actually executes, so
// they get their own analysis layer on top of treelint's source-level
// contracts. Six invariant classes are checked, each with its own
// diagnostic kind:
//
//   - shape: table lengths, strides and row counts are consistent with the
//     declared state count and alphabet width;
//   - closure: every non-poison entry is in range after flag masking, and
//     poison entries are exactly -1;
//   - flags: selection-flag bits appear only in open columns, backtrack
//     candidates only in close columns, dead-state rows are self-absorbing,
//     and redundant compiled data (component vectors, fused accept bits)
//     agrees with its source of truth;
//   - totality: exactly one successor per (state, symbol, kind), with the
//     unknown-symbol column present and poison-closed;
//   - earliest: the earliest-decision flags of DESIGN.md §14 equal the
//     reachability fixpoint recomputed from the transition tables — a
//     corrupted set bit would silently drop matches, a corrupted clear bit
//     would silently forfeit the early exit;
//   - equivalence: the batched kernels agree with the per-event string path
//     on every well-formed tree within Limits, reported with a minimal
//     counterexample event sequence.
//
// Static checks run first; the bounded-equivalence search only runs on a
// statically clean machine (a malformed table would make it report derived
// noise instead of the root cause).
package tablecheck

import (
	"fmt"

	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/stackeval"
)

// Kind classifies a diagnostic by the invariant class it violates.
type Kind string

// The six invariant classes.
const (
	KindShape       Kind = "shape"
	KindClosure     Kind = "closure"
	KindFlags       Kind = "flags"
	KindTotality    Kind = "totality"
	KindEarliest    Kind = "earliest"
	KindEquivalence Kind = "equivalence"
)

// Diagnostic is one verified invariant violation.
type Diagnostic struct {
	// Machine is the caller-supplied name of the machine under check.
	Machine string `json:"machine"`
	// Kind is the violated invariant class.
	Kind Kind `json:"kind"`
	// Detail locates and describes the violation.
	Detail string `json:"detail"`
	// Counterexample renders Events in the paper's notation (equivalence
	// diagnostics only): a minimal event sequence on which the compiled and
	// uncompiled machines diverge.
	Counterexample string `json:"counterexample,omitempty"`
	// Events is the counterexample event sequence itself.
	Events []encoding.Event `json:"-"`
}

// String renders the diagnostic as machine: [kind] detail.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: [%s] %s", d.Machine, d.Kind, d.Detail)
	if d.Counterexample != "" {
		s += fmt.Sprintf(" (counterexample: %s)", d.Counterexample)
	}
	return s
}

// maxDiagnostics caps the report per machine: a systematically corrupted
// table (every entry of a DRA mask block, say) should read as one story,
// not thousands of lines.
const maxDiagnostics = 25

// reporter accumulates diagnostics up to the cap.
type reporter struct {
	machine   string
	ds        []Diagnostic
	truncated bool
}

func (r *reporter) add(k Kind, format string, args ...any) {
	if len(r.ds) >= maxDiagnostics {
		if !r.truncated {
			r.truncated = true
			r.ds = append(r.ds, Diagnostic{Machine: r.machine, Kind: k,
				Detail: fmt.Sprintf("diagnostic limit (%d) reached; further violations suppressed", maxDiagnostics)})
		}
		return
	}
	r.ds = append(r.ds, Diagnostic{Machine: r.machine, Kind: k, Detail: fmt.Sprintf(format, args...)})
}

func (r *reporter) full() bool { return len(r.ds) > maxDiagnostics }

// StaticVerify runs the shape, closure, flags and totality checks on a
// compiled machine. Supported machines: *core.TagDFA (the synopsis tables
// of the registerless EL and AL machines included),
// *core.StacklessEvaluator, *core.DRA, *core.ProductDFA,
// *core.StackedProduct, *stackeval.Evaluator, and evaluators exposing their
// automaton through a Machine accessor.
func StaticVerify(name string, m any) ([]Diagnostic, error) {
	r := &reporter{machine: name}
	switch v := m.(type) {
	case *core.TagDFA:
		staticTagDFA(r, v)
	case *core.StacklessEvaluator:
		staticStackless(r, v)
	case *stackeval.Evaluator:
		staticPushdown(r, v)
	case *core.DRA:
		staticDRA(r, v)
	case *core.ProductDFA:
		staticProduct(r, v)
	case *core.StackedProduct:
		staticStacked(r, v)
	case interface{ Machine() *core.TagDFA }:
		staticTagDFA(r, v.Machine())
	case interface{ Machine() *core.DRA }:
		staticDRA(r, v.Machine())
	case interface{ Machine() *core.ProductDFA }:
		staticProduct(r, v.Machine())
	default:
		return nil, fmt.Errorf("tablecheck: unsupported machine type %T", m)
	}
	return r.ds, nil
}

// Verify runs the full check: static invariants first, then — only when
// the tables are statically clean — the bounded-equivalence search. Every
// table is complete once its machine is built, so the search cannot grow
// rows that the static pass never saw.
func Verify(name string, m any, lim Limits) ([]Diagnostic, error) {
	ds, err := StaticVerify(name, m)
	if err != nil || len(ds) > 0 {
		return ds, err
	}
	eq, _, err := Equivalence(name, m, lim)
	if err != nil {
		return nil, err
	}
	if eq != nil {
		ds = append(ds, *eq)
	}
	// Products additionally verify against the tuple of their members —
	// the generic search above only proves the product self-consistent
	// (string path vs coded kernels).
	if p, ok := m.(*core.ProductDFA); ok && eq == nil {
		pq, _, err := EquivalenceProduct(name, p, lim)
		if err != nil {
			return nil, err
		}
		if pq != nil {
			ds = append(ds, *pq)
		}
	}
	return ds, nil
}

// MachineName returns a default display name for a machine, for hooks that
// receive machines without caller-side naming.
func MachineName(m any) string {
	switch v := m.(type) {
	case *core.TagDFA:
		if v.CloseAny != nil {
			return "TagDFA(term)"
		}
		return "TagDFA(markup)"
	case *core.StacklessEvaluator:
		if v.Blind() {
			return "StacklessEvaluator(term)"
		}
		return "StacklessEvaluator(markup)"
	case *core.DRA:
		return "DRA"
	case *stackeval.Evaluator:
		return "PushdownEvaluator"
	case *core.ProductDFA:
		if v.TermEncoding() {
			return fmt.Sprintf("ProductDFA(term,%d)", v.Members())
		}
		return fmt.Sprintf("ProductDFA(markup,%d)", v.Members())
	case *core.StackedProduct:
		if v.TermEncoding() {
			return fmt.Sprintf("StackedProduct(term,%d)", v.Members())
		}
		return fmt.Sprintf("StackedProduct(markup,%d)", v.Members())
	}
	return fmt.Sprintf("%T", m)
}

// InstallCompileHook installs a core.CompileHook that statically verifies
// every compiled table the moment it is built, reporting each diagnostic
// through report. Machines the verifier does not understand pass silently
// (the hook sees every compilation, including future families). The
// returned function restores the previous hook. Release builds never call
// this: with no hook installed the compile paths pay one nil check per
// compilation and the kernels pay nothing.
func InstallCompileHook(report func(Diagnostic)) (uninstall func()) {
	prev := core.CompileHook
	core.CompileHook = func(m any) {
		ds, err := StaticVerify(MachineName(m), m)
		if err != nil {
			return
		}
		for _, d := range ds {
			report(d)
		}
	}
	return func() { core.CompileHook = prev }
}
