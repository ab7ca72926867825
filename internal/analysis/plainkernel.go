package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PlainKernel enforces the zero-overhead observability contract on the
// engine's uninstrumented hot kernels (core.selectPlain/recognizePlain and
// anything marked later). A function annotated //treelint:plain must keep
// its body free of everything the contract excludes from the nil-collector
// path:
//
//   - no reference to the obs package (Collector, counters, histograms) —
//     the plain kernel is the branch the nil check already took;
//   - no calls into time's clock (time.Now/Since/...) or math/rand —
//     kernels are deterministic per event and carry no timing;
//   - no defer inside a loop body — a deferred call per event allocates
//     and defeats TestObsDisabledZeroAllocs;
//   - no closure capturing the receiver or an outer obs-typed variable —
//     captured counter fields are how collector state leaks back into a
//     "plain" loop.
//
// The annotation itself is load-bearing, so it cannot silently vanish: a
// function whose name ends in "Plain" (the kernel naming convention) must
// carry the directive, and every implementation of the coded batch kernels
// (BatchKernels) must be annotated either //treelint:plain or
// //treelint:partial with a reason — the bounds-check-elimination gate
// (cmd/bcegate) derives its target set from these annotations, so an
// unannotated kernel would silently escape it.
var PlainKernel = &Analyzer{
	Name: "plainkernel",
	Doc: "functions marked //treelint:plain must not reference obs, call time.Now or " +
		"math/rand, defer in loops, or capture state in closures; *Plain functions and " +
		"batch kernels (StepBatch/SelectBatch/SimulateSegmentCoded) must be marked",
	Run: runPlainKernel,
}

// BatchKernels are the coded batch-kernel methods whose implementations
// must be explicitly plain or partial, and cmd/bcegate's target set, which
// gates exactly the plain ones: the step kernels and the EL/AL wrappers'
// window loop behind them, the stacked multi-query pushdown, the byte
// lexers' scan loops, the batch fill that drives them and its events-mode
// twin over any other Source, and the buffered stream's drain and
// per-machine recode.
var BatchKernels = map[string]bool{
	"StepBatch":            true,
	"SelectBatch":          true,
	"SelectStacked":        true,
	"SimulateSegmentCoded": true,
	"stepWindows":          true,
	"lexXML":               true,
	"lexTerm":              true,
	"lexJSON":              true,
	"fillBatch":            true,
	"fillEvents":           true,
	"drain":                true,
	"Recode":               true,
}

// clockFuncs are the time-package functions a plain kernel must not call;
// the rest of time (Duration arithmetic, constants) is pure data.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Tick": true, "After": true,
	"AfterFunc": true, "NewTimer": true, "NewTicker": true, "Sleep": true,
}

// pkgPathIsRand matches math/rand and math/rand/v2 (and the fixtures'
// single-segment stand-in "rand").
func pkgPathIsRand(path string) bool {
	return path == "math/rand" || path == "math/rand/v2" || path == "rand"
}

func runPlainKernel(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !pass.FuncHasDirective(f, fn, "plain") {
				if strings.HasSuffix(fn.Name.Name, "Plain") {
					pass.Reportf(fn.Name.Pos(),
						"%s follows the plain-kernel naming convention but is not marked //treelint:plain",
						fn.Name.Name)
				}
				checkBatchKernel(pass, f, fn)
				continue
			}
			checkPlainBody(pass, fn)
		}
	}
	return nil
}

// checkBatchKernel enforces the annotation obligation on a batch kernel
// that is not marked plain: it must carry //treelint:partial with a reason
// explaining why the BCE gate cannot hold it to the plain contract.
// Methods only — a free function sharing a kernel's name implements no
// BatchEvaluator — and test files are exempt (test doubles are not gated).
func checkBatchKernel(pass *Pass, f *ast.File, fn *ast.FuncDecl) {
	if !BatchKernels[fn.Name.Name] || fn.Recv == nil {
		return
	}
	if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
		return
	}
	if !pass.FuncHasDirective(f, fn, "partial") {
		pass.Reportf(fn.Name.Pos(),
			"batch kernel %s must be marked //treelint:plain (gated by cmd/bcegate) or //treelint:partial <reason>",
			fn.Name.Name)
		return
	}
	if partialReason(fn) == "" {
		pass.Reportf(fn.Name.Pos(),
			"//treelint:partial on batch kernel %s needs a reason (why can the kernel not be bounds-check-free?)",
			fn.Name.Name)
	}
}

// partialReason extracts the text after //treelint:partial in fn's doc
// comment group.
func partialReason(fn *ast.FuncDecl) string {
	if fn.Doc == nil {
		return ""
	}
	for _, c := range fn.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, directivePrefix+"partial"); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// receiverObj returns the declared receiver variable of fn, or nil.
func receiverObj(pass *Pass, fn *ast.FuncDecl) types.Object {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fn.Recv.List[0].Names[0]]
}

// isObsType reports whether t is (a pointer to) a type defined in the obs
// package.
func isObsType(t types.Type) bool {
	switch t := t.(type) {
	case *types.Pointer:
		return isObsType(t.Elem())
	case *types.Named:
		obj := t.Obj()
		return obj != nil && obj.Pkg() != nil && pkgPathIsObs(obj.Pkg().Path())
	}
	return false
}

// forbiddenUse classifies an object reference inside a plain kernel;
// it returns a non-empty description for uses the contract bans.
func forbiddenUse(obj types.Object) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	switch {
	case pkgPathIsObs(pkg.Path()):
		return "references " + pkg.Name() + "." + obj.Name()
	case pkg.Path() == "time" && clockFuncs[obj.Name()]:
		return "calls time." + obj.Name()
	case pkgPathIsRand(pkg.Path()):
		return "uses " + pkg.Path() + "." + obj.Name()
	}
	return ""
}

func checkPlainBody(pass *Pass, fn *ast.FuncDecl) {
	recv := receiverObj(pass, fn)
	report := func(pos ast.Node, what string) {
		pass.Reportf(pos.Pos(), "plain kernel %s %s (zero-overhead contract; see internal/obs)",
			fn.Name.Name, what)
	}
	closureCheck := func(lit *ast.FuncLit) {
		walk(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil {
				return true
			}
			if recv != nil && obj == recv {
				report(id, "captures the receiver "+recv.Name()+" in a closure")
			}
			return true
		})
	}

	// loops collects the loop bodies so defer statements can be positioned.
	var loopBodies []*ast.BlockStmt
	inLoop := func(pos ast.Node) bool {
		for _, b := range loopBodies {
			if b.Pos() <= pos.Pos() && pos.Pos() < b.End() {
				return true
			}
		}
		return false
	}
	walk(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loopBodies = append(loopBodies, n.Body)
		case *ast.RangeStmt:
			loopBodies = append(loopBodies, n.Body)
		}
		return true
	})

	walk(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if inLoop(n) {
				report(n, "defers inside a loop body (one deferred call per event)")
			}
		case *ast.FuncLit:
			closureCheck(n)
		case *ast.SelectorExpr:
			// Qualified reference pkg.Name: report once at the selector and
			// prune, so the qualifier and Sel idents are not double-counted.
			if id, ok := n.X.(*ast.Ident); ok {
				if _, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
					if obj := pass.TypesInfo.Uses[n.Sel]; obj != nil {
						if what := forbiddenUse(obj); what != "" {
							report(n, what)
						}
					}
					return false
				}
			}
		case *ast.Ident:
			// Unqualified uses (dot imports, method values bound earlier)
			// and any variable or field whose type comes from obs.
			if obj := pass.TypesInfo.Uses[n]; obj != nil {
				if _, isPkg := obj.(*types.PkgName); !isPkg {
					if what := forbiddenUse(obj); what != "" {
						report(n, what)
					} else if v, ok := obj.(*types.Var); ok && isObsType(v.Type()) {
						report(n, "references obs-typed "+v.Name())
					}
				}
			}
		}
		return true
	})
}
