package analysis

// AllocFree enforces the allocation side of the per-event constant-work
// budget (DESIGN.md §15): a //treelint:plain kernel must not reach a heap
// allocation on any live path. The analyzer is flow-sensitive where it
// pays: paths pruned by constant-false conditions do not count, loop
// membership is computed on the CFG (so the message distinguishes a
// per-event allocation from run-level setup), and summaries propagate
// through package-local callees (core's flushObs, tagdfa's compiled,
// locally-bound closures) so a kernel cannot launder an allocation through
// a helper.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AllocFree is the flow-sensitive no-allocation analyzer for plain
// kernels.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc: "//treelint:plain kernels must not reach make, new, append growth into a " +
		"non-parameter slice, heap composite literals, closures, map writes, " +
		"string/[]byte conversions (but for the key of a map read m[string(b)]) or explicit " +
		"interface boxing on any live path, " +
		"directly or through package-local callees; annotate deliberate sites with " +
		"//treelint:partial <reason>",
	Run: runAllocFree,
}

// An allocSite is one allocation operation inside a function body.
type allocSite struct {
	pos    token.Pos
	what   string
	inLoop bool // the site's block lies on a CFG cycle
}

// A localCall is one resolvable call to a package-local function.
type localCall struct {
	callee *FuncNode
	pos    token.Pos
	inLoop bool
}

// allocSummary caches the per-function facts the root traversal composes.
type allocSummary struct {
	sites []allocSite
	calls []localCall
}

func runAllocFree(pass *Pass) error {
	cg := BuildCallGraph(pass)
	summaries := map[*FuncNode]*allocSummary{}
	var summarize func(n *FuncNode) *allocSummary
	summarize = func(n *FuncNode) *allocSummary {
		if s, ok := summaries[n]; ok {
			return s
		}
		s := &allocSummary{}
		summaries[n] = s
		collectAllocs(pass, cg, n, s)
		return s
	}

	// Roots: every plain-marked function, in file order.
	reported := map[token.Pos]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !pass.FuncHasDirective(f, fn, "plain") {
				continue
			}
			root := cg.Node(pass.TypesInfo.Defs[fn.Name])
			if root == nil {
				continue
			}
			visited := map[*FuncNode]bool{}
			var visit func(n *FuncNode, path []string, loop bool)
			visit = func(n *FuncNode, path []string, loop bool) {
				if visited[n] {
					return
				}
				visited[n] = true
				s := summarize(n)
				for _, site := range s.sites {
					if reported[site.pos] || pass.siteExempt(site.pos) {
						continue
					}
					reported[site.pos] = true
					where := "on the run path"
					if loop || site.inLoop {
						where = "in the per-event loop"
					}
					via := ""
					if len(path) > 0 {
						via = " via " + strings.Join(path, " → ")
					}
					pass.Reportf(site.pos, "plain kernel %s: %s %s%s (allocation-free contract)",
						fn.Name.Name, site.what, where, via)
				}
				for _, c := range s.calls {
					if funcExempt(pass, c.callee) {
						continue
					}
					visit(c.callee, append(path[:len(path):len(path)], c.callee.Name()), loop || c.inLoop)
				}
			}
			visit(root, nil, false)
		}
	}
	return nil
}

// siteExempt reports whether the line holding pos (or the line above it)
// carries a //treelint:partial directive — the per-site escape hatch for
// deliberate, justified allocations.
func (p *Pass) siteExempt(pos token.Pos) bool {
	f := p.enclosingFile(pos)
	return f != nil && p.HasDirective(f, pos, "partial")
}

// funcExempt reports whether a callee is itself declared
// //treelint:partial — an annotated summary boundary (a memoized
// state-discovery path, a deliberate growth point) that the hot-path
// traversals document rather than enter. Closures are exempted by a
// directive on their binding line.
func funcExempt(pass *Pass, n *FuncNode) bool {
	if n.Decl != nil {
		return pass.FuncHasDirective(n.File, n.Decl, "partial")
	}
	return pass.siteExempt(n.Lit.Pos())
}

// collectAllocs fills the summary for one function: allocation operations
// and package-local calls on reachable blocks, with loop membership from
// the CFG. Nested function literals are not walked — a bound closure is a
// separate node reached through its calls, and the literal itself is
// recorded as a closure allocation where it is created.
func collectAllocs(pass *Pass, cg *CallGraph, n *FuncNode, s *allocSummary) {
	body := n.Body()
	if body == nil {
		return
	}
	g := BuildCFG(body, pass.TypesInfo)
	cyc := g.InCycle()
	reach := g.Reachable()
	stores := map[ast.Expr]bool{}    // assignment and ++/-- targets
	keys := map[*ast.CallExpr]bool{} // string(b) keys of map reads: no conversion is made
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		inLoop := cyc[b]
		for _, node := range b.Nodes {
			walk(node, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.FuncLit:
					s.sites = append(s.sites, allocSite{pos: x.Pos(), what: "closure allocation", inLoop: inLoop})
					return false // the body is its own node, if bound
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						if _, ok := x.X.(*ast.CompositeLit); ok {
							s.sites = append(s.sites, allocSite{pos: x.Pos(), what: "heap composite literal", inLoop: inLoop})
						}
					}
				case *ast.CompositeLit:
					switch typeOf(pass, x).(type) {
					case *types.Slice:
						s.sites = append(s.sites, allocSite{pos: x.Pos(), what: "slice literal", inLoop: inLoop})
					case *types.Map:
						s.sites = append(s.sites, allocSite{pos: x.Pos(), what: "map literal", inLoop: inLoop})
					}
				case *ast.IncDecStmt:
					stores[x.X] = true
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						stores[lhs] = true
						if ix, ok := lhs.(*ast.IndexExpr); ok {
							if _, isMap := typeOf(pass, ix.X).(*types.Map); isMap {
								s.sites = append(s.sites, allocSite{pos: ix.Pos(), what: "map write", inLoop: inLoop})
							}
						}
					}
				case *ast.IndexExpr:
					// A read m[string(b)] looks the bytes up without
					// converting them; a store keeps the key, so converts.
					if call, ok := x.Index.(*ast.CallExpr); ok && !stores[x] && isBytesToString(pass, call) {
						if _, isMap := typeOf(pass, x.X).(*types.Map); isMap {
							keys[call] = true
						}
					}
				case *ast.CallExpr:
					if !keys[x] {
						classifyCall(pass, cg, n, x, inLoop, s)
					}
				}
				return true
			})
		}
	}
}

// isBytesToString reports whether call converts a byte slice to a string.
func isBytesToString(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	return ok && tv.IsType() && len(call.Args) == 1 &&
		isString(tv.Type.Underlying()) && isByteSlice(typeOf(pass, call.Args[0]))
}

// typeOf returns the underlying checked type of an expression, or nil.
func typeOf(pass *Pass, e ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Type != nil {
		return tv.Type.Underlying()
	}
	return nil
}

// classifyCall sorts one call expression into an allocation site, a
// package-local call edge, or neither.
func classifyCall(pass *Pass, cg *CallGraph, n *FuncNode, call *ast.CallExpr, inLoop bool, s *allocSummary) {
	// Conversions: T(x) where T is a type.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			dst := tv.Type.Underlying()
			src := typeOf(pass, call.Args[0])
			switch {
			case isString(dst) && isByteSlice(src), isByteSlice(dst) && isString(src):
				s.sites = append(s.sites, allocSite{pos: call.Pos(), what: "string/[]byte conversion", inLoop: inLoop})
			case isNonEmptyInterface(dst) && src != nil && !types.IsInterface(src):
				s.sites = append(s.sites, allocSite{pos: call.Pos(), what: "interface boxing", inLoop: inLoop})
			}
		}
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				s.sites = append(s.sites, allocSite{pos: call.Pos(), what: "make", inLoop: inLoop})
			case "new":
				s.sites = append(s.sites, allocSite{pos: call.Pos(), what: "new", inLoop: inLoop})
			case "append":
				// The §11 kernel idiom — hits = append(hits, ...) into the
				// caller's reusable buffer (passed as hits[:0] and returned)
				// — amortizes growth to the caller; appending into anything
				// else grows a fresh slice on the kernel's own budget.
				if len(call.Args) > 0 && !isParamSlice(pass, n, call.Args[0]) {
					s.sites = append(s.sites, allocSite{pos: call.Pos(), what: "append growth into a non-parameter slice", inLoop: inLoop})
				}
			}
			return
		}
	}
	if callee := cg.CalleeOf(call); callee != nil {
		s.calls = append(s.calls, localCall{callee: callee, pos: call.Pos(), inLoop: inLoop})
	}
}

// isParamSlice reports whether e is (a reslice of) an identifier declared
// in n's own parameter list.
func isParamSlice(pass *Pass, n *FuncNode, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.SliceExpr:
			e = x.X
			continue
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				return false
			}
			var ft *ast.FuncType
			if n.Decl != nil {
				ft = n.Decl.Type
			} else {
				ft = n.Lit.Type
			}
			return ft.Pos() <= obj.Pos() && obj.Pos() <= ft.End()
		default:
			return false
		}
	}
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isNonEmptyInterface: conversions to any/error-free empty interfaces of
// constants are still boxing, but flagging `any` conversions everywhere
// drowns the signal; only conversions to named non-empty interfaces are
// reported, and allocgate (the compiler-output gate) remains the ground
// truth for what actually escapes.
func isNonEmptyInterface(t types.Type) bool {
	i, ok := t.(*types.Interface)
	return ok && i.NumMethods() > 0
}
