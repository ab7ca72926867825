package analysis

// Lifecycle machine-checks two flow contracts of the evaluator/snapshot
// API (DESIGN.md §15):
//
//  1. Save/restore pairing. A configuration captured with x.SaveConfig()
//     must be consumed by an x.RestoreConfig(...) on every path from the
//     save to the function's exit — a save that can leak out of a return
//     path leaves the machine in a dangling mid-replay state. Two uses
//     are exempt by construction: `return x.SaveConfig()` (delegation —
//     the obligation transfers with the value) and deferred restores
//     (modelled as running on every exit path). Deliberate cross-
//     iteration protocols (the tablecheck BFS stores configs in nodes and
//     restores them in later iterations) opt out with //treelint:partial
//     on the function or the save's line.
//
//  2. Reset on the reuse back-edge. A loop that restarts its event stream
//     (a Rewind call, or a source/batcher constructed per iteration) and
//     drives an evaluator declared outside the loop must also Reset (or
//     RestoreConfig) that evaluator inside the loop — otherwise iteration
//     k+1 replays the stream into iteration k's final state. The region
//     "the loop" is a cyclic SCC of the CFG, so the check survives any
//     syntactic shape of the back edge.
//
// Both checks run on non-test files only: test helpers save, restore and
// rewind ad hoc as part of what they test.

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Lifecycle is the save/restore-pairing and reset-on-reuse analyzer.
var Lifecycle = &Analyzer{
	Name: "lifecycle",
	Doc: "SaveConfig must reach a matching RestoreConfig on every path to return " +
		"(defers count, `return x.SaveConfig()` delegates), and a loop that restarts " +
		"its stream must Reset evaluators it reuses; opt out with //treelint:partial <reason>",
	Run: runLifecycle,
}

// driveMethods are the calls that advance an evaluator's configuration —
// reusing a machine across streams without Reset between them is the bug
// class check 2 exists for.
var driveMethods = map[string]bool{
	"Step":                 true,
	"StepBatch":            true,
	"SelectBatch":          true,
	"SimulateSegmentCoded": true,
}

// restartRe matches the constructors that begin a fresh event stream; a
// method call named Rewind is the other restart form.
var restartRe = regexp.MustCompile(`^New\w*(Source|Batcher)$`)

func runLifecycle(pass *Pass) error {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if pass.FuncHasDirective(f, fn, "partial") {
				continue
			}
			g := BuildCFG(fn.Body, pass.TypesInfo)
			checkSaveRestore(pass, fn, g)
			checkResetOnReuse(pass, fn, g)
		}
	}
	return nil
}

// recvKey canonicalizes the receiver of a lifecycle call: the printed
// identifier chain (`mu`, `ev.inner`). Non-chain receivers (map lookups,
// call results) return "" and are not tracked.
func recvKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := recvKey(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	case *ast.ParenExpr:
		return recvKey(e.X)
	}
	return ""
}

// methodCall matches a call of the form <recv>.<name>(...) and returns the
// receiver key.
func methodCall(call *ast.CallExpr, name string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return "", false
	}
	key := recvKey(sel.X)
	return key, key != ""
}

// checkSaveRestore runs the outstanding-saves bit analysis: bit i is "save
// site i may still be unrestored here".
func checkSaveRestore(pass *Pass, fn *ast.FuncDecl, g *CFG) {
	type save struct {
		pos token.Pos
		key string
	}
	var saves []save
	// Index the save sites; saves returned directly are delegation.
	for _, b := range g.Blocks {
		for _, node := range b.Nodes {
			inReturn := map[*ast.CallExpr]bool{}
			walk(node, func(x ast.Node) bool {
				if _, ok := x.(*ast.FuncLit); ok {
					return false
				}
				if rs, ok := x.(*ast.ReturnStmt); ok {
					for _, res := range rs.Results {
						walk(res, func(y ast.Node) bool {
							if c, ok := y.(*ast.CallExpr); ok {
								inReturn[c] = true
							}
							return true
						})
					}
				}
				call, ok := x.(*ast.CallExpr)
				if !ok || inReturn[call] {
					return true
				}
				if key, ok := methodCall(call, "SaveConfig"); ok && len(call.Args) == 0 {
					saves = append(saves, save{pos: call.Pos(), key: key})
				}
				return true
			})
		}
	}
	if len(saves) == 0 || len(saves) > 64 {
		return
	}

	transfer := func(b *Block, in uint64) uint64 {
		out := in
		for _, node := range b.Nodes {
			walk(node, func(x ast.Node) bool {
				if _, ok := x.(*ast.FuncLit); ok {
					return false
				}
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				if _, ok := methodCall(call, "SaveConfig"); ok && len(call.Args) == 0 {
					for i, s := range saves {
						if s.pos == call.Pos() {
							out |= 1 << i
						}
					}
				}
				if key, ok := methodCall(call, "RestoreConfig"); ok {
					for i, s := range saves {
						if s.key == key {
							out &^= 1 << i
						}
					}
				}
				return true
			})
		}
		return out
	}
	sol := Solve[uint64](g, BitsLattice{}, 0, Forward, transfer)

	outstanding := sol.In[g.Exit]
	// Deferred restores run on every path into Exit.
	for _, d := range g.Defers {
		if key, ok := methodCall(d.Call, "RestoreConfig"); ok {
			for i, s := range saves {
				if s.key == key {
					outstanding &^= 1 << i
				}
			}
		}
	}
	for i, s := range saves {
		if outstanding&(1<<i) == 0 || pass.siteExempt(s.pos) {
			continue
		}
		pass.Reportf(s.pos,
			"%s.SaveConfig in %s has no matching %s.RestoreConfig on some path to return (lifecycle contract; //treelint:partial <reason> to opt out)",
			s.key, fn.Name.Name, s.key)
	}
}

// checkResetOnReuse inspects each cyclic SCC: a restarted stream plus a
// driven, loop-external evaluator demands a Reset/RestoreConfig in the
// same region.
func checkResetOnReuse(pass *Pass, fn *ast.FuncDecl, g *CFG) {
	for _, comp := range g.CyclicSCCs() {
		// The region's source span, for the declared-outside test.
		var lo, hi token.Pos
		for _, b := range comp {
			for _, n := range b.Nodes {
				if lo == token.NoPos || n.Pos() < lo {
					lo = n.Pos()
				}
				if n.End() > hi {
					hi = n.End()
				}
			}
		}
		type drive struct {
			pos  token.Pos
			key  string
			name string
		}
		var drives []drive
		restarted := false
		resetKeys := map[string]bool{}
		for _, b := range comp {
			for _, node := range b.Nodes {
				walk(node, func(x ast.Node) bool {
					if _, ok := x.(*ast.FuncLit); ok {
						return false
					}
					call, ok := x.(*ast.CallExpr)
					if !ok {
						return true
					}
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						name := sel.Sel.Name
						key := recvKey(sel.X)
						switch {
						case driveMethods[name] && key != "":
							if declaredOutside(pass, sel.X, lo, hi) {
								drives = append(drives, drive{pos: call.Pos(), key: key, name: name})
							}
						case name == "Rewind":
							restarted = true
						case (name == "Reset" || name == "RestoreConfig") && key != "":
							resetKeys[key] = true
						case restartRe.MatchString(name):
							restarted = true
						}
					} else if id, ok := call.Fun.(*ast.Ident); ok && restartRe.MatchString(id.Name) {
						restarted = true
					}
					return true
				})
			}
		}
		if !restarted {
			continue
		}
		seen := map[string]bool{}
		for _, d := range drives {
			if resetKeys[d.key] || seen[d.key] || pass.siteExempt(d.pos) {
				continue
			}
			seen[d.key] = true
			pass.Reportf(d.pos,
				"%s.%s reuses %s across a restarted stream without Reset or RestoreConfig on the loop back-edge (lifecycle contract)",
				d.key, d.name, d.key)
		}
	}
}

// declaredOutside reports whether the base identifier of e is declared
// outside the [lo,hi] span — i.e. the value survives across the region's
// back edge.
func declaredOutside(pass *Pass, e ast.Expr, lo, hi token.Pos) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				return false
			}
			if _, ok := obj.(*types.Var); !ok {
				return false
			}
			return obj.Pos() < lo || obj.Pos() > hi
		default:
			return false
		}
	}
}
