// Command bcegate is the bounds-check-elimination gate for the hot batch
// kernels. It rebuilds the engine's kernel packages with the compiler's
// check_bce debug pass enabled and fails if any kernel annotated
// //treelint:plain still contains a bounds check: the flat-table layouts of
// DESIGN.md §11 exist precisely so the inner loops compile to straight-line
// loads, and a silently reintroduced IsInBounds is a performance regression
// no test notices.
//
// The gate is deliberately paranoid about its own plumbing. The Go build
// cache suppresses compiler diagnostics for up-to-date packages, so the
// module is copied to a scratch directory and every kernel file is salted
// to force recompilation; and a probe function written to defeat BCE is
// injected into the build, so a silent change to the diagnostic format (or
// a typo in the flag) turns the gate red instead of green.
//
//	bcegate                  # gate ./internal/core and ./internal/encoding
//	bcegate -v               # list every retained bounds check
//	bcegate -json            # violations in the shared diagjson schema
//	bcegate -dir m -pkgs ./... # gate another module
//
// Exit status: 0 when every //treelint:plain kernel is bounds-check-free,
// 1 when a plain kernel retains a check (or a batch kernel is
// unannotated), 2 on build or plumbing errors.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"stackless/internal/diagjson"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// kernelNames are the batch-kernel methods the gate derives its target set
// from — the step kernels and the EL/AL wrappers' window loop behind them,
// the byte lexers' scan loops and the batch fill that drives them, and the
// buffered stream's drain and per-machine recode; every implementation
// must be annotated plain or partial.
var kernelNames = map[string]bool{
	"StepBatch":            true,
	"SelectBatch":          true,
	"SimulateSegmentCoded": true,
	"stepWindows":          true,
	"lexXML":               true,
	"lexTerm":              true,
	"fillBatch":            true,
	"drain":                true,
	"Recode":               true,
}

// foundRe matches the check_bce diagnostics the compiler emits.
var foundRe = regexp.MustCompile(`^(.+\.go):(\d+):\d+: Found (IsInBounds|IsSliceInBounds)$`)

const probeFile = "zz_bcegate_probe.go"

// kernel is one annotated (or missing-annotation) batch kernel: the file it
// lives in (module-relative, slash-separated) and its body's line range.
type kernel struct {
	file       string
	name       string
	start, end int
	mode       string // "plain", "partial", or "" when unannotated
}

// found is one retained bounds check.
type found struct {
	file string
	line int
	op   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bcegate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "module root to gate")
	pkgsFlag := fs.String("pkgs", "./internal/core,./internal/encoding,./internal/stackeval", "comma-separated package dirs holding the kernels")
	verbose := fs.Bool("v", false, "list every retained bounds check, not only kernel violations")
	jsonOut := fs.Bool("json", false, "emit violations in the shared diagjson schema")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bcegate: no arguments expected")
		return 2
	}
	pkgs := strings.Split(*pkgsFlag, ",")

	fail := func(err error) int {
		fmt.Fprintln(stderr, "bcegate:", err)
		return 2
	}

	root, err := filepath.Abs(*dir)
	if err != nil {
		return fail(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return fail(fmt.Errorf("%s is not a module root: %w", *dir, err))
	}

	// Copy the module to scratch so salting never touches the real tree.
	tmp, err := os.MkdirTemp("", "bcegate")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	if err := copyModule(root, tmp); err != nil {
		return fail(err)
	}

	// Salt every non-test .go file of the target packages so the build
	// cache cannot swallow the diagnostics, and inject the self-test probe
	// into the first package.
	salt := fmt.Sprintf("// bcegate salt %d %d\n", os.Getpid(), time.Now().UnixNano())
	for i, p := range pkgs {
		pdir := filepath.Join(tmp, filepath.FromSlash(strings.TrimPrefix(p, "./")))
		if err := saltPackage(pdir, salt); err != nil {
			return fail(err)
		}
		if i == 0 {
			if err := writeProbe(pdir); err != nil {
				return fail(err)
			}
		}
	}

	// Rebuild with the check_bce pass on and harvest its diagnostics.
	cmd := exec.Command("go", append([]string{"build", "-gcflags=./...=-d=ssa/check_bce"}, pkgs...)...)
	cmd.Dir = tmp
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return fail(fmt.Errorf("go build: %v\n%s", err, out.String()))
	}
	var founds []found
	for _, line := range strings.Split(out.String(), "\n") {
		m := foundRe.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[2])
		founds = append(founds, found{file: filepath.ToSlash(m[1]), line: n, op: m[3]})
	}

	// Self-test: the probe is written to defeat BCE, so its check must be
	// in the harvest — otherwise the flag pipeline itself is broken and a
	// green result would mean nothing.
	probeSeen := false
	for _, f := range founds {
		if path.Base(f.file) == probeFile {
			probeSeen = true
		}
	}
	if !probeSeen {
		return fail(fmt.Errorf("self-test failed: the probe's bounds check did not surface; check_bce diagnostics are not reaching the gate (%d lines harvested)", len(founds)))
	}

	// Locate every batch kernel and its annotation in the scratch copy
	// (line numbers match the original: the salt is appended at EOF).
	var kernels []kernel
	for _, p := range pkgs {
		ks, err := scanKernels(tmp, strings.TrimPrefix(p, "./"))
		if err != nil {
			return fail(err)
		}
		kernels = append(kernels, ks...)
	}
	sort.Slice(kernels, func(i, j int) bool {
		if kernels[i].file != kernels[j].file {
			return kernels[i].file < kernels[j].file
		}
		return kernels[i].start < kernels[j].start
	})

	inKernel := func(f found) bool {
		for _, k := range kernels {
			if strings.HasSuffix(f.file, k.file) && k.start <= f.line && f.line <= k.end {
				return true
			}
		}
		return false
	}
	var records []diagjson.Record
	violate := func(file string, line int, kind, msg string) {
		records = append(records, diagjson.Record{
			File: file, Line: line, Analyzer: "bcegate", Kind: kind, Message: msg,
		})
		if !*jsonOut {
			fmt.Fprintf(stdout, "%s:%d: %s\n", file, line, msg)
		}
	}
	plain, partial := 0, 0
	for _, k := range kernels {
		switch k.mode {
		case "partial":
			partial++
			continue
		case "":
			violate(k.file, k.start, "unannotated",
				fmt.Sprintf("batch kernel %s carries neither //treelint:plain nor //treelint:partial", k.name))
			continue
		}
		plain++
		clean := true
		for _, f := range founds {
			if strings.HasSuffix(f.file, k.file) && k.start <= f.line && f.line <= k.end {
				clean = false
				violate(k.file, f.line, "bounds-check",
					fmt.Sprintf("plain kernel %s retains a bounds check (%s)", k.name, f.op))
			}
		}
		if clean && *verbose && !*jsonOut {
			fmt.Fprintf(stdout, "%s:%d: plain kernel %s is bounds-check-free\n", k.file, k.start, k.name)
		}
	}
	if *verbose && !*jsonOut {
		for _, f := range founds {
			if path.Base(f.file) != probeFile && !inKernel(f) {
				fmt.Fprintf(stdout, "note: %s:%d: %s (outside the gated kernels)\n", f.file, f.line, f.op)
			}
		}
	}
	if len(kernels) == 0 {
		return fail(fmt.Errorf("no batch kernels (%s) found under %s", keys(kernelNames), *pkgsFlag))
	}
	if *jsonOut {
		if err := diagjson.Write(stdout, records); err != nil {
			return fail(err)
		}
	}
	if len(records) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stdout, "bcegate: %d violation(s)\n", len(records))
		}
		return 1
	}
	if !*jsonOut {
		fmt.Fprintf(stdout, "bcegate: %d plain kernel(s) bounds-check-free, %d partial kernel(s) exempt\n", plain, partial)
	}
	return 0
}

func keys(m map[string]bool) string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, "/")
}

// copyModule copies the module tree at src into dst, skipping VCS state.
func copyModule(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// saltPackage appends a cache-busting comment to every non-test .go file in
// dir (non-recursive: one package).
func saltPackage(dir, salt string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		if _, err := f.WriteString("\n" + salt); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// writeProbe drops a function the compiler provably cannot eliminate the
// bounds check from into the package at dir.
func writeProbe(dir string) error {
	pkg, err := packageName(dir)
	if err != nil {
		return err
	}
	src := fmt.Sprintf(`package %s

// bcegateProbe indexes with an arbitrary int: the check cannot be
// eliminated, so its Found line proves the diagnostics pipeline works.
func bcegateProbe(a []int32, i int) int32 { return a[i] }
`, pkg)
	return os.WriteFile(filepath.Join(dir, probeFile), []byte(src), 0o644)
}

// packageName parses the package clause of the first buildable .go file in
// dir.
func packageName(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	fset := token.NewFileSet()
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.PackageClauseOnly)
		if err != nil {
			continue
		}
		return f.Name.Name, nil
	}
	return "", fmt.Errorf("no .go files in %s", dir)
}

// scanKernels parses the package at root/rel and returns every batch-kernel
// declaration with its annotation and body line range.
func scanKernels(root, rel string) ([]kernel, error) {
	dir := filepath.Join(root, filepath.FromSlash(rel))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var out []kernel
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || name == probeFile {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !kernelNames[fn.Name.Name] {
				continue
			}
			k := kernel{
				file:  path.Join(filepath.ToSlash(rel), name),
				name:  fn.Name.Name,
				start: fset.Position(fn.Body.Pos()).Line,
				end:   fset.Position(fn.Body.End()).Line,
				mode:  annotation(fn),
			}
			out = append(out, k)
		}
	}
	return out, nil
}

// annotation extracts the treelint kernel directive from a function's doc
// comment: "plain", "partial", or "" when absent.
func annotation(fn *ast.FuncDecl) string {
	if fn.Doc == nil {
		return ""
	}
	for _, c := range fn.Doc.List {
		for _, mode := range []string{"plain", "partial"} {
			if rest, ok := strings.CutPrefix(c.Text, "//treelint:"+mode); ok &&
				(rest == "" || rest[0] == ' ' || rest[0] == '\t') {
				return mode
			}
		}
	}
	return ""
}
