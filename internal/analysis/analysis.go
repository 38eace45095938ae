// Package analysis is a self-contained static-analysis framework in the
// shape of golang.org/x/tools/go/analysis, built only on the standard
// library's go/ast and go/types: an Analyzer is a named check, a Pass is
// one analyzer applied to one type-checked package, and facts let an
// analyzer publish per-object findings that downstream packages consume
// (the x/tools fact model, reduced to string payloads).
//
// The suite exists to prove this repo's two load-bearing contracts at
// compile time — explanations are byte-identical at every parallelism
// level, shard count and transport (determinism), and the shard wire
// protocol never drifts silently (shard safety) — instead of waiting for
// the golden/equivalence tests to catch a violation after it ships.
// The analyzers themselves live next to this file; the driver
// subpackage loads packages and runs the suite over them, and
// cmd/pxqlvet is the binary.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and fact keys. It
	// must be a valid Go identifier.
	Name string
	// Doc is the analyzer's documentation: first line is a one-sentence
	// summary, the rest explains the contract it enforces.
	Doc string
	// Run applies the analyzer to one package, reporting diagnostics via
	// pass.Report and exporting facts via pass.ExportFact.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Pass is the application of one analyzer to one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one diagnostic.
	Report func(Diagnostic)

	// ImportFacts returns the facts the named imported package exported
	// for this analyzer: object key → payload. It returns nil when the
	// package exported none (stdlib packages never carry facts).
	ImportFacts func(pkgPath string) map[string]string

	// ExportFact publishes one object fact for downstream packages.
	ExportFact func(objKey, payload string)

	markers map[*ast.File]map[int][]string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether the file containing pos is a _test.go
// file. The determinism analyzers skip test files: tests may freely
// range maps or read clocks — the contracts cover shipped code paths.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.File(pos).Name(), "_test.go")
}

// MarkerPrefix is the comment namespace of in-source annotations, e.g.
// //pxql:orderinvariant.
const MarkerPrefix = "pxql:"

// markerLines lazily indexes a file's //pxql:* comments by line.
func (p *Pass) markerLines(f *ast.File) map[int][]string {
	if p.markers == nil {
		p.markers = make(map[*ast.File]map[int][]string)
	}
	if m, ok := p.markers[f]; ok {
		return m
	}
	m := make(map[int][]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if !strings.HasPrefix(text, MarkerPrefix) {
				continue
			}
			line := p.Fset.Position(c.Pos()).Line
			m[line] = append(m[line], strings.TrimSpace(strings.TrimPrefix(text, MarkerPrefix)))
		}
	}
	p.markers[f] = m
	return m
}

// HasMarker reports whether marker name (without the pxql: prefix)
// annotates the node at pos: a //pxql:<name> comment on the same line
// or on the line directly above. The payload after the name, if any, is
// ignored.
func (p *Pass) HasMarker(pos token.Pos, name string) bool {
	f := p.fileOf(pos)
	if f == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, mk := range p.markerLines(f)[l] {
			if mk == name || strings.HasPrefix(mk, name+" ") || strings.HasPrefix(mk, name+"\t") {
				return true
			}
		}
	}
	return false
}

func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// WalkStack walks the AST below root, calling fn with the node and the
// stack of its ancestors (outermost first, not including n itself).
// Returning false prunes the subtree.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if !fn(n, stack) {
			return
		}
		stack = append(stack, n)
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil || c == n {
				return c == n
			}
			walk(c)
			return false
		})
		stack = stack[:len(stack)-1]
	}
	walk(root)
}

// EnclosingFunc returns the innermost function declaration or literal
// in stack, and its body.
func EnclosingFunc(stack []ast.Node) (ast.Node, *ast.BlockStmt) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn, fn.Body
		case *ast.FuncLit:
			return fn, fn.Body
		}
	}
	return nil, nil
}

// ObjKey returns the fact key of a package-level function or method:
// "path.Func" or "path.Recv.Method". It returns "" for objects facts
// cannot address (locals, interface methods without a named receiver).
func ObjKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// CalleeFunc resolves the *types.Func a call expression invokes, or nil
// for calls through function values, built-ins and type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsFloat reports whether t's core kind is a floating-point (or
// complex) type — the types whose addition is not associative, so
// reduction order changes the bits.
func IsFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// PathHasSuffix reports whether pkg path matches the path suffix rule
// used to scope analyzers: path == suffix or path ends in "/"+suffix.
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
