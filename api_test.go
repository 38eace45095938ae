package perfxplain

import (
	"bytes"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPublicAPI pins the package's exported surface — every exported
// constant, variable, type (with its exported fields) and function or
// method signature, read from source — to testdata/api.txt, so growth
// or removal shows up as a reviewed diff. Regenerate with
// `go test -run TestPublicAPI -update .` when the change is intended.
func TestPublicAPI(t *testing.T) {
	got := publicAPI(t)
	path := filepath.Join("testdata", "api.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing %s (run with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("exported API differs from %s (run with -update if intended)\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// publicAPI renders the exported declarations of this package's
// non-test files, one per line, in go/doc order.
func publicAPI(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := doc.New(pkgs["perfxplain"], "perfxplain", 0)
	var b strings.Builder
	line := func(node any) {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, node); err != nil {
			t.Fatal(err)
		}
		b.WriteString(strings.Join(strings.Fields(buf.String()), " "))
		b.WriteByte('\n')
	}
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			for _, spec := range v.Decl.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if name.IsExported() {
						b.WriteString(v.Decl.Tok.String() + " " + name.Name + "\n")
					}
				}
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			f.Decl.Body = nil
			line(f.Decl)
		}
	}
	values(p.Consts)
	values(p.Vars)
	funcs(p.Funcs)
	for _, typ := range p.Types {
		for _, spec := range typ.Decl.Specs {
			ts := spec.(*ast.TypeSpec)
			ts.Doc, ts.Comment = nil, nil
			line(&ast.GenDecl{Tok: token.TYPE, Specs: []ast.Spec{ts}})
		}
		values(typ.Consts)
		values(typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}
	return b.String()
}
