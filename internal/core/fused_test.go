package core

// Same bytes on every GOARCH: the Go spec lets a compiler fuse x*y + z
// into one multiply-add that skips the product's rounding, unless an
// explicit conversion rounds the product, and the arm64 compiler does.
// amd64 and 386 do not fuse, so an unconverted product that decides an
// answer — a gain, an entropy, a percentile rank, the score blend — can
// pick a different clause on arm64 alone. No arm64 machine is needed to
// see one: the compiler's assembly listing names every fused op and the
// source line it came from.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// fusedAllowed are the functions whose fused ops only size an
// allocation, by file: a rounding difference there changes a capacity,
// never an answer.
var fusedAllowed = map[string]string{
	"pairs.go": "expectedDraw",
	"shard.go": "expectedKept",
}

// fusedOp matches a fused multiply-add or -subtract in an arm64 listing
// with the file and line it came from.
var fusedOp = regexp.MustCompile(`\((\S+\.go):(\d+)\)\s+(F(?:N)?M(?:ADD|SUB)[SD])\b`)

// TestNoFusedMultiplyAdd compiles the packages that decide an answer's
// bytes — dtree (information gain), stats (entropy, percentile ranks),
// relief (the feature weights) and core (the score blend) — for arm64
// with the assembly listing on, and fails on any fused op outside
// fusedAllowed's sizing functions. It also requires the allowed ones to
// be seen, so an empty listing cannot pass.
func TestNoFusedMultiplyAdd(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to compile the listing with")
	}
	cmd := exec.Command(gobin, "build", "-gcflags=-S",
		"perfxplain/internal/dtree", "perfxplain/internal/stats", "perfxplain/internal/relief", "perfxplain/internal/core")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	seen := map[string]bool{}
	funcs := map[string][]*ast.FuncDecl{} // by file
	fset := token.NewFileSet()
	for _, m := range fusedOp.FindAllSubmatch(out, -1) {
		file, op := string(m[1]), string(m[3])
		line, _ := strconv.Atoi(string(m[2]))
		if _, ok := funcs[file]; !ok {
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					funcs[file] = append(funcs[file], fd)
				}
			}
		}
		name := ""
		for _, fd := range funcs[file] {
			if fset.Position(fd.Pos()).Line <= line && line <= fset.Position(fd.End()).Line {
				name = fd.Name.Name
			}
		}
		if base := filepath.Base(file); fusedAllowed[base] == name {
			seen[base] = true
			continue
		}
		t.Errorf("%s:%d (in %s): %s fuses a product into a sum on arm64; round it first: float64(a*b) + c", file, line, name, op)
	}
	for file, fn := range fusedAllowed {
		if !seen[file] {
			t.Errorf("no fused op in %s's %s: the listing no longer shows what this test reads, or the sizing moved", file, fn)
		}
	}
}
