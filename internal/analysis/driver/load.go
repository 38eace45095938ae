// Package driver runs the pxqlvet analyzer suite over type-checked
// packages. It is deliberately built on nothing but the standard
// library: packages are discovered and compiled with `go list -export`,
// dependencies are imported from the toolchain's export data via
// go/importer's gc mode, and the module's own packages are type-checked
// from source and analyzed in one process, dependencies first, so
// analyzer facts flow through an in-memory map. (golang.org/x/tools
// provides this as a framework; vendoring it is not an option here, so
// the subset the suite needs is implemented directly.)
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"perfxplain/internal/analysis"
)

// listPkg is the subset of `go list -json` output the driver consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Standard   bool
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Deps       []string
	DepOnly    bool
	Module     *struct {
		Path      string
		Main      bool
		GoVersion string
	}
	Error *struct{ Err string }
}

// goList runs `go list -e -export -deps -json` on the patterns,
// compiling every package so its export data exists, and decodes the
// JSON stream.
func goList(dir string, patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Unit is one parsed, type-checked package ready for analysis.
type Unit struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loaded is a set of type-checked module units in dependency order,
// ready to be analyzed with a shared fact store. Dependencies that were
// pulled in only to satisfy a narrow pattern are analyzed for their
// facts but excluded from Targets.
type Loaded struct {
	Units   []*Unit
	Targets map[string]bool
}

// Load lists, compiles (for export data) and type-checks the module
// packages matching patterns, rooted at dir ("" = current directory).
// A pattern that matches no package is an error, not an empty result.
func Load(dir string, patterns []string) (*Loaded, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	byPath := make(map[string]*listPkg, len(pkgs))
	packageFile := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
		if p.Export != "" {
			packageFile[p.ImportPath] = p.Export
		}
	}

	var moduleUnits []*listPkg
	targets := make(map[string]bool)
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Standard || p.Module == nil {
			continue
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported by pxqlvet", p.ImportPath)
		}
		moduleUnits = append(moduleUnits, p)
		if !p.DepOnly {
			targets[p.ImportPath] = true
		}
	}
	sortTopo(moduleUnits, byPath)

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := packageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	loaded := &Loaded{Targets: targets}
	for _, p := range moduleUnits {
		if len(p.GoFiles) == 0 {
			continue
		}
		unit, err := checkFiles(fset, p, imp)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		loaded.Units = append(loaded.Units, unit)
	}
	return loaded, nil
}

// sortTopo orders units dependencies-first (stable for unrelated
// packages: import-path order breaks ties).
func sortTopo(units []*listPkg, byPath map[string]*listPkg) {
	depth := make(map[string]int)
	var depthOf func(p *listPkg) int
	depthOf = func(p *listPkg) int {
		if d, ok := depth[p.ImportPath]; ok {
			return d
		}
		depth[p.ImportPath] = 0 // cycle guard; go packages cannot cycle
		d := 0
		for _, dep := range p.Deps {
			if dp, ok := byPath[dep]; ok && !dp.Standard {
				if dd := depthOf(dp) + 1; dd > d {
					d = dd
				}
			}
		}
		depth[p.ImportPath] = d
		return d
	}
	for _, p := range units {
		depthOf(p)
	}
	sort.SliceStable(units, func(i, j int) bool {
		di, dj := depth[units[i].ImportPath], depth[units[j].ImportPath]
		if di != dj {
			return di < dj
		}
		return units[i].ImportPath < units[j].ImportPath
	})
}

// checkFiles parses and type-checks one module package. Its
// dependencies come from export data through imp, which shares fset
// (export data records positions into it).
func checkFiles(fset *token.FileSet, p *listPkg, imp types.Importer) (*Unit, error) {
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", goArch()),
	}
	if p.Module.GoVersion != "" {
		conf.GoVersion = "go" + p.Module.GoVersion
	}
	pkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Unit{Path: p.ImportPath, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

func goArch() string {
	if a := os.Getenv("GOARCH"); a != "" {
		return a
	}
	out, err := exec.Command("go", "env", "GOARCH").Output()
	if err != nil {
		return "amd64"
	}
	return strings.TrimSpace(string(out))
}

// Run applies the analyzers to every loaded unit in dependency order and
// returns the diagnostics of the target units keyed by package path,
// each package's sorted by position. Facts live in one map for the
// whole run: a unit's facts are complete before any importer reads
// them, because its importers come after it.
func (l *Loaded) Run(analyzers []*analysis.Analyzer) (map[string][]analysis.Diagnostic, error) {
	facts := make(map[[2]string]map[string]string) // (package path, analyzer) -> object key -> payload
	out := make(map[string][]analysis.Diagnostic)
	for _, u := range l.Units {
		var diags []analysis.Diagnostic
		for _, a := range analyzers {
			exported := make(map[string]string)
			facts[[2]string{u.Path, a.Name}] = exported
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      u.Fset,
				Files:     u.Files,
				Pkg:       u.Pkg,
				TypesInfo: u.Info,
				Report: func(d analysis.Diagnostic) {
					diags = append(diags, d)
				},
				ImportFacts: func(pkgPath string) map[string]string {
					return facts[[2]string{pkgPath, a.Name}]
				},
				ExportFact: func(key, payload string) {
					exported[key] = payload
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: analyzer %s: %v", u.Path, a.Name, err)
			}
		}
		if !l.Targets[u.Path] {
			continue
		}
		sort.Slice(diags, func(i, j int) bool {
			pi, pj := u.Fset.Position(diags[i].Pos), u.Fset.Position(diags[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			if pi.Column != pj.Column {
				return pi.Column < pj.Column
			}
			return diags[i].Analyzer < diags[j].Analyzer
		})
		out[u.Path] = diags
	}
	return out, nil
}
