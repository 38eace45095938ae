package driver

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"perfxplain/internal/analysis"
)

// Main is the pxqlvet entry point: it loads the packages matching the
// patterns (default ./..., rooted at the current directory), runs every
// analyzer of analysis.All over them, and writes one
// `file:line:col: message [analyzer]` line per finding to stdout, file
// relative to the current directory when it lies below it. It
// takes package patterns only — no flags — and returns the process exit
// code: 0 clean, 1 when the packages cannot be loaded or analyzed (the
// reason goes to stderr), 2 when there are findings.
func Main(args []string, stdout, stderr io.Writer) int {
	for _, arg := range args {
		if strings.HasPrefix(arg, "-") {
			fmt.Fprintf(stderr, "pxqlvet: takes package patterns only, not %q\nusage: pxqlvet [packages]\n", arg)
			return 1
		}
	}
	loaded, err := Load("", args)
	if err != nil {
		fmt.Fprintf(stderr, "pxqlvet: %v\n", err)
		return 1
	}
	byPkg, err := loaded.Run(analysis.All())
	if err != nil {
		fmt.Fprintf(stderr, "pxqlvet: %v\n", err)
		return 1
	}
	wd, _ := os.Getwd()
	n := 0
	for _, u := range loaded.Units {
		for _, d := range byPkg[u.Path] {
			n++
			pos := u.Fset.Position(d.Pos)
			if rel, err := filepath.Rel(wd, pos.Filename); err == nil && filepath.IsLocal(rel) {
				pos.Filename = rel
			}
			fmt.Fprintf(stdout, "%s: %s [%s]\n", pos, d.Message, d.Analyzer)
		}
	}
	if n > 0 {
		fmt.Fprintf(stderr, "pxqlvet: %d finding(s)\n", n)
		return 2
	}
	return 0
}
