package driver

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// inFixtures runs the test from the fixture module's root, where Main
// resolves its patterns.
func inFixtures(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("..", "testdata", "src")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// wantLines returns "file:line" for every line of file carrying a
// `// want` expectation.
func wantLines(t *testing.T, file string) []string {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		if strings.Contains(sc.Text(), "// want ") {
			lines = append(lines, fmt.Sprintf("%s:%d", file, n))
		}
	}
	return lines
}

// TestMainExitCodes drives the pxqlvet entry point the way CI's
// blocking step does: exit 2 and one `file:line:col: message [analyzer]`
// line per expected finding, file relative to the working directory
// (cross-package wallrand facts included); 0 on a clean package; and 1
// with nothing on stdout for a pattern that does not load or any flag.
func TestMainExitCodes(t *testing.T) {
	inFixtures(t)
	finding := regexp.MustCompile(`^(.+\.go:\d+):\d+: (.+) \[(\w+)\]$`)
	for _, tc := range []struct {
		pattern, file, analyzer string
	}{
		{"fixtures/mapiter", "mapiter/mapiter.go", "mapiter"},
		{"fixtures/internal/core", "internal/core/core.go", "wallrand"},
	} {
		var stdout, stderr bytes.Buffer
		if code := Main([]string{tc.pattern}, &stdout, &stderr); code != 2 {
			t.Fatalf("%s: exit %d, want 2; stderr:\n%s", tc.pattern, code, stderr.String())
		}
		want := wantLines(t, tc.file)
		var got []string
		for _, line := range strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n") {
			m := finding.FindStringSubmatch(line)
			if m == nil || m[3] != tc.analyzer {
				t.Fatalf("%s: line %q is not a %s finding", tc.pattern, line, tc.analyzer)
			}
			got = append(got, m[1])
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: findings at\n%s\nwant one at each of\n%s", tc.pattern, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if s := fmt.Sprintf("pxqlvet: %d finding(s)\n", len(want)); stderr.String() != s {
			t.Errorf("%s: stderr %q, want %q", tc.pattern, stderr.String(), s)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := Main([]string{"fixtures/wireok", "fixtures/clockutil"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 || stderr.Len() != 0 {
		t.Errorf("clean packages: exit %d, stdout %q, stderr %q; want 0 and no output", code, stdout.String(), stderr.String())
	}

	for _, args := range [][]string{
		{"./nosuch"},
		{"fixtures/nosuch"},
		{"-mapiter=false", "fixtures/mapiter"},
		{"fixtures/mapiter", "-V=full"},
		{"-flags"},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := Main(args, &stdout, &stderr); code != 1 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "pxqlvet: ") {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want 1, no findings and a reason", args, code, stdout.String(), stderr.String())
		}
	}
}
