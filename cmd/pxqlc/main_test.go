package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"perfxplain"
	"perfxplain/internal/serve"
)

// mainArg, as a child's first argument, routes TestMain into main(), so
// a test sees the binary's own flag parsing, output and exit code.
const mainArg = "pxqlc-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == mainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The query, seed and width pxql's golden (cmd/pxql/testdata) was run
// with, over the same small sweep.
const testQuery = `
DESPITE numinstances_issame = T AND pigscript_issame = T
OBSERVED duration_compare = GT
EXPECTED duration_compare = SIM`

// pxqlc runs the client against base and returns its stdout, stderr and
// exit code.
func pxqlc(t *testing.T, base string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{mainArg, "-addr", base}, args...)...)
	var out, errw bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errw
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errw.String(), code
}

// golden returns pxql's report and held-out line for testQuery, in
// pxqlc's rendering.
func golden(t *testing.T) (report, eval string) {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("..", "pxql", "testdata", "cli_perfxplain.golden"))
	if err != nil {
		t.Fatal(err)
	}
	// pxql -find -eval prints the pair, the report, then the held-out line.
	lines := strings.SplitAfter(string(golden), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[0], "pair of interest: ") || !strings.HasPrefix(lines[len(lines)-2], "held-out:") {
		t.Fatalf("unexpected pxql golden layout:\n%s", golden)
	}
	var p, g, r float64
	if _, err := fmt.Sscanf(lines[len(lines)-2], "held-out:  precision %f, generality %f, relevance %f", &p, &g, &r); err != nil {
		t.Fatal(err)
	}
	return strings.Join(lines[1:len(lines)-2], ""),
		fmt.Sprintf("evaluated: precision %.3f, generality %.3f, relevance %.3f\n", p, g, r)
}

// server is an in-process explanation server on a loopback port over
// the small sweep, read back from CSV as pxql and pxqld read it.
func server(t *testing.T) *httptest.Server {
	t.Helper()
	jobs, _, err := perfxplain.Collect(perfxplain.SweepOptions{Small: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := jobs.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	log, err := perfxplain.ReadLogCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	st := perfxplain.NewStore(log, 0)
	if err := st.Ingest(log); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewServer(serve.Config{
		Store:   st,
		Explain: perfxplain.Options{Width: 3, DespiteWidth: 3, FeatureLevel: 3, Seed: 1},
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestPxqlcAgainstServer drives pxqlc's one-off mode against the
// in-process server: its explain report is pxql's for the same query
// and seed, its evaluation is pxql's held-out numbers over the same log,
// and a malformed query exits non-zero with the server's typed 400
// message.
func TestPxqlcAgainstServer(t *testing.T) {
	wantReport, wantEval := golden(t)
	ts := server(t)

	out, errw, code := pxqlc(t, ts.URL, "-find", "-q", testQuery)
	if code != 0 || out != wantReport {
		t.Errorf("explain: exit %d, stderr %q\n--- pxqlc ---\n%s--- pxql ---\n%s", code, errw, out, wantReport)
	}
	out, errw, code = pxqlc(t, ts.URL, "-find", "-eval", "-q", testQuery)
	if code != 0 || out != wantReport+wantEval {
		t.Errorf("evaluate: exit %d, stderr %q\n--- pxqlc ---\n%s--- want ---\n%s", code, errw, out, wantReport+wantEval)
	}
	out, errw, code = pxqlc(t, ts.URL, "-find", "-q", "OBSERVED duration_compare ==")
	if code == 0 || out != "" || !strings.HasPrefix(errw, "pxqlc: 400 Bad Request: ") {
		t.Errorf("malformed query: exit %d, stdout %q, stderr %q; want a non-zero exit and the server's 400 message", code, out, errw)
	}
}

// TestREPL scripts the interactive loop against the in-process server:
// dot commands answer, a query continued with a trailing backslash
// reports pxql's golden bytes, a malformed query's 400 goes to the error
// stream without ending the session, .history lists what was sent, and
// .quit ends the session before the lines after it.
func TestREPL(t *testing.T) {
	wantReport, _ := golden(t)
	ts := server(t)
	var out, errw bytes.Buffer
	c := &client{base: ts.URL, req: explainRequest{Find: true}, out: &out, errw: &errw}
	script := `.schema
DESPITE numinstances_issame = T AND pigscript_issame = T \
OBSERVED duration_compare = GT EXPECTED duration_compare = SIM
OBSERVED duration_compare ==
.domains pigscript
.domains no such&field
.history
.quit
OBSERVED duration_compare = LT
`
	if err := c.repl(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	stdout, stderr := out.String(), errw.String()
	schema, rest, ok := strings.Cut(stdout, wantReport)
	if !ok || strings.Contains(rest, wantReport) {
		t.Fatalf("the session's output does not hold the golden report once:\n%s", stdout)
	}
	if !strings.Contains(schema, `"pigscript"`) {
		t.Errorf(".schema printed %q", schema)
	}
	if !strings.Contains(rest, `"field": "pigscript"`) || !strings.Contains(rest, `"simple-groupby.pig"`) {
		t.Errorf(".domains printed %q", rest)
	}
	wantHistory := "  1  DESPITE numinstances_issame = T AND pigscript_issame = T OBSERVED duration_compare = GT EXPECTED duration_compare = SIM\n" +
		"  2  OBSERVED duration_compare ==\n"
	if !strings.HasSuffix(rest, wantHistory) {
		t.Errorf(".history printed %q, want the two sent queries", rest)
	}
	if !strings.Contains(stderr, "error: 400 Bad Request: ") {
		t.Errorf("the malformed query's 400 is not on the error stream: %q", stderr)
	}
	if !strings.Contains(stderr, `error: 400 Bad Request: unknown field "no such&field"`) {
		t.Errorf(".domains did not send its argument whole: %q", stderr)
	}
	if len(c.history) != 2 {
		t.Errorf("%d queries sent, want 2: the line after .quit must not be", len(c.history))
	}

	// Input that ends inside a continued query is reported, not dropped.
	c = &client{base: ts.URL, out: &out, errw: &errw}
	if err := c.repl(strings.NewReader("OBSERVED duration_compare = GT \\\n")); err == nil ||
		!strings.Contains(err.Error(), "OBSERVED duration_compare = GT") {
		t.Errorf("a query pending at EOF ended the session with %v", err)
	}
}
