// Command pxqlc is the interactive client for the pxqld explanation
// server: a small REPL that sends PXQL queries over HTTP/JSON and
// renders the server's reports, in the spirit of promql-cli front ends.
//
//	pxqlc -addr http://localhost:9070
//	pxql> DESPITE numinstances_issame = T AND pigscript_issame = T \
//	      OBSERVED duration_compare = GT \
//	      EXPECTED duration_compare = SIM
//
// A trailing backslash continues the query on the next line. Dot
// commands inspect the server: .schema, .domains <field>, .stats,
// .seal, .ingest <file>, .history, .help, .quit. One-off mode (-q)
// sends a single query and exits — handy in scripts:
//
//	pxqlc -addr http://localhost:9070 -find -q "$(cat query.pxql)"
//
// The rendered report is byte-identical to running the pxql CLI over
// the same records, whether or not the server answered from its cache.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
)

func main() {
	addr := flag.String("addr", "http://localhost:9070", "pxqld base URL")
	query := flag.String("q", "", "one-off PXQL query: send, print the report, exit")
	pair := flag.String("pair", "", "pair of interest as 'id1,id2' (overrides the FOR clause)")
	find := flag.Bool("find", false, "ask the server to pick a pair of interest")
	genDespite := flag.Bool("gen-despite", false, "generate a despite extension before explaining")
	evalToo := flag.Bool("eval", false, "also evaluate the explanation on the resident log")
	width := flag.Int("width", 0, "explanation width (0 = server default)")
	level := flag.Int("level", 0, "feature level 1-3 (0 = server default)")
	seed := flag.Int64("seed", 0, "sampling seed (0 = server default)")
	timeoutMS := flag.Int("timeout-ms", 0, "per-query deadline in milliseconds (0 = server default)")
	verbose := flag.Bool("verbose", false, "report cache status and watermark to stderr")
	flag.Parse()

	c := &client{
		base: strings.TrimRight(*addr, "/"),
		req: explainRequest{
			Pair:       splitPair(*pair),
			Find:       *find,
			GenDespite: *genDespite,
			Width:      *width,
			Level:      *level,
			Seed:       *seed,
			TimeoutMS:  *timeoutMS,
		},
		eval:    *evalToo,
		verbose: *verbose,
		out:     os.Stdout,
		errw:    os.Stderr,
	}
	if *query != "" {
		if err := c.explain(*query); err != nil {
			fmt.Fprintln(os.Stderr, "pxqlc:", err)
			os.Exit(1)
		}
		return
	}
	if err := c.repl(os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "pxqlc:", err)
		os.Exit(1)
	}
}

func splitPair(s string) []string {
	if s == "" {
		return nil
	}
	id1, id2, ok := strings.Cut(s, ",")
	if !ok {
		return []string{strings.TrimSpace(s), ""}
	}
	return []string{strings.TrimSpace(id1), strings.TrimSpace(id2)}
}

// explainRequest mirrors serve.ExplainRequest on the wire; the client
// keeps its own copy so it stays a pure HTTP consumer of the public API.
type explainRequest struct {
	Query      string   `json:"query"`
	Pair       []string `json:"pair,omitempty"`
	Find       bool     `json:"find,omitempty"`
	GenDespite bool     `json:"gen_despite,omitempty"`
	Width      int      `json:"width,omitempty"`
	Level      int      `json:"level,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
	TimeoutMS  int      `json:"timeout_ms,omitempty"`
}

type explainResponse struct {
	Report    string `json:"report"`
	Watermark uint64 `json:"watermark"`
	Cached    bool   `json:"cached"`
	Eval      *struct {
		Relevance  float64 `json:"Relevance"`
		Precision  float64 `json:"Precision"`
		Generality float64 `json:"Generality"`
	} `json:"eval,omitempty"`
	Error string `json:"error,omitempty"`
}

type client struct {
	base    string
	req     explainRequest
	eval    bool
	verbose bool
	history []string
	out     io.Writer
	errw    io.Writer
}

// post sends a JSON body and decodes the JSON answer, surfacing the
// server's error field on non-2xx statuses.
func (c *client) post(path string, body, into any) error {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
	}
	resp, err := http.Post(c.base+path, "application/json", &buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, into)
}

func (c *client) get(path string) (string, error) {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode/100 != 2 {
		return "", fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	return string(b), nil
}

func decodeResponse(resp *http.Response, into any) error {
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(b, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	if into == nil {
		return nil
	}
	return json.Unmarshal(b, into)
}

func (c *client) explain(query string) error {
	req := c.req
	req.Query = query
	path := "/api/explain"
	if c.eval {
		path = "/api/evaluate"
	}
	var resp explainResponse
	if err := c.post(path, req, &resp); err != nil {
		return err
	}
	fmt.Fprint(c.out, resp.Report)
	if resp.Eval != nil {
		fmt.Fprintf(c.out, "evaluated: precision %.3f, generality %.3f, relevance %.3f\n",
			resp.Eval.Precision, resp.Eval.Generality, resp.Eval.Relevance)
	}
	if c.verbose {
		fmt.Fprintf(c.errw, "watermark %d, cached %v\n", resp.Watermark, resp.Cached)
	}
	return nil
}

const replHelp = `PXQL queries run as typed (end a line with \ to continue). Dot commands:
  .schema           resident schema (field names and kinds)
  .domains <field>  observed values / numeric range of a field
  .stats            server counters (records, watermark, cache, admission)
  .seal             force-seal the mutable tail
  .ingest <file>    append a CSV log to the resident store
  .history          queries sent this session
  .help             this text
  .quit             exit`

// repl reads queries and dot commands from r until EOF.
func (c *client) repl(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var pending []string
	prompt := func() {
		if len(pending) > 0 {
			fmt.Fprint(c.errw, "  ... ")
		} else {
			fmt.Fprint(c.errw, "pxql> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" && len(pending) == 0:
			// ignore blank lines between queries
		case strings.HasPrefix(line, ".") && len(pending) == 0:
			if quit := c.command(line); quit {
				return nil
			}
		case strings.HasSuffix(line, "\\"):
			pending = append(pending, strings.TrimSpace(strings.TrimSuffix(line, "\\")))
		default:
			pending = append(pending, line)
			query := strings.Join(pending, "\n")
			pending = nil
			c.history = append(c.history, query)
			if err := c.explain(query); err != nil {
				fmt.Fprintln(c.errw, "error:", err)
			}
		}
		prompt()
	}
	fmt.Fprintln(c.errw)
	return sc.Err()
}

// command dispatches one dot command; it returns true on .quit.
func (c *client) command(line string) (quit bool) {
	cmd, arg, _ := strings.Cut(line, " ")
	arg = strings.TrimSpace(arg)
	var out string
	var err error
	switch cmd {
	case ".quit", ".exit", ".q":
		return true
	case ".help":
		out = replHelp + "\n"
	case ".schema":
		out, err = c.get("/api/schema")
	case ".domains":
		if arg == "" {
			err = fmt.Errorf("usage: .domains <field>")
		} else {
			out, err = c.get("/api/domains?field=" + arg)
		}
	case ".stats":
		out, err = c.get("/api/stats")
	case ".seal":
		err = c.post("/api/seal", nil, nil)
		if err == nil {
			out = "sealed\n"
		}
	case ".ingest":
		out, err = c.ingest(arg)
	case ".history":
		for i, q := range c.history {
			out += fmt.Sprintf("%3d  %s\n", i+1, strings.ReplaceAll(q, "\n", " "))
		}
	default:
		err = fmt.Errorf("unknown command %s (try .help)", cmd)
	}
	if err != nil {
		fmt.Fprintln(c.errw, "error:", err)
		return false
	}
	fmt.Fprint(c.out, out)
	if out != "" && !strings.HasSuffix(out, "\n") {
		fmt.Fprintln(c.out)
	}
	return false
}

// ingest streams a CSV file to the server's /api/ingest endpoint.
func (c *client) ingest(path string) (string, error) {
	if path == "" {
		return "", fmt.Errorf("usage: .ingest <file.csv>")
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	resp, err := http.Post(c.base+"/api/ingest", "text/csv", f)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var r struct {
		Appended  int    `json:"appended"`
		Records   int    `json:"records"`
		Watermark uint64 `json:"watermark"`
	}
	if err := decodeResponse(resp, &r); err != nil {
		return "", err
	}
	return fmt.Sprintf("appended %d records (%d total, watermark %d)\n", r.Appended, r.Records, r.Watermark), nil
}
