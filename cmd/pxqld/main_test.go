package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"perfxplain"
	"perfxplain/internal/serve"
)

// smokeQuery's base `!=` conjunct, which no row filter proves, keeps it
// off the rank sampler, so the sharded leg walks its pairs on the
// workers.
const smokeQuery = `
DESPITE numinstances_issame = T AND pigscript_issame = T AND blocksize != 0
OBSERVED duration_compare = GT
EXPECTED duration_compare = SIM`

// TestPxqldSmoke builds pxqld and pxql, starts the server on a bound
// loopback port over the small sweep, asks one /api/explain, requires the
// report to be pxql's for the same query and seed, then sends SIGTERM and
// requires a clean exit within a bound. The local leg also ingests a
// batch of fresh jobs, requires the next report to be pxql's on the
// concatenated log, and keeps one explain in flight across the SIGTERM:
// it must still be answered in full before the exit. The sharded leg
// runs two worker subprocesses and requires them gone once the server
// has exited.
func TestPxqldSmoke(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGTERM drain is a POSIX behaviour")
	}
	if testing.Short() {
		t.Skip("builds two binaries")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build the binaries with")
	}
	dir := t.TempDir()
	build := exec.Command(gobin, "build", "-o", dir+string(filepath.Separator), "perfxplain/cmd/pxqld", "perfxplain/cmd/pxql")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	pxqld, pxql := filepath.Join(dir, "pxqld"), filepath.Join(dir, "pxql")

	jobs, _, err := perfxplain.Collect(perfxplain.SweepOptions{Small: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "jobs.csv")
	f, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := jobs.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	want := pxqlReport(t, pxql, logPath)

	// The ingested batch: the same sweep on another seed, its IDs renamed
	// so that none collides with the preloaded log's.
	more, _, err := perfxplain.Collect(perfxplain.SweepOptions{Small: true, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := more.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header, rows, _ := strings.Cut(buf.String(), "\n")
	rows = strings.ReplaceAll("\n"+rows, "\njob-", "\nextra-job-")[1:]
	preloaded, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	allPath := filepath.Join(dir, "all.csv")
	if err := os.WriteFile(allPath, append(preloaded, rows...), 0o666); err != nil {
		t.Fatal(err)
	}
	wantAfter := pxqlReport(t, pxql, allPath)
	if wantAfter == want {
		t.Fatal("the ingested batch does not change pxql's report; the ingest leg could not tell whether it landed")
	}

	for _, leg := range []struct {
		name    string
		args    []string
		workers int
	}{
		{"local", nil, 0},
		{"sharded", []string{"-shards", "2", "-shard-workers", "2"}, 2},
	} {
		t.Run(leg.name, func(t *testing.T) {
			srv := exec.Command(pxqld, append([]string{"-listen", "127.0.0.1:0", "-log", logPath, "-seed", "1"}, leg.args...)...)
			stderr, err := srv.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			defer srv.Process.Kill()
			addr := listeningAddr(t, stderr)

			if got := explain(t, addr); got != want {
				t.Errorf("server report differs from pxql's:\n--- pxqld ---\n%s--- pxql ---\n%s", got, want)
			}
			if n, ok := shardWorkers(pxqld); ok && n != leg.workers {
				t.Errorf("%d worker subprocesses while serving, want %d", n, leg.workers)
			}
			switch sh, ok := shardCounters(t, addr); {
			case leg.workers == 0 && ok:
				t.Errorf("/api/stats of a server without a pool has a shard object: %s", sh)
			case leg.workers > 0 && !ok:
				t.Error("/api/stats of a pooled server has no shard object")
			case leg.workers > 0:
				var c struct {
					FramesSent int64 `json:"frames_sent"`
				}
				if err := json.Unmarshal(sh, &c); err != nil || c.FramesSent <= 0 {
					t.Errorf("/api/stats shard object %s after a walked explain: frames_sent %d, %v; want > 0", sh, c.FramesSent, err)
				}
			}
			var finish func() string
			if leg.workers == 0 {
				ingest(t, addr, header+"\n"+rows, more.Len())
				if got := explain(t, addr); got != wantAfter {
					t.Errorf("report after /api/ingest differs from pxql's on the concatenated log:\n--- pxqld ---\n%s--- pxql ---\n%s", got, wantAfter)
				}
				finish = explainInFlight(t, addr)
			}

			if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			if finish != nil {
				if got := finish(); got != wantAfter {
					t.Errorf("report of the explain in flight across SIGTERM differs from pxql's:\n--- pxqld ---\n%s--- pxql ---\n%s", got, wantAfter)
				}
			}
			exited := make(chan error, 1)
			go func() { exited <- srv.Wait() }()
			select {
			case err := <-exited:
				if err != nil {
					t.Fatalf("pxqld after SIGTERM: %v, want exit 0", err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("pxqld still running 20s after SIGTERM")
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				n, ok := shardWorkers(pxqld)
				if !ok || n == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d worker subprocesses outlived pxqld", n)
				}
				time.Sleep(50 * time.Millisecond)
			}
		})
	}
}

// pxqlReport runs pxql -find over the log and returns its report (pxql
// prints the chosen pair first).
func pxqlReport(t *testing.T, pxql, logPath string) string {
	t.Helper()
	out, err := exec.Command(pxql, "-log", logPath, "-find", "-seed", "1", "-query", smokeQuery).Output()
	if err != nil {
		t.Fatalf("pxql: %v", err)
	}
	_, report, ok := strings.Cut(string(out), "\n")
	if !ok || !strings.HasPrefix(string(out), "pair of interest: ") {
		t.Fatalf("pxql output:\n%s", out)
	}
	return report
}

// explain asks pxqld for smokeQuery's report.
func explain(t *testing.T, addr string) string {
	t.Helper()
	body, _ := json.Marshal(serve.ExplainRequest{Query: smokeQuery, Find: true})
	resp, err := http.Post("http://"+addr+"/api/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var got serve.ExplainResponse
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d, %v", resp.StatusCode, err)
	}
	return got.Report
}

// shardCounters returns the "shard" object of pxqld's /api/stats, and
// whether there is one.
func shardCounters(t *testing.T, addr string) (json.RawMessage, bool) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d, %v", resp.StatusCode, err)
	}
	sh, ok := got["shard"]
	return sh, ok
}

// ingest appends a CSV batch of n records through /api/ingest.
func ingest(t *testing.T, addr, csv string, n int) {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/api/ingest", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	var got serve.IngestResponse
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d, %v", resp.StatusCode, err)
	}
	if got.Appended != n {
		t.Fatalf("ingest appended %d records, want %d", got.Appended, n)
	}
}

// explainInFlight sends an /api/explain's headers and half its body on a
// raw connection, then waits for the 100 Continue the server writes
// once the handler starts reading the body: from then on the request is
// in flight. The returned finish waits until the server has stopped
// accepting connections (it is shutting down), sends the rest of the
// body and returns the report of the answer, which must be a 200.
func explainInFlight(t *testing.T, addr string) (finish func() string) {
	t.Helper()
	body, _ := json.Marshal(serve.ExplainRequest{Query: smokeQuery, Find: true})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	half := len(body) / 2
	fmt.Fprintf(conn, "POST /api/explain HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\nExpect: 100-continue\r\nConnection: close\r\n\r\n%s",
		addr, len(body), body[:half])
	br := bufio.NewReader(conn)
	if resp, err := http.ReadResponse(br, nil); err != nil || resp.StatusCode != http.StatusContinue {
		t.Fatalf("half-sent explain: %v, %v; want 100 Continue", resp, err)
	}
	return func() string {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				break
			}
			c.Close()
			if time.Now().After(deadline) {
				t.Fatal("pxqld still accepting connections 10s after SIGTERM")
			}
		}
		if _, err := conn.Write(body[half:]); err != nil {
			t.Fatalf("sending the rest of the body after SIGTERM: %v", err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("explain in flight across SIGTERM: %v", err)
		}
		var got serve.ExplainResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("explain in flight across SIGTERM: status %d, %v", resp.StatusCode, err)
		}
		return got.Report
	}
}

// listeningAddr reads pxqld's stderr up to its "listening on" line and
// returns the bound address; the rest of the stream is drained in the
// background.
func listeningAddr(t *testing.T, stderr interface{ Read([]byte) (int, error) }) string {
	t.Helper()
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "pxqld: listening on "); ok {
			go func() {
				for sc.Scan() {
				}
			}()
			return addr
		}
	}
	t.Fatalf("pxqld exited before listening: %v", sc.Err())
	return ""
}

// shardWorkers counts the live processes running bin -shard-worker; ok
// is false where /proc is not there to ask.
func shardWorkers(bin string) (n int, ok bool) {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return 0, false
	}
	for _, e := range entries {
		cmdline, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err != nil {
			continue
		}
		args := strings.Split(string(cmdline), "\x00")
		if len(args) > 1 && args[0] == bin && args[1] == "-shard-worker" {
			n++
		}
	}
	return n, true
}

// TestPoolValidation pins the shard flags pxqld refuses before it
// serves: a negative count, or workers without specs to run them.
func TestPoolValidation(t *testing.T) {
	for _, tc := range []struct {
		shards, workers int
		err             string
	}{
		{0, 0, ""},
		{4, 0, ""},
		{4, 2, ""},
		{0, 2, "-shard-workers requires -shards"},
		{-3, 0, "-shards must not be negative"},
		{4, -2, "-shard-workers must not be negative"},
	} {
		err := checkShardFlags(tc.shards, tc.workers)
		if got := fmt.Sprint(err); (err != nil || tc.err != "") && got != tc.err {
			t.Errorf("-shards %d -shard-workers %d: error %v, want %q", tc.shards, tc.workers, err, tc.err)
		}
	}
}
