package main

import (
	"bufio"
	"bytes"
	"encoding/json"
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

const smokeQuery = `
DESPITE numinstances_issame = T AND pigscript_issame = T
OBSERVED duration_compare = GT
EXPECTED duration_compare = SIM`

// TestPxqldSmoke builds pxqld and pxql, starts the server on a bound
// loopback port over the small sweep, asks one /api/explain, requires the
// report to be pxql's for the same query and seed, then sends SIGTERM and
// requires a clean exit within a bound. The sharded leg runs two worker
// subprocesses and requires them gone once the server has exited.
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

	// pxql -find prints the chosen pair, then the report.
	out, err := exec.Command(pxql, "-log", logPath, "-find", "-seed", "1", "-query", smokeQuery).Output()
	if err != nil {
		t.Fatalf("pxql: %v", err)
	}
	_, want, ok := strings.Cut(string(out), "\n")
	if !ok || !strings.HasPrefix(string(out), "pair of interest: ") {
		t.Fatalf("pxql output:\n%s", out)
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
			if got.Report != want {
				t.Errorf("server report differs from pxql's:\n--- pxqld ---\n%s--- pxql ---\n%s", got.Report, want)
			}
			if n, ok := shardWorkers(pxqld); ok && n != leg.workers {
				t.Errorf("%d worker subprocesses while serving, want %d", n, leg.workers)
			}

			if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
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
