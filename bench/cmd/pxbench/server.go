package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"perfxplain/bench/gen"
)

// buildBinaries compiles the two programs the benchmark drives into dir,
// from the root module exactly as a user builds them. Compilation is
// never inside a timed span.
func buildBinaries(ctx context.Context, dir string) (binaries, error) {
	// The benchmark is a module of its own; the engine is the module it
	// replaces "perfxplain" with.
	out, err := exec.CommandContext(ctx, "go", "list", "-m", "-f", "{{.Dir}}", "perfxplain").Output()
	if err != nil {
		return binaries{}, fmt.Errorf("locate the perfxplain module: %w", err)
	}
	root := strings.TrimSpace(string(out))
	// Absolute: the build runs in root, and shard workers are spawned
	// from this path.
	if dir, err = filepath.Abs(dir); err != nil {
		return binaries{}, err
	}
	for _, name := range []string{"pxqld", "pxql"} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return binaries{}, fmt.Errorf("build %s: %v\n%s", name, err, out)
		}
	}
	return binaries{pxqld: filepath.Join(dir, "pxqld"), pxql: filepath.Join(dir, "pxql")}, nil
}

// server is one running pxqld and the client that talks to it.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	stderr bytes.Buffer
	done   chan struct{} // closed when the process has been reaped
}

// freePort asks the kernel for an unused loopback port. pxqld prints its
// -listen flag rather than the bound address, so ":0" cannot be passed
// through; the window between closing this listener and pxqld binding
// the port is covered by startServer's retry.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer runs pxqld on an ephemeral loopback port and waits until it
// answers /api/healthz. The process gets its own process group, so stop
// can take its shard workers down with it.
func startServer(ctx context.Context, bin string, conns int, args ...string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		s := &server{
			base: "http://127.0.0.1:" + strconv.Itoa(port),
			client: &http.Client{Transport: &http.Transport{
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
			}},
			done: make(chan struct{}),
		}
		s.cmd = exec.Command(bin, append([]string{"-listen", "127.0.0.1:" + strconv.Itoa(port)}, args...)...)
		s.cmd.Stderr = &s.stderr
		s.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		if err := s.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start pxqld: %w", err)
		}
		go func() {
			_ = s.cmd.Wait() // exit status is read from ProcessState by waitHealthy
			close(s.done)
		}()
		if lastErr = s.waitHealthy(ctx); lastErr == nil {
			return s, nil
		}
		s.stop()
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

func (s *server) waitHealthy(ctx context.Context) error {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		resp, err := s.client.Get(s.base + "/api/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.done:
			return fmt.Errorf("pxqld exited before serving: %v\n%s", s.cmd.ProcessState, s.stderr.String())
		case <-ctx.Done():
			return fmt.Errorf("waiting for pxqld: %w", ctx.Err())
		case <-tick.C:
		}
	}
}

// stop kills pxqld and every process in its group, and returns once
// pxqld has been reaped. It is safe to call more than once.
func (s *server) stop() {
	if s.cmd.Process != nil {
		_ = syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL) // ESRCH once the group is gone
	}
	<-s.done
	s.client.CloseIdleConnections()
}

// peakRSSMB sums VmHWM over pxqld and its direct children (the shard
// workers it spawned).
func (s *server) peakRSSMB() (float64, error) {
	pid := s.cmd.Process.Pid
	pids := []int{pid}
	// /proc/<pid>/task/<tid>/children lists children per thread.
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/children", pid))
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue
		}
		for _, f := range strings.Fields(string(data)) {
			if c, err := strconv.Atoi(f); err == nil {
				pids = append(pids, c)
			}
		}
	}
	total := 0.0
	for i, p := range pids {
		kb, err := vmHWMkB(p)
		if err != nil {
			if i == 0 {
				return 0, err
			}
			continue // a worker that has already exited
		}
		total += kb / 1024
	}
	return total, nil
}

func vmHWMkB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM line", pid)
}

// post sends one request that ends when ctx does, so a wedged server
// cannot hold the benchmark past its budget.
func (s *server) post(ctx context.Context, path, contentType string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return s.client.Do(req)
}

// explainBody is the /api/explain request for q.
func explainBody(q gen.Question) []byte {
	body, err := json.Marshal(map[string]any{
		"query":       q.Query,
		"pair":        q.Pair[:],
		"seed":        q.Seed,
		"gen_despite": q.GenDespite,
	})
	if err != nil {
		panic(err) // strings, ints and bools always marshal
	}
	return body
}

// answer is what the client keeps of one /api/explain round trip.
type answer struct {
	status int
	report string
	ms     float64
	// done is when the last byte of the response was decoded.
	done time.Time
	err  error
}

// explain posts one question and times the round trip from the first
// byte written to the last byte of the decoded response.
func (s *server) explain(ctx context.Context, q gen.Question) answer {
	body := explainBody(q)
	start := time.Now()
	resp, err := s.post(ctx, "/api/explain", "application/json", body)
	if err != nil {
		return answer{err: err}
	}
	defer resp.Body.Close()
	var out struct {
		Report string `json:"report"`
		Error  string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	done := time.Now()
	a := answer{status: resp.StatusCode, report: out.Report, ms: ms(done.Sub(start)), done: done}
	if err != nil {
		a.err = fmt.Errorf("decode /api/explain response: %w", err)
	} else if resp.StatusCode != http.StatusOK {
		a.err = fmt.Errorf("/api/explain: %d %s", resp.StatusCode, out.Error)
	}
	return a
}

// ingest posts one CSV batch and returns the round-trip time in ms.
func (s *server) ingest(ctx context.Context, csv []byte) (float64, error) {
	start := time.Now()
	resp, err := s.post(ctx, "/api/ingest", "text/csv", csv)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	d := ms(time.Since(start))
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("/api/ingest: %d %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return d, nil
}

// serverStats are the /api/stats counters the benchmark reports deltas of.
type serverStats struct {
	Computations int64 `json:"computations"`
	Cache        struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Collapsed int64 `json:"collapsed"`
	} `json:"cache"`
}

// add accumulates o into s, so deltas can be summed over lives.
func (s *serverStats) add(o serverStats) {
	s.Computations += o.Computations
	s.Cache.Hits += o.Cache.Hits
	s.Cache.Misses += o.Cache.Misses
	s.Cache.Collapsed += o.Cache.Collapsed
}

func (s *server) stats(ctx context.Context) (serverStats, error) {
	var st serverStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/api/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/api/stats: %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
