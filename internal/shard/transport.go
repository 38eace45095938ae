package shard

// How the coordinator reaches its workers. Every worker connection is
// one Conn: gob-encoded Task and Result frames over a byte stream,
// metered below its buffering, so every Dialer runs the same codec:
//
//   - SubprocessDialer — the stdin/stdout pipes of a spawned
//     `pxqld -shard-worker` child, with a stderr tail kept for
//     post-mortem diagnostics;
//   - InProcDialer — an in-memory pipe to a worker loop on a goroutine
//     of this process: the whole protocol, codec and held slices
//     included, without processes. It is the tests' reference for the
//     subprocess dialer.
//
// Transport failures are reported as *TransportError — a typed wrapper
// carrying the operation, the peer and its diagnostics — so callers can
// distinguish a dead worker (truncated frame, failed spawn) from an
// in-band task error.

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
)

// TransportError is a failed frame exchange or connection attempt with a
// shard worker. It wraps the underlying error (errors.Is/As see through
// it) and carries the peer plus its last diagnostics — the stderr tail
// of a subprocess.
type TransportError struct {
	Op   string // "dial", "send", "recv"
	Peer string
	Diag string // recent peer diagnostics, possibly empty
	Err  error
}

func (e *TransportError) Error() string {
	msg := fmt.Sprintf("shard: %s %s: %v", e.Op, e.Peer, e.Err)
	if e.Diag != "" {
		msg += " (worker diagnostics: " + e.Diag + ")"
	}
	return msg
}

func (e *TransportError) Unwrap() error { return e.Err }

// Conn is one framed connection to a shard worker. send and recv are
// not individually goroutine-safe — the pool serializes one round-trip
// per connection — but Close may race with both and unblocks them.
type Conn struct {
	peer      string
	stderr    *tailBuffer // a subprocess's stderr tail; nil otherwise
	bw        *bufio.Writer
	enc       *gob.Encoder
	dec       *gob.Decoder
	close     func()
	closeOnce sync.Once
}

// newConn frames the stream r/w. The byte counters sit below the
// buffers, so they meter what crosses the stream.
func newConn(r io.Reader, w io.Writer, stats *Stats, peer string, close func()) *Conn {
	bw := bufio.NewWriter(countingWriter{w: w, stats: stats})
	return &Conn{
		peer:  peer,
		bw:    bw,
		enc:   gob.NewEncoder(bw),
		dec:   gob.NewDecoder(bufio.NewReader(countingReader{r: r, stats: stats})),
		close: close,
	}
}

// send ships one task frame.
func (c *Conn) send(t *Task) error {
	if err := c.enc.Encode(t); err != nil {
		return err
	}
	return c.bw.Flush()
}

// recv reads the next result frame.
func (c *Conn) recv() (*Result, error) {
	var res Result
	if err := c.dec.Decode(&res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Close tears the connection down and releases the worker. It is
// idempotent.
func (c *Conn) Close() error {
	c.closeOnce.Do(c.close)
	return nil
}

// fail wraps a failed exchange step with the peer and its diagnostics.
func (c *Conn) fail(op string, err error) *TransportError {
	te := &TransportError{Op: op, Peer: c.peer, Err: err}
	if c.stderr != nil {
		te.Diag = c.stderr.String()
	}
	return te
}

// Dialer opens connections to workers whose frame bytes are metered
// into stats.
type Dialer interface {
	Dial(stats *Stats) (*Conn, error)
}

// ---------------------------------------------------------------------
// Subprocess workers: stdin/stdout pipes.

// SubprocessDialer spawns worker subprocesses speaking the shard
// protocol on stdin/stdout — `pxqld -shard-worker` children.
type SubprocessDialer struct {
	// Command is the worker argv; required.
	Command []string
	// Env is appended to the parent environment of every worker.
	Env []string
}

// Dial implements Dialer.
func (d SubprocessDialer) Dial(stats *Stats) (*Conn, error) {
	if len(d.Command) == 0 {
		return nil, errors.New("shard: subprocess dialer has no worker command")
	}
	cmd := exec.Command(d.Command[0], d.Command[1:]...)
	cmd.Env = append(os.Environ(), d.Env...)
	stderr := &tailBuffer{max: 4096}
	cmd.Stderr = stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("shard: worker stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("shard: worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, &TransportError{Op: "dial", Peer: d.Command[0], Err: err}
	}
	peer := fmt.Sprintf("subprocess %s pid %d", cmd.Path, cmd.Process.Pid)
	c := newConn(stdout, stdin, stats, peer, func() {
		stdin.Close()
		cmd.Process.Kill()
		cmd.Wait()
	})
	c.stderr = stderr
	return c, nil
}

// tailBuffer keeps the last max bytes written — enough worker stderr to
// diagnose a death without unbounded growth.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// ---------------------------------------------------------------------
// In-process workers: an in-memory pipe.

// InProcDialer runs each worker as a goroutine of this process at the
// far end of a net.Pipe: the whole frame protocol, gob codec and held
// slices included, without processes.
type InProcDialer struct{}

// Dial implements Dialer.
func (InProcDialer) Dial(stats *Stats) (*Conn, error) {
	coord, w := net.Pipe()
	go func() {
		defer w.Close()
		// The loop ends when the coordinator closes its end; an error
		// then is that close cutting a frame, which the coordinator
		// already sees from its own side.
		_ = worker(w, w, new(workerState))
	}()
	return newConn(coord, coord, stats, "in-proc worker", func() { coord.Close() }), nil
}
