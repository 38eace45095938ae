package shard

// How the coordinator reaches its workers. Every worker connection is
// one Conn: gob-encoded Task and Result frames over a byte stream,
// metered below its buffering, so every Dialer runs the same codec:
//
//   - SubprocessDialer — the stdin/stdout pipes of a spawned
//     `pxql -shard-worker` child, with a stderr tail kept for
//     post-mortem diagnostics;
//   - SocketDialer — an authenticated TCP connection to a remote
//     `pxql -shard-worker -listen` process (Serve is the listener
//     side). The handshake is a shared-token HMAC challenge/response,
//     so the token never crosses the wire, and connections enable TCP
//     keep-alives so a dead peer surfaces as a transport error instead
//     of a hang;
//   - InProcDialer — an in-memory pipe to a worker loop on a goroutine
//     of this process: the whole protocol, codec and slice cache
//     included, without processes.
//
// Transport failures are reported as *TransportError — a typed wrapper
// carrying the operation, the peer and its diagnostics — so callers can
// distinguish a dead worker (truncated frame, refused dial, bad token)
// from an in-band task error.

import (
	"bufio"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"
)

// TransportError is a failed frame exchange or connection attempt with a
// shard worker. It wraps the underlying error (errors.Is/As see through
// it) and carries the peer plus its last diagnostics — the stderr tail
// for subprocesses, the remote address for sockets.
type TransportError struct {
	Op   string // "dial", "handshake", "send", "recv"
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
// protocol on stdin/stdout — `pxql -shard-worker` children.
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
// far end of a net.Pipe: the whole frame protocol, gob codec and slice
// cache included, without processes.
type InProcDialer struct{}

// Dial implements Dialer.
func (InProcDialer) Dial(stats *Stats) (*Conn, error) {
	coord, w := net.Pipe()
	go func() {
		defer w.Close()
		// The loop ends when the coordinator closes its end; an error
		// then is that close cutting a frame, which the coordinator
		// already sees from its own side.
		_ = worker(w, w, newWorkerState())
	}()
	return newConn(coord, coord, stats, "in-proc worker", func() { coord.Close() }), nil
}

// ---------------------------------------------------------------------
// Socket workers: authenticated TCP.

// Handshake constants. The server sends a random challenge; the client
// answers with HMAC-SHA256(token, challenge), so the shared token never
// crosses the wire; the server confirms with a single OK byte and both
// sides switch to gob frames. handshakeTimeout bounds dialing plus the
// handshake on either side.
const (
	handshakeNonceLen = 32
	handshakeMacLen   = sha256.Size
	handshakeOK       = byte(0x4f) // 'O'
	handshakeTimeout  = 10 * time.Second
	keepAlivePeriod   = 30 * time.Second
)

// SocketDialer connects to remote shard workers listening on TCP
// addresses (see Serve / `pxql -shard-worker -listen`). Successive
// Dials round-robin over Addrs, so a pool with more workers than
// addresses opens several connections per listener — each served by an
// independent worker loop with its own slice cache.
type SocketDialer struct {
	// Addrs are the listener addresses ("host:port"); required.
	Addrs []string
	// Token is the shared secret of the handshake; required and must
	// match the listeners'.
	Token string

	mu   sync.Mutex
	next int
}

// Dial implements Dialer.
func (d *SocketDialer) Dial(stats *Stats) (*Conn, error) {
	if len(d.Addrs) == 0 {
		return nil, errors.New("shard: socket dialer has no worker addresses")
	}
	if d.Token == "" {
		return nil, errors.New("shard: socket dialer has no auth token")
	}
	d.mu.Lock()
	addr := d.Addrs[d.next%len(d.Addrs)]
	d.next++
	d.mu.Unlock()
	conn, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, &TransportError{Op: "dial", Peer: addr, Err: err}
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(keepAlivePeriod)
	}
	if err := clientHandshake(conn, d.Token); err != nil {
		conn.Close()
		return nil, &TransportError{Op: "handshake", Peer: addr, Err: err}
	}
	return newConn(conn, conn, stats, "socket "+conn.RemoteAddr().String(), func() { conn.Close() }), nil
}

// clientHandshake answers the server's challenge. Deadlines bound every
// step so a dead or silent peer fails the dial instead of hanging.
func clientHandshake(conn net.Conn, token string) error {
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	defer conn.SetDeadline(time.Time{})
	nonce := make([]byte, handshakeNonceLen)
	if _, err := io.ReadFull(conn, nonce); err != nil {
		return fmt.Errorf("read challenge: %w", err)
	}
	mac := hmac.New(sha256.New, []byte(token))
	mac.Write(nonce)
	if _, err := conn.Write(mac.Sum(nil)); err != nil {
		return fmt.Errorf("write response: %w", err)
	}
	var ok [1]byte
	if _, err := io.ReadFull(conn, ok[:]); err != nil {
		return fmt.Errorf("read confirmation (token rejected?): %w", err)
	}
	if ok[0] != handshakeOK {
		return errors.New("listener rejected handshake")
	}
	return nil
}

// serverHandshake challenges a freshly accepted connection and verifies
// the response. On mismatch the connection is closed without a
// confirmation byte, so the peer cannot distinguish a wrong token from
// a vanished listener.
func serverHandshake(conn net.Conn, token string) error {
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	defer conn.SetDeadline(time.Time{})
	nonce := make([]byte, handshakeNonceLen)
	if _, err := rand.Read(nonce); err != nil {
		return fmt.Errorf("generate challenge: %w", err)
	}
	if _, err := conn.Write(nonce); err != nil {
		return fmt.Errorf("write challenge: %w", err)
	}
	got := make([]byte, handshakeMacLen)
	if _, err := io.ReadFull(conn, got); err != nil {
		return fmt.Errorf("read response: %w", err)
	}
	mac := hmac.New(sha256.New, []byte(token))
	mac.Write(nonce)
	if !hmac.Equal(got, mac.Sum(nil)) {
		return errors.New("bad token")
	}
	if _, err := conn.Write([]byte{handshakeOK}); err != nil {
		return fmt.Errorf("write confirmation: %w", err)
	}
	return nil
}

// Serve turns l into a shard-worker listener: every accepted connection
// is authenticated with the shared token and then served by its own
// worker loop (own goroutine, own slice cache) until the peer hangs up.
// Serve returns when the listener fails — typically because it was
// closed. token must be non-empty: an unauthenticated listener would
// execute arbitrary frames from anyone who can reach the port.
func Serve(l net.Listener, token string) error {
	if token == "" {
		return errors.New("shard: refusing to serve without an auth token")
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetKeepAlive(true)
				tc.SetKeepAlivePeriod(keepAlivePeriod)
			}
			if err := serverHandshake(conn, token); err != nil {
				fmt.Fprintf(os.Stderr, "shard: %s: handshake failed: %v\n", conn.RemoteAddr(), err)
				return
			}
			if err := worker(conn, conn, newWorkerState()); err != nil {
				fmt.Fprintf(os.Stderr, "shard: %s: worker loop: %v\n", conn.RemoteAddr(), err)
			}
		}()
	}
}

// ListenAndServe listens on a TCP address and serves shard workers —
// the body of `pxql -shard-worker -listen`.
func ListenAndServe(addr, token string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer l.Close()
	return Serve(l, token)
}
