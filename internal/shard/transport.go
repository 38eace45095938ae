package shard

// The transport abstraction that makes the shard runtime
// machine-agnostic: a Transport is one framed, bidirectional connection
// to a worker, and a Dialer opens them. The same versioned Task/Result
// frames flow over every implementation:
//
//   - SubprocessDialer — gob over the stdin/stdout pipes of a spawned
//     `pxql -shard-worker` child (the original transport), with a
//     stderr tail kept for post-mortem diagnostics;
//   - InProcDialer — frames handed over channels to a worker goroutine
//     in this process (no serialization; useful for tests and for
//     exercising the full protocol, slice cache included, without
//     processes);
//   - SocketDialer — gob over an authenticated TCP connection to a
//     remote `pxql -shard-worker -listen` process (Serve is the
//     listener side). The handshake is a shared-token HMAC
//     challenge/response, so the token never crosses the wire, and
//     connections enable TCP keep-alives so a dead peer surfaces as a
//     transport error instead of a hang.
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

// Transport is one framed connection to a shard worker. Send and Recv
// are not required to be individually goroutine-safe — the pool
// serializes one round-trip per transport — but Close may race with
// both and must unblock them.
type Transport interface {
	// Send ships one task frame.
	Send(t *Task) error
	// Recv reads the next result frame.
	Recv() (*Result, error)
	// Close tears the connection down and releases the worker. It is
	// idempotent.
	Close() error
	// Peer describes the worker for diagnostics ("subprocess pxql pid
	// 4242", "10.0.0.7:9000").
	Peer() string
	// Diag returns recent peer diagnostics (a subprocess's stderr tail);
	// may be empty.
	Diag() string
}

// Dialer opens transports to workers. The stats target, when non-nil,
// meters the transport's frame bytes; implementations without a byte
// stream may ignore it.
type Dialer interface {
	Dial(stats *Stats) (Transport, error)
}

// ---------------------------------------------------------------------
// Subprocess transport: gob over stdin/stdout pipes.

// SubprocessDialer spawns worker subprocesses speaking the shard
// protocol on stdin/stdout — `pxql -shard-worker` children.
type SubprocessDialer struct {
	// Command is the worker argv; required.
	Command []string
	// Env is appended to the parent environment of every worker.
	Env []string
}

// Dial implements Dialer.
func (d SubprocessDialer) Dial(stats *Stats) (Transport, error) {
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
	return &pipeTransport{
		cmd:    cmd,
		stdin:  stdin,
		enc:    gob.NewEncoder(countingWriter{w: stdin, stats: stats}),
		dec:    gob.NewDecoder(countingReader{r: stdout, stats: stats}),
		stderr: stderr,
	}, nil
}

type pipeTransport struct {
	cmd       *exec.Cmd
	stdin     io.WriteCloser
	enc       *gob.Encoder
	dec       *gob.Decoder
	stderr    *tailBuffer
	closeOnce sync.Once
}

func (t *pipeTransport) Send(task *Task) error { return t.enc.Encode(task) }

func (t *pipeTransport) Recv() (*Result, error) {
	var res Result
	if err := t.dec.Decode(&res); err != nil {
		return nil, err
	}
	return &res, nil
}

func (t *pipeTransport) Close() error {
	t.closeOnce.Do(func() {
		t.stdin.Close()
		if t.cmd.Process != nil {
			t.cmd.Process.Kill()
		}
		t.cmd.Wait()
	})
	return nil
}

func (t *pipeTransport) Peer() string {
	pid := -1
	if t.cmd.Process != nil {
		pid = t.cmd.Process.Pid
	}
	return fmt.Sprintf("subprocess %s pid %d", t.cmd.Path, pid)
}

func (t *pipeTransport) Diag() string { return t.stderr.String() }

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
// In-process channel transport.

// InProcDialer runs workers as goroutines in this process, exchanging
// the protocol's frames over channels: the whole frame protocol, slice
// cache and decode included, without serialization or processes.
type InProcDialer struct{}

// Dial implements Dialer.
func (InProcDialer) Dial(*Stats) (Transport, error) {
	t := &chanTransport{
		tasks:   make(chan *Task),
		results: make(chan *Result),
		done:    make(chan struct{}),
	}
	go func() {
		ws := newWorkerState()
		for {
			select {
			case task := <-t.tasks:
				select {
				case t.results <- ws.dispatch(task):
				case <-t.done:
					return
				}
			case <-t.done:
				return
			}
		}
	}()
	return t, nil
}

type chanTransport struct {
	tasks     chan *Task
	results   chan *Result
	done      chan struct{}
	closeOnce sync.Once
}

var errTransportClosed = errors.New("transport closed")

func (t *chanTransport) Send(task *Task) error {
	select {
	case t.tasks <- task:
		return nil
	case <-t.done:
		return errTransportClosed
	}
}

func (t *chanTransport) Recv() (*Result, error) {
	select {
	case res := <-t.results:
		return res, nil
	case <-t.done:
		return nil, errTransportClosed
	}
}

func (t *chanTransport) Close() error {
	t.closeOnce.Do(func() { close(t.done) })
	return nil
}

func (t *chanTransport) Peer() string { return "in-proc worker" }
func (t *chanTransport) Diag() string { return "" }

// ---------------------------------------------------------------------
// Socket transport: authenticated gob over TCP.

// Handshake constants. The server sends a random challenge; the client
// answers with HMAC-SHA256(token, challenge), so the shared token never
// crosses the wire; the server confirms with a single OK byte and both
// sides switch to gob frames.
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
	// Timeout bounds dialing plus the handshake (default 10s).
	Timeout time.Duration

	mu   sync.Mutex
	next int
}

// Dial implements Dialer.
func (d *SocketDialer) Dial(stats *Stats) (Transport, error) {
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
	timeout := d.Timeout
	if timeout <= 0 {
		timeout = handshakeTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, &TransportError{Op: "dial", Peer: addr, Err: err}
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(keepAlivePeriod)
	}
	if err := clientHandshake(conn, d.Token, timeout); err != nil {
		conn.Close()
		return nil, &TransportError{Op: "handshake", Peer: addr, Err: err}
	}
	return newSockTransport(conn, stats), nil
}

func newSockTransport(conn net.Conn, stats *Stats) *sockTransport {
	bw := bufio.NewWriter(countingWriter{w: conn, stats: stats})
	return &sockTransport{
		conn: conn,
		bw:   bw,
		enc:  gob.NewEncoder(bw),
		dec:  gob.NewDecoder(bufio.NewReader(countingReader{r: conn, stats: stats})),
	}
}

type sockTransport struct {
	conn      net.Conn
	bw        *bufio.Writer
	enc       *gob.Encoder
	dec       *gob.Decoder
	closeOnce sync.Once
}

func (t *sockTransport) Send(task *Task) error {
	if err := t.enc.Encode(task); err != nil {
		return err
	}
	return t.bw.Flush()
}

func (t *sockTransport) Recv() (*Result, error) {
	var res Result
	if err := t.dec.Decode(&res); err != nil {
		return nil, err
	}
	return &res, nil
}

func (t *sockTransport) Close() error {
	t.closeOnce.Do(func() { t.conn.Close() })
	return nil
}

func (t *sockTransport) Peer() string { return "socket " + t.conn.RemoteAddr().String() }
func (t *sockTransport) Diag() string { return "" }

// clientHandshake answers the server's challenge. Deadlines bound every
// step so a dead or silent peer fails the dial instead of hanging.
func clientHandshake(conn net.Conn, token string, timeout time.Duration) error {
	conn.SetDeadline(time.Now().Add(timeout))
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
			// worker flushes the buffered writer after every result frame.
			if err := worker(bufio.NewReader(conn), bufio.NewWriter(conn), newWorkerState()); err != nil {
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
