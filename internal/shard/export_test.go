package shard

import (
	"errors"
	"io"
	"net"
)

// DialInProcCut is InProcDialer.Dial with the worker's end of the pipe
// closing once the worker has written cut bytes of results: a worker
// dying in the middle of a frame.
func DialInProcCut(stats *Stats, cut int) (*Conn, error) {
	return dialPipeWorker(stats, new(workerState), func(w io.Writer) io.Writer {
		return &cutWriter{w: w, left: cut}
	}), nil
}

// dialPipeWorker runs a worker loop with state ws at the far end of a
// net.Pipe, its results written through wrap when wrap is set.
func dialPipeWorker(stats *Stats, ws *workerState, wrap func(io.Writer) io.Writer) *Conn {
	coord, w := net.Pipe()
	out := io.Writer(w)
	if wrap != nil {
		out = wrap(w)
	}
	go func() {
		defer w.Close()
		_ = worker(w, out, ws)
	}()
	return newConn(coord, coord, stats, "in-proc worker", func() { coord.Close() })
}

// cutWriter passes the first left bytes through and fails after them.
type cutWriter struct {
	w    io.Writer
	left int
}

func (c *cutWriter) Write(p []byte) (int, error) {
	if len(p) > c.left {
		n, _ := c.w.Write(p[:c.left])
		c.left = 0
		return n, errors.New("worker died mid-frame")
	}
	c.left -= len(p)
	return c.w.Write(p)
}
