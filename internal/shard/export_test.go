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
	coord, w := net.Pipe()
	go func() {
		defer w.Close()
		_ = worker(w, &cutWriter{w: w, left: cut}, newWorkerState())
	}()
	return newConn(coord, coord, stats, "in-proc worker", func() { coord.Close() }), nil
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
