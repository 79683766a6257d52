package main

import (
	"net"
	"sync/atomic"
)

// byteCounter tallies every byte a daemon's listener carries, in both
// directions, across all of its connections.
type byteCounter struct{ n atomic.Int64 }

func (c *byteCounter) load() int64 { return c.n.Load() }

// countingListener wraps a daemon's listener so each accepted connection
// adds the bytes it reads and writes to a shared counter. Handed to the
// daemon in place of the raw listener, it counts the exact wire traffic —
// the paper's communication cost — without touching the program.
type countingListener struct {
	net.Listener
	c *byteCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *byteCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.n.Add(int64(n))
	return n, err
}
