package main

import (
	"io"
	"net"
	"testing"
)

// Every byte a peer sends and receives through the wrapped listener's
// connections is counted once.
func TestCountingListenerCountsBothDirections(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var c byteCounter
	l := countingListener{Listener: raw, c: &c}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		_, err = io.CopyN(conn, conn, 3000) // echo
		done <- err
	}()
	conn, err := net.Dial("tcp", raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := make([]byte, 3000)
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, msg); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := c.load(); got != 6000 {
		t.Fatalf("counted %d bytes, want 6000 (3000 each way)", got)
	}
}
