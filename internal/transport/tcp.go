package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"rpcoib/internal/exec"
)

// maxFrame bounds a single message to guard against corrupt length prefixes.
const maxFrame = 256 << 20

// recvStep is the most memory a length prefix can commit before the bytes
// behind it arrive. The prefix is unauthenticated: a frame up to recvStep
// gets its one exact allocation up front, a larger one grows by recvStep as
// its body is actually received, so a peer that announces maxFrame and sends
// nothing costs the receiver one step, not the frame.
const recvStep = 4 << 20

// TCPNetwork is the real-mode transport: length-prefixed messages over
// net.Conn. It ignores the exec.Env arguments (real blocking is real).
type TCPNetwork struct {
	host string
}

// NewTCPNetwork returns a TCP transport bound to host (default 127.0.0.1).
func NewTCPNetwork(host string) *TCPNetwork {
	if host == "" {
		host = "127.0.0.1"
	}
	return &TCPNetwork{host: host}
}

// Kind implements Network.
func (t *TCPNetwork) Kind() string { return "tcp" }

// Listen binds a TCP listener on the configured host. Port 0 picks a free
// port; read it back from Listener.Addr.
func (t *TCPNetwork) Listen(_ exec.Env, port int) (Listener, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("%s:%d", t.host, port))
	if err != nil {
		return nil, err
	}
	return &tcpListener{ln: ln}, nil
}

// Dial connects to addr ("host:port").
func (t *TCPNetwork) Dial(_ exec.Env, addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpConn{c: c}, nil
}

type tcpListener struct{ ln net.Listener }

func (l *tcpListener) Accept(exec.Env) (Conn, error) {
	c, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return &tcpConn{c: c}, nil
}

func (l *tcpListener) Close()       { l.ln.Close() }
func (l *tcpListener) Addr() string { return l.ln.Addr().String() }

// tcpConn frames messages as [4-byte big-endian length][payload]. Sends are
// serialized with a mutex because Hadoop RPC lets multiple caller threads
// write to one connection; receives are expected from a single reader
// thread, as in the engine.
type tcpConn struct {
	c    net.Conn
	wmu  sync.Mutex
	rbuf [4]byte
}

func (c *tcpConn) Send(_ exec.Env, data []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := c.c.Write(hdr[:]); err != nil {
		return err
	}
	_, err := c.c.Write(data)
	return err
}

func (c *tcpConn) Recv(exec.Env) ([]byte, func(), error) {
	if _, err := io.ReadFull(c.c, c.rbuf[:]); err != nil {
		return nil, nil, err
	}
	n := binary.BigEndian.Uint32(c.rbuf[:])
	if n > maxFrame {
		return nil, nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	size := int(n)
	data := make([]byte, min(size, recvStep))
	for have := 0; ; {
		if _, err := io.ReadFull(c.c, data[have:]); err != nil {
			return nil, nil, err
		}
		have = len(data)
		if have == size {
			return data, NopRelease, nil
		}
		step := min(size-have, recvStep)
		data = slices.Grow(data, step)[:have+step]
	}
}

func (c *tcpConn) Close()             { c.c.Close() }
func (c *tcpConn) RemoteAddr() string { return c.c.RemoteAddr().String() }
