package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"

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

// readBufSize is the per-connection receive buffer: a frame that fits (every
// small call does) is read with whatever else has arrived, in one syscall,
// and handed out as a view. It is the only memory a connection end retains.
const readBufSize = 8 << 10

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
	return &tcpListener{ln: ln, addr: ln.Addr().String()}, nil
}

// Dial connects to addr ("host:port").
func (t *TCPNetwork) Dial(_ exec.Env, addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

// tcpListener formats its address once: callers ask for it per call.
type tcpListener struct {
	ln   net.Listener
	addr string
}

func (l *tcpListener) Accept(exec.Env) (Conn, error) {
	c, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

func (l *tcpListener) Close()       { l.ln.Close() }
func (l *tcpListener) Addr() string { return l.addr }

// tcpConn frames messages as [4-byte big-endian length][payload]. Sends are
// serialized with a mutex because Hadoop RPC lets multiple caller threads
// write to one connection; receives are expected from a single reader
// thread, as in the engine.
type tcpConn struct {
	c      net.Conn
	remote string

	wmu  sync.Mutex
	whdr [4]byte
	wvec [2][]byte   // prefix and body, the backing array of wbuf
	wbuf net.Buffers // consumed by each write; re-pointed at wvec

	rb *readBuf
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{c: c, remote: c.RemoteAddr().String(), rb: newReadBuf()}
}

// Send writes the prefix and data with one vectored write. A frame the peer
// would refuse is refused here, before a byte of it is written; a write that
// fails part-way closes the connection, so no later frame can follow half of
// this one.
func (c *tcpConn) Send(_ exec.Env, data []byte) error {
	if len(data) > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(data))
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	binary.BigEndian.PutUint32(c.whdr[:], uint32(len(data)))
	c.wvec[0], c.wvec[1] = c.whdr[:], data
	c.wbuf = c.wvec[:]
	_, err := c.wbuf.WriteTo(c.c)
	c.wvec[1] = nil // data was borrowed for the write only
	if err != nil {
		c.c.Close()
	}
	return err
}

// readBuf is a connection's receive buffer: buf[r:w] holds bytes read but not
// yet returned. lent is set while a view of buf is out with a caller and
// cleared by release; a Recv that finds it still set leaves this buffer to
// its holder and carries on in a new one.
type readBuf struct {
	buf     []byte
	r, w    int
	lent    atomic.Bool
	release func()
}

func newReadBuf() *readBuf {
	b := &readBuf{buf: make([]byte, readBufSize)}
	b.release = func() { b.lent.Store(false) }
	return b
}

// fill reads until at least need unread bytes are buffered, moving them to
// the front first when the tail has no room for the rest.
func (b *readBuf) fill(c net.Conn, need int) error {
	if b.r+need > len(b.buf) {
		b.w = copy(b.buf, b.buf[b.r:b.w])
		b.r = 0
	}
	for b.w-b.r < need {
		n, err := c.Read(b.buf[b.w:])
		b.w += n
		if err != nil && b.w-b.r < need {
			if err == io.EOF && b.w > b.r {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// Recv returns the next frame. One that fits the receive buffer is a view of
// it, valid until release is called; a larger one gets its own allocation.
func (c *tcpConn) Recv(exec.Env) ([]byte, func(), error) {
	b := c.rb
	if b.lent.Load() {
		fresh := newReadBuf()
		fresh.w = copy(fresh.buf, b.buf[b.r:b.w])
		b, c.rb = fresh, fresh
	}
	if b.r == b.w {
		b.r, b.w = 0, 0
	}
	if err := b.fill(c.c, 4); err != nil {
		return nil, nil, err
	}
	n := binary.BigEndian.Uint32(b.buf[b.r:])
	if n > maxFrame {
		return nil, nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	size := int(n)
	if 4+size <= len(b.buf) {
		if err := b.fill(c.c, 4+size); err != nil {
			return nil, nil, err
		}
		data := b.buf[b.r+4 : b.r+4+size : b.r+4+size]
		b.r += 4 + size
		b.lent.Store(true)
		return data, b.release, nil
	}
	b.r += 4
	data := make([]byte, min(size, recvStep))
	have := copy(data, b.buf[b.r:b.w])
	b.r += have
	for {
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
func (c *tcpConn) RemoteAddr() string { return c.remote }
