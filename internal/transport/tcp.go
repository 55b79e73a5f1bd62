package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"rpcoib/internal/bufpool"
	"rpcoib/internal/exec"
)

// maxFrame bounds a single message to guard against corrupt length prefixes.
const maxFrame = 256 << 20

// recvStep is the most memory a length prefix can commit before the bytes
// behind it arrive. The prefix is unauthenticated: a frame up to recvStep is
// received into the connection's receive buffer, grown to fit it up front; a
// larger one gets an allocation of its own that grows by recvStep as its body
// is actually received, so a peer that announces maxFrame and sends nothing
// costs the receiver one step, not the frame.
const recvStep = 4 << 20

// readBufSize is the receive buffer a connection end starts with and comes
// back to: a frame that fits (every small call does) is read with whatever
// else has arrived, in one syscall, and handed out as a view. A larger frame
// grows the buffer to that frame (readBuf.room); bufpool.ShrinkAfter says
// when it gives the memory back. The buffer is the only memory a connection
// end retains. It is also where SendPooled starts to split a frame, and the
// most it holds back to write at once: what the peer takes in with one read.
const readBufSize = 8 << 10

// sendTail is how many of a large pooled frame's last bytes SendPooled
// writes from the connection's own array, after the pooled buffer is back in
// its pool. Any length above zero keeps the frame's end behind the release;
// a few bytes keep the copy free.
const sendTail = 64

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

	wmu   sync.Mutex
	whdr  [4]byte
	wvec  [2][]byte   // prefix and body, the backing array of wbuf
	wbuf  net.Buffers // consumed by each write; re-pointed at wvec
	wtail [sendTail]byte
	wq    []byte // small frames SendPooled holds back, each behind its prefix

	rb *readBuf
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{c: c, remote: c.RemoteAddr().String(), rb: newReadBuf(readBufSize)}
}

// Send writes the prefix and data with one vectored write, after any frames
// SendPooled holds back. A frame the peer would refuse is refused here,
// before a byte of it is written.
func (c *tcpConn) Send(_ exec.Env, data []byte) error {
	if len(data) > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(data))
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.flush(); err != nil {
		return err
	}
	return c.writev(len(data), data)
}

// SendPooled sends m and releases its buffer before the peer can hold the
// whole frame. A frame that fits readBufSize goes out in one vectored write,
// released after it. A larger one is written from the pooled buffer up to its
// last sendTail bytes; those are copied to the connection's own array, m is
// released, and then they are written. The peer cannot read the frame's last
// byte, and so cannot answer it or issue its next call, before the buffer is
// back in the pool: a writer the scheduler parks after a long write no longer
// holds a registered buffer that the next call needs.
//
// With more set, or with frames already held back, a frame that fits
// readBufSize is copied behind them instead and m released at once; they all
// go out with one write when a frame comes without more, when the next would
// not fit with them, or before a larger frame.
func (c *tcpConn) SendPooled(_ exec.Env, m Pooled, more bool) error {
	b, n := m.Buffer()
	if n > maxFrame {
		m.Release()
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	data := b.Data[:n]
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if 4+n <= readBufSize {
		if !more && len(c.wq) == 0 {
			err := c.writev(n, data)
			m.Release()
			return err
		}
		err := c.hold(data)
		m.Release()
		if err == nil && !more {
			err = c.flush()
		}
		return err
	}
	if err := c.flush(); err != nil {
		m.Release()
		return err
	}
	cut := n - sendTail
	err := c.writev(n, data[:cut])
	copy(c.wtail[:], data[cut:])
	m.Release()
	if err != nil {
		return err
	}
	if _, err = c.c.Write(c.wtail[:]); err != nil {
		c.c.Close()
	}
	return err
}

// hold copies a small frame behind its prefix to the held-back ones, writing
// those out first when it would not fit with them. The array is the
// connection's own, made by the first frame held back.
func (c *tcpConn) hold(data []byte) error {
	if len(c.wq)+4+len(data) > readBufSize {
		if err := c.flush(); err != nil {
			return err
		}
	}
	if c.wq == nil {
		c.wq = make([]byte, 0, readBufSize)
	}
	c.wq = binary.BigEndian.AppendUint32(c.wq, uint32(len(data)))
	c.wq = append(c.wq, data...)
	return nil
}

// flush writes the held-back frames with one write. A failed write closes
// the connection, as writev's does.
func (c *tcpConn) flush() error {
	if len(c.wq) == 0 {
		return nil
	}
	_, err := c.c.Write(c.wq)
	c.wq = c.wq[:0]
	if err != nil {
		c.c.Close()
	}
	return err
}

// writev writes the prefix of a frame of n bytes and body, the frame or its
// head, with one vectored write. A write that fails part-way closes the
// connection, so no later frame can follow part of this one.
func (c *tcpConn) writev(n int, body []byte) error {
	binary.BigEndian.PutUint32(c.whdr[:], uint32(n))
	c.wvec[0], c.wvec[1] = c.whdr[:], body
	c.wbuf = c.wvec[:]
	_, err := c.wbuf.WriteTo(c.c)
	c.wvec[1] = nil // body was borrowed for the write only
	if err != nil {
		c.c.Close()
	}
	return err
}

// readBuf is a connection's receive buffer: buf[r:w] holds bytes read but not
// yet returned. lent is set while a view of buf is out with a caller and
// cleared by release; a Recv that finds it still set leaves this buffer to
// its holder and carries on in a new one (fork). quiet counts the frames in a
// row that needed at most half of buf, peak is the largest of them.
type readBuf struct {
	buf         []byte
	r, w        int
	quiet, peak int
	lent        atomic.Bool
	release     func()
	view        []byte // the lent view, kept in poison builds only
}

func newReadBuf(size int) *readBuf {
	b := &readBuf{buf: make([]byte, size)}
	b.release = func() {
		if bufpool.Poison {
			bufpool.PoisonFill(b.view)
		}
		b.lent.Store(false)
	}
	return b
}

// pageRound rounds a buffer size up to whole pages.
func pageRound(n int) int { return (n + 4095) &^ 4095 }

// resize moves the unread bytes into a new buffer of size bytes. No view of
// the old one is out: Recv forks a lent buffer before it gets here.
func (b *readBuf) resize(size int) {
	buf := make([]byte, size)
	b.w = copy(buf, b.buf[b.r:b.w])
	b.r, b.buf = 0, buf
}

// room sizes the buffer for a frame that needs need bytes of it. It grows at
// once and to the frame, not by doubling: a rising sequence of sizes then
// allocates per frame what every frame used to, and nothing is held that no
// frame asked for. It shrinks by bufpool.ShrinkAfter's rule on the
// connection's own history, to the largest frame of the run (and to what is
// already buffered), never below readBufSize.
func (b *readBuf) room(need int) {
	switch {
	case need > len(b.buf):
		b.resize(pageRound(need))
	case 2*need > len(b.buf):
		// in use at this size
	default:
		b.peak = max(b.peak, need)
		if b.quiet++; b.quiet < bufpool.ShrinkAfter {
			return
		}
		if size := max(readBufSize, pageRound(max(b.peak, b.w-b.r))); 2*size <= len(b.buf) {
			b.resize(size)
		}
	}
	b.quiet, b.peak = 0, 0
}

// fork returns the buffer Recv carries on in while a view of b is still out:
// it takes over the unread bytes and is sized for them and for the frame they
// start with, which may be far more than readBufSize once b has grown.
func (b *readBuf) fork() *readBuf {
	tail := b.buf[b.r:b.w]
	size := len(tail)
	if len(tail) >= 4 {
		if n := binary.BigEndian.Uint32(tail); n <= recvStep {
			size = max(size, 4+int(n))
		}
	}
	fresh := newReadBuf(max(readBufSize, pageRound(size)))
	fresh.w = copy(fresh.buf, tail)
	return fresh
}

// fill reads until at least need unread bytes are buffered, moving them to
// the front first when the tail has no room for the rest. A read takes in no
// more than readBufSize from where the frame starts, or the frame: in a grown
// buffer, what it took past that would be the head of the next large frame,
// to be moved to the front before the rest of that frame could follow.
func (b *readBuf) fill(c net.Conn, need int) error {
	if b.r+need > len(b.buf) {
		b.w = copy(b.buf, b.buf[b.r:b.w])
		b.r = 0
	}
	end := min(len(b.buf), b.r+max(need, readBufSize))
	for b.w-b.r < need {
		n, err := c.Read(b.buf[b.w:end])
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

// Recv returns the next frame. One of up to recvStep bytes is a view of the
// connection's receive buffer, valid until release is called; a larger one
// gets an allocation of its own, which the connection does not keep.
func (c *tcpConn) Recv(exec.Env) ([]byte, func(), error) {
	b := c.rb
	if b.lent.Load() {
		b = b.fork()
		c.rb = b
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
	if size <= recvStep {
		need := 4 + size
		if need > len(b.buf) || len(b.buf) > readBufSize {
			b.room(need) // a buffer that never left readBufSize has no history to keep
		}
		// An error here leaves the buffer unlent: nothing of it was handed out.
		if err := b.fill(c.c, need); err != nil {
			return nil, nil, err
		}
		data := b.buf[b.r+4 : b.r+need : b.r+need]
		b.r += need
		if bufpool.Poison {
			b.view = data
		}
		b.lent.Store(true)
		return data, b.release, nil
	}
	b.r += 4
	data := make([]byte, recvStep)
	have := copy(data, b.buf[b.r:b.w]) // fill's bound keeps this under readBufSize
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
