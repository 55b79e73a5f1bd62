package transport

import (
	"bytes"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"testing"

	"rpcoib/internal/bufpool"
	"rpcoib/internal/exec"
)

// countingMsg is a pooled message, the first size bytes of a buffer that no
// pool owns: it counts its releases.
type countingMsg struct {
	buf  *bufpool.Buffer
	size int
	n    atomic.Int32
}

func newCountingMsg(data []byte) *countingMsg {
	return &countingMsg{buf: &bufpool.Buffer{Data: data}, size: len(data)}
}

func (m *countingMsg) Buffer() (*bufpool.Buffer, int) { return m.buf, m.size }
func (m *countingMsg) Release()                       { m.n.Add(1) }

// TestTCPSendReleasingReleasesBeforeLastByte: over a pipe, whose writes
// complete only as the peer reads them, the pooled buffer of a large frame is
// back by the time the peer holds the frame's last byte, so a call the peer
// issues on reading it can never find that buffer still out.
func TestTCPSendReleasingReleasesBeforeLastByte(t *testing.T) {
	a, peer := net.Pipe()
	conn := newTCPConn(a)
	defer conn.Close()
	defer peer.Close()
	for _, n := range []int{readBufSize - 3, 64 << 10, 1 << 20} {
		r := newCountingMsg(testBody(n, n))
		sent := make(chan error, 1)
		go func() { sent <- conn.SendPooled(nil, r, false) }()
		got := make([]byte, 4+n)
		if _, err := io.ReadFull(peer, got); err != nil {
			t.Fatal(err)
		}
		if r.n.Load() != 1 {
			t.Fatalf("%d-byte frame: the peer holds its last byte and the buffer was released %d times", n, r.n.Load())
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, testFrame(n, n)) {
			t.Fatalf("%d-byte frame arrived damaged", n)
		}
	}
}

// writeLog is a net.Conn that records each Write and whether rel had
// released by then.
type writeLog struct {
	net.Conn // nil: only Write is used
	rel      *countingMsg
	wrote    bytes.Buffer
	writes   []int // bytes per Write
	after    []int // bytes per Write made after the release
}

func (c *writeLog) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	if c.rel.n.Load() > 0 {
		c.after = append(c.after, len(p))
	}
	return c.wrote.Write(p)
}

func (c *writeLog) RemoteAddr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1} }

// TestTCPSendReleasingFrameShapes: a frame that fits readBufSize is the one
// vectored write of prefix and body (a plain net.Conn sees its two buffers in
// turn), released after it; a larger one is the same write cut sendTail bytes
// short, then the release, then the tail and nothing else.
func TestTCPSendReleasingFrameShapes(t *testing.T) {
	for _, tc := range []struct {
		n             int
		writes, after []int
	}{
		{0, []int{4, 0}, nil},
		{readBufSize - 4, []int{4, readBufSize - 4}, nil},
		{readBufSize - 3, []int{4, readBufSize - 3 - sendTail, sendTail}, []int{sendTail}},
		{1 << 20, []int{4, 1<<20 - sendTail, sendTail}, []int{sendTail}},
	} {
		r := newCountingMsg(testBody(1, tc.n))
		raw := &writeLog{rel: r}
		if err := newTCPConn(raw).SendPooled(nil, r, false); err != nil {
			t.Fatal(err)
		}
		if r.n.Load() != 1 {
			t.Fatalf("%d-byte frame released %d times", tc.n, r.n.Load())
		}
		if !slices.Equal(raw.writes, tc.writes) || !slices.Equal(raw.after, tc.after) {
			t.Fatalf("%d-byte frame: writes %v (%v after the release), want %v (%v)",
				tc.n, raw.writes, raw.after, tc.writes, tc.after)
		}
		if !bytes.Equal(raw.wrote.Bytes(), testFrame(1, tc.n)) {
			t.Fatalf("%d-byte frame went out damaged", tc.n)
		}
	}
}

// TestTCPSendReleasingFailureReleasesOnce: whichever write fails — the one
// small frame's body, a large frame's bulk, its tail — the buffer is released
// exactly once, the error is returned and the connection is closed, so no
// later frame can follow part of this one.
func TestTCPSendReleasingFailureReleasesOnce(t *testing.T) {
	env := exec.NewRealEnv(1)
	for _, tc := range []struct {
		name      string
		n, failAt int
	}{
		{"small body", 100, 2},
		{"large bulk", 256 << 10, 2},
		{"large tail", 256 << 10, 3},
	} {
		r := newCountingMsg(testBody(2, tc.n))
		raw := &failingConn{failAt: tc.failAt}
		conn := newTCPConn(raw)
		if err := conn.SendPooled(env, r, false); err == nil {
			t.Fatalf("%s: no error for a failed write", tc.name)
		}
		if r.n.Load() != 1 {
			t.Fatalf("%s: released %d times", tc.name, r.n.Load())
		}
		if !raw.closed {
			t.Fatalf("%s: a failed write left the connection open", tc.name)
		}
		r.buf, r.size = &bufpool.Buffer{Data: []byte("later")}, 5
		if err := conn.SendPooled(env, r, false); err == nil || r.n.Load() != 2 {
			t.Fatalf("%s: a later send on the closed connection: err %v, %d releases", tc.name, err, r.n.Load())
		}
	}
}

// shadowMsg is a message in a shadow pool's buffer, given back as the
// engine's stream does.
type shadowMsg struct {
	pool *bufpool.ShadowPool
	buf  *bufpool.Buffer
	n    int
}

func (r *shadowMsg) Buffer() (*bufpool.Buffer, int) { return r.buf, r.n }
func (r *shadowMsg) Release()                       { r.pool.Release("test+large", r.buf, r.n) }

// TestTCPSendReleasingTailSurvivesPoison: the frame is sent from a pool
// buffer that a `poison` build fills with 0xDB on release, while the tail is
// still to go out; the tail arrives intact because it was copied before.
func TestTCPSendReleasingTailSurvivesPoison(t *testing.T) {
	pool := bufpool.NewShadowPool(bufpool.NewNativePool(0), bufpool.PolicyHistory)
	a, b := net.Pipe()
	conn, peer := newTCPConn(a), newTCPConn(b)
	defer conn.Close()
	defer peer.Close()
	const n = 256 << 10
	r := &shadowMsg{pool: pool, buf: pool.Native().Get(n), n: n}
	copy(r.buf.Data, testBody(3, n))
	sent := make(chan error, 1)
	go func() { sent <- conn.SendPooled(nil, r, false) }()
	_, release := recvFrame(t, peer, 3, n)
	release()
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if bufpool.Poison && r.buf.Data[n-1] != bufpool.PoisonByte {
		t.Fatal("the released pool buffer was not poisoned")
	}
	if pool.Native().Outstanding() != 0 {
		t.Fatal("the pool buffer was not released")
	}
}
