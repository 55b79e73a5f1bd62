package transport

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"testing"

	"rpcoib/internal/exec"
)

func TestTCPRoundTrip(t *testing.T) {
	env := exec.NewRealEnv(1)
	nw := NewTCPNetwork("")
	ln, err := nw.Listen(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept(env)
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		data, release, err := conn.Recv(env)
		if err != nil {
			done <- err
			return
		}
		err = conn.Send(env, append([]byte("echo:"), data...))
		release()
		done <- err
	}()
	conn, err := nw.Dial(env, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(env, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, release, err := conn.Recv(env)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if string(data) != "echo:hello" {
		t.Fatalf("got %q", data)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestTCPEmptyAndLargeMessages(t *testing.T) {
	env := exec.NewRealEnv(1)
	nw := NewTCPNetwork("")
	ln, err := nw.Listen(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept(env)
		if err != nil {
			return
		}
		defer conn.Close()
		for i := 0; i < 3; i++ {
			data, release, err := conn.Recv(env)
			if err != nil {
				return
			}
			conn.Send(env, data)
			release()
		}
	}()
	conn, err := nw.Dial(env, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	big := bytes.Repeat([]byte{0x5a}, 1<<20)
	// Past recvStep a frame's own allocation grows as the body arrives; a
	// length that is not a multiple of the step exercises the short last step.
	stepped := bytes.Repeat([]byte{0xa5}, 2*recvStep+3)
	for _, msg := range [][]byte{{}, big, stepped} {
		if err := conn.Send(env, msg); err != nil {
			t.Fatal(err)
		}
		data, release, err := conn.Recv(env)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, msg) {
			t.Fatalf("echo mismatch for %d bytes", len(msg))
		}
		release()
	}
}

func TestTCPConcurrentSenders(t *testing.T) {
	env := exec.NewRealEnv(1)
	nw := NewTCPNetwork("")
	ln, err := nw.Listen(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const n = 200
	received := make(chan []byte, n)
	go func() {
		conn, err := ln.Accept(env)
		if err != nil {
			return
		}
		defer conn.Close()
		for i := 0; i < n; i++ {
			data, release, err := conn.Recv(env)
			if err != nil {
				return
			}
			cp := append([]byte(nil), data...)
			release()
			received <- cp
		}
	}()
	conn, err := nw.Dial(env, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			msg := bytes.Repeat([]byte{byte(g)}, 64+g)
			for i := 0; i < n/8; i++ {
				if err := conn.Send(env, msg); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Frames must arrive intact (no interleaving torn frames).
	for i := 0; i < n; i++ {
		data := <-received
		want := bytes.Repeat([]byte{data[0]}, 64+int(data[0]))
		if !bytes.Equal(data, want) {
			t.Fatalf("torn frame: len=%d first=%d", len(data), data[0])
		}
	}
}

func TestTCPDialFailure(t *testing.T) {
	env := exec.NewRealEnv(1)
	nw := NewTCPNetwork("")
	if _, err := nw.Dial(env, "127.0.0.1:1"); err == nil {
		t.Fatal("expected dial failure")
	}
}

func TestTCPRecvAfterPeerClose(t *testing.T) {
	env := exec.NewRealEnv(1)
	nw := NewTCPNetwork("")
	ln, _ := nw.Listen(env, 0)
	defer ln.Close()
	go func() {
		conn, err := ln.Accept(env)
		if err == nil {
			conn.Close()
		}
	}()
	conn, err := nw.Dial(env, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := conn.Recv(env); err == nil {
		t.Fatal("expected recv error after close")
	}
}

// TestTCPRecvBoundsPrefixAllocation: a peer announces a frame just under
// maxFrame, sends ten bytes of it, and hangs up. Recv must fail, having
// allocated for the bytes that arrived (one recvStep), not for the prefix.
func TestTCPRecvBoundsPrefixAllocation(t *testing.T) {
	env := exec.NewRealEnv(1)
	nw := NewTCPNetwork("")
	ln, err := nw.Listen(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		peer, err := net.Dial("tcp", ln.Addr())
		if err != nil {
			return
		}
		peer.Write(append([]byte{0x0f, 0xff, 0xff, 0xff}, make([]byte, 10)...))
		peer.Close()
	}()
	conn, err := ln.Accept(env)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = conn.Recv(env)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Recv of a truncated frame returned no error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Fatalf("Recv allocated %d bytes for a 10-byte body behind a %d-byte prefix; want < 8 MiB", grew, 0x0fffffff)
	}
}

// TestTCPAddrAllocatesNothing: callers ask a listener (through Server.Addr)
// and a connection for their address on every call, so both are formatted
// once, when the socket is made.
func TestTCPAddrAllocatesNothing(t *testing.T) {
	env := exec.NewRealEnv(1)
	nw := NewTCPNetwork("")
	ln, err := nw.Listen(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := nw.Dial(env, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.RemoteAddr() != ln.Addr() {
		t.Fatalf("dialed %s, connection names %s", ln.Addr(), conn.RemoteAddr())
	}
	var sink string
	if allocs := testing.AllocsPerRun(100, func() { sink = ln.Addr() }); allocs != 0 {
		t.Errorf("Listener.Addr allocates %.0f times per call", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sink = conn.RemoteAddr() }); allocs != 0 {
		t.Errorf("Conn.RemoteAddr allocates %.0f times per call", allocs)
	}
	_ = sink
}

// TestTCPSendRefusesOversizedFrame: a frame the peer's Recv would reject is
// refused before any of it is written, so the stream stays in step and the
// next frame arrives whole.
func TestTCPSendRefusesOversizedFrame(t *testing.T) {
	env := exec.NewRealEnv(1)
	nw := NewTCPNetwork("")
	ln, err := nw.Listen(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := nw.Dial(env, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer, err := ln.Accept(env)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	huge := make([]byte, maxFrame+1) // never touched: Send must refuse on its length alone
	if err := conn.Send(env, huge); err == nil {
		t.Fatal("Send accepted a frame longer than maxFrame")
	}
	if err := conn.Send(env, []byte("next")); err != nil {
		t.Fatalf("Send after a refused frame: %v", err)
	}
	data, release, err := peer.Recv(env)
	if err != nil {
		t.Fatalf("Recv after a refused frame: %v", err)
	}
	defer release()
	if string(data) != "next" {
		t.Fatalf("peer received %q: part of the refused frame reached the wire", data)
	}
}

// failingConn is a net.Conn whose Write fails part-way through the failAt-th
// call and which, like a real socket, refuses every Write after Close.
type failingConn struct {
	net.Conn // nil: only the methods below are used
	writes   int
	failAt   int
	wrote    bytes.Buffer
	closed   bool
}

func (c *failingConn) Write(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	c.writes++
	if c.writes == c.failAt {
		n, _ := c.wrote.Write(p[:len(p)/2])
		return n, &net.OpError{Op: "write", Err: net.ErrWriteToConnected}
	}
	return c.wrote.Write(p)
}

func (c *failingConn) Close() error         { c.closed = true; return nil }
func (c *failingConn) RemoteAddr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1} }

// TestTCPSendFailureClosesConn: a write that fails with half a body on the
// wire closes the connection, so a later Send cannot put a fresh prefix
// behind the half frame for the peer to misread as body bytes.
func TestTCPSendFailureClosesConn(t *testing.T) {
	env := exec.NewRealEnv(1)
	raw := &failingConn{failAt: 2} // the prefix goes out, the body breaks
	conn := newTCPConn(raw)
	if err := conn.Send(env, bytes.Repeat([]byte{7}, 100)); err == nil {
		t.Fatal("Send reported no error for a short write")
	}
	if !raw.closed {
		t.Fatal("a failed write left the connection open")
	}
	onWire := raw.wrote.Len()
	if onWire != 4+50 {
		t.Fatalf("%d bytes on the wire, want the prefix and half the body (54)", onWire)
	}
	if err := conn.Send(env, []byte("later")); err == nil {
		t.Fatal("Send succeeded on a connection a failed write had closed")
	}
	if raw.wrote.Len() != onWire {
		t.Fatalf("a later Send wrote %d bytes behind half a frame", raw.wrote.Len()-onWire)
	}
}

// TestTCPRecvReusesBufferAfterRelease drives the receive buffer from a raw
// peer: frames that arrive together, a prefix split across reads, a frame
// that wraps the buffer's end, a view held across the next Recv, and a frame
// that outgrows the buffer between small ones.
func TestTCPRecvReusesBufferAfterRelease(t *testing.T) {
	conn, peer := tcpPair(t)

	// Three frames in one segment, the third's prefix cut in two.
	third := testFrame(3, 700)
	peer.Write(append(append(testFrame(1, 10), testFrame(2, 0)...), third[:2]...))
	_, release := recvFrame(t, conn, 1, 10)
	release()
	_, release = recvFrame(t, conn, 2, 0)
	release()
	got := make(chan struct{})
	go func() {
		defer close(got)
		_, release := recvFrame(t, conn, 3, 700)
		release()
	}()
	peer.Write(third[2:])
	<-got

	// Enough frames to take the read offset round the buffer several times.
	go func() {
		for i := 0; i < 40; i++ {
			peer.Write(testFrame(i, 1000+i))
		}
	}()
	for i := 0; i < 40; i++ {
		_, release := recvFrame(t, conn, i, 1000+i)
		release()
	}

	// A view that is not released stays intact while later frames arrive.
	peer.Write(append(testFrame(50, 3000), testFrame(51, 3000)...))
	held, releaseHeld := recvFrame(t, conn, 50, 3000)
	_, release = recvFrame(t, conn, 51, 3000)
	release()
	peer.Write(testFrame(52, 6000))
	_, release = recvFrame(t, conn, 52, 6000)
	release()
	if !bytes.Equal(held, testBody(50, 3000)) {
		t.Fatal("the held view changed while later frames arrived")
	}
	releaseHeld()

	// A frame larger than the buffer grows it; the small frame sent right
	// behind it is not lost when the large view is still held.
	peer.Write(append(testFrame(60, 3*readBufSize), testFrame(61, 5)...))
	big, release := recvFrame(t, conn, 60, 3*readBufSize)
	_, releaseSmall := recvFrame(t, conn, 61, 5)
	if !bytes.Equal(big, testBody(60, 3*readBufSize)) {
		t.Fatal("the held large view changed when the next frame was received")
	}
	release()
	releaseSmall()
}
