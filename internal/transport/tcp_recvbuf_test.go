package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"net"
	"sort"
	"testing"

	"rpcoib/internal/bufpool"
	"rpcoib/internal/exec"
)

// noise is what test frames are cut from: seeded random bytes, longer than
// the longest frame a test sends.
var noise = func() []byte {
	b := make([]byte, recvStep+8<<10)
	rand.New(rand.NewSource(1)).Read(b)
	return b
}()

// testBody is n bytes cut from noise at an offset tag picks, so a frame that
// arrives shifted, torn or overwritten by a neighbour does not compare equal.
func testBody(tag, n int) []byte { return noise[tag*61%4096:][:n] }

// testFrame is testBody(tag, n) as it goes on the wire, behind its prefix.
func testFrame(tag, n int) []byte {
	f := make([]byte, 4+n)
	binary.BigEndian.PutUint32(f, uint32(n))
	copy(f[4:], testBody(tag, n))
	return f
}

// tcpPair is an accepted connection and the raw socket at its other end.
func tcpPair(t testing.TB) (*tcpConn, net.Conn) {
	t.Helper()
	env := exec.NewRealEnv(1)
	ln, err := NewTCPNetwork("").Listen(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ln.Accept(env)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close(); peer.Close() })
	return conn.(*tcpConn), peer
}

// pipePair is the same over an in-memory pipe: no descriptors, and a Read
// returns exactly what one Write (or the rest of it) offered, so a test
// decides where the stream is cut.
func pipePair() (*tcpConn, net.Conn) {
	a, b := net.Pipe()
	return newTCPConn(a), b
}

// recvFrame receives one frame and checks it against testBody(tag, n).
func recvFrame(t testing.TB, c *tcpConn, tag, n int) ([]byte, func()) {
	t.Helper()
	data, release, err := c.Recv(nil)
	if err != nil {
		t.Fatalf("Recv of frame %d (%d bytes): %v", tag, n, err)
	}
	if !bytes.Equal(data, testBody(tag, n)) {
		t.Fatalf("frame %d (%d bytes) arrived damaged (%d bytes)", tag, n, len(data))
	}
	return data, release
}

// TestTCPRecvHeldLargeViewKeepsFollowingFrames: a 512 KB view is held while
// 100 KB of small frames sent right behind it are received. The buffer Recv
// carries on in must take over everything already read, however much that is;
// all frames arrive intact and in order and the held view never changes.
func TestTCPRecvHeldLargeViewKeepsFollowingFrames(t *testing.T) {
	conn, peer := tcpPair(t)
	const large, small, count = 512 << 10, 1000, 100
	stream := testFrame(0, large)
	for i := 1; i <= count; i++ {
		stream = append(stream, testFrame(i, small)...)
	}
	stream = append(stream, testFrame(count+1, large)...) // a large frame starts in the new buffer
	go peer.Write(stream)

	held, releaseHeld := recvFrame(t, conn, 0, large)
	first := conn.rb
	for i := 1; i <= count; i++ {
		_, release := recvFrame(t, conn, i, small)
		release()
	}
	_, release := recvFrame(t, conn, count+1, large)
	release()
	if conn.rb == first {
		t.Fatal("Recv went on using a buffer whose view was still held")
	}
	if !bytes.Equal(held, testBody(0, large)) {
		t.Fatal("the held view changed while later frames arrived")
	}
	releaseHeld()
}

// TestTCPRecvLargeFramesAllocateNothing: once the buffer has grown to a
// 256 KB frame, every further one released in time is received into the same
// memory.
func TestTCPRecvLargeFramesAllocateNothing(t *testing.T) {
	conn, peer := tcpPair(t)
	frame := testFrame(7, 256<<10)
	go func() {
		for {
			if _, err := peer.Write(frame); err != nil {
				return
			}
		}
	}()
	recv := func() {
		_, release, err := conn.Recv(nil)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	recv() // grows
	buf := &conn.rb.buf[0]
	if allocs := testing.AllocsPerRun(50, recv); allocs != 0 {
		t.Errorf("a warmed 256 KB Recv allocates %.1f times", allocs)
	}
	if &conn.rb.buf[0] != buf {
		t.Error("the receive buffer was replaced between frames of one size")
	}
}

// TestTCPRecvLadderReallocatesRarely: on the benchmark's large workloads —
// shuffled cycles of 64 sizes, log-uniform from 64 KB to 1 MB — the buffer is
// replaced when a frame exceeds every one before it and never shrinks, because
// no bufpool.ShrinkAfter frames in a row stay under half of it.
func TestTCPRecvLadderReallocatesRarely(t *testing.T) {
	conn, peer := tcpPair(t)
	const lo, hi, cycle, frames = 64 << 10, 1 << 20, 64, 1000
	rng := rand.New(rand.NewSource(23))
	sizes := make([]int, 0, frames)
	for len(sizes) < frames {
		for _, i := range rng.Perm(cycle) {
			sizes = append(sizes, int(math.Round(lo*math.Pow(hi/lo, float64(i)/(cycle-1)))))
		}
	}
	sizes = sizes[:frames]
	go func() {
		for i, n := range sizes {
			if _, err := peer.Write(testFrame(i, n)); err != nil {
				return
			}
		}
	}()
	replaced := 0
	buf := &conn.rb.buf[0]
	for i, n := range sizes {
		_, release := recvFrame(t, conn, i, n)
		release()
		if now := &conn.rb.buf[0]; now != buf {
			replaced++
			buf = now
		}
	}
	t.Logf("the receive buffer was replaced %d times over %d ladder frames", replaced, frames)
	if replaced > 8 {
		t.Errorf("the receive buffer was replaced %d times over %d ladder frames, want at most 8", replaced, frames)
	}
	if got, most := len(conn.rb.buf), pageRound(4+hi); got != most {
		t.Errorf("the buffer ends at %d bytes, want the largest frame, page-rounded (%d)", got, most)
	}
}

// TestTCPRecvBufferShrinksBack: the buffer gives a large frame's memory back
// bufpool.ShrinkAfter frames later — to the largest frame since when those still need
// more than readBufSize, to readBufSize when they do not — and a frame over
// half of it in between restarts the count.
func TestTCPRecvBufferShrinksBack(t *testing.T) {
	conn, peer := pipePair()
	defer conn.Close()
	defer peer.Close()
	tag := 0
	send := func(n, times int) {
		t.Helper()
		for i := 0; i < times; i++ {
			tag++
			go peer.Write(testFrame(tag, n))
			_, release := recvFrame(t, conn, tag, n)
			release()
		}
	}
	const mid = 100 << 10
	send(1<<20, 1)
	if got := len(conn.rb.buf); got != pageRound(4+1<<20) {
		t.Fatalf("after a 1 MB frame the buffer is %d bytes, want %d", got, pageRound(4+1<<20))
	}
	send(mid, bufpool.ShrinkAfter-1)
	send(600<<10, 1) // over half: the buffer is in use at this size
	send(mid, bufpool.ShrinkAfter-1)
	if got := len(conn.rb.buf); got != pageRound(4+1<<20) {
		t.Fatalf("the buffer shrank to %d bytes with a 600 KB frame %d frames back", got, bufpool.ShrinkAfter-1)
	}
	send(mid, 1)
	if got := len(conn.rb.buf); got != pageRound(4+mid) {
		t.Fatalf("after %d frames of 100 KB the buffer is %d bytes, want %d", bufpool.ShrinkAfter, got, pageRound(4+mid))
	}
	send(readBufSize-4, bufpool.ShrinkAfter) // the largest frame readBufSize holds
	if got := len(conn.rb.buf); got != readBufSize {
		t.Fatalf("after %d small frames the buffer is %d bytes, want readBufSize", bufpool.ShrinkAfter, got)
	}
}

// TestTCPRecvManyConnectionsRetainReadBufSize: 1000 accepted connections that
// each saw one 1 MB frame and then bufpool.ShrinkAfter small ones hold readBufSize
// apiece, not a megabyte.
func TestTCPRecvManyConnectionsRetainReadBufSize(t *testing.T) {
	const conns = 1000
	large, small := testFrame(1, 1<<20), testFrame(2, 64)
	var stream []byte
	for i := 0; i < bufpool.ShrinkAfter; i++ {
		stream = append(stream, small...)
	}
	held := make([]*tcpConn, 0, conns)
	for i := 0; i < conns; i++ {
		conn, peer := pipePair()
		defer conn.Close()
		defer peer.Close()
		go func() {
			peer.Write(large)
			peer.Write(stream)
		}()
		for j := 0; j <= bufpool.ShrinkAfter; j++ {
			_, release, err := conn.Recv(nil)
			if err != nil {
				t.Fatal(err)
			}
			release()
		}
		held = append(held, conn)
	}
	retained := 0
	for _, conn := range held {
		retained += cap(conn.rb.buf)
	}
	if retained > conns*readBufSize {
		t.Errorf("%d connections retain %d bytes of receive buffer, want at most %d each", conns, retained/conns, readBufSize)
	}
}

// TestTCPRecvStepBoundary: a frame of exactly recvStep is still a view of the
// connection's buffer; one byte more takes the stepped allocation, which the
// connection does not keep.
func TestTCPRecvStepBoundary(t *testing.T) {
	conn, peer := tcpPair(t)
	go func() {
		peer.Write(testFrame(1, recvStep))
		peer.Write(testFrame(2, recvStep+1))
		peer.Write(testFrame(3, 10))
	}()
	within := func(data []byte) bool {
		return &data[0] == &conn.rb.buf[4] // the buffer was just resized, so the frame starts it
	}
	data, release := recvFrame(t, conn, 1, recvStep)
	if !within(data) {
		t.Error("a frame of recvStep bytes is not a view of the receive buffer")
	}
	release()
	size := len(conn.rb.buf)
	if size != pageRound(4+recvStep) {
		t.Errorf("the buffer is %d bytes after a recvStep frame, want %d", size, pageRound(4+recvStep))
	}
	data, release = recvFrame(t, conn, 2, recvStep+1)
	if within(data) || len(conn.rb.buf) != size {
		t.Error("a frame over recvStep was received into, or resized, the connection's buffer")
	}
	release()
	_, release = recvFrame(t, conn, 3, 10)
	release()
}

// TestTCPRecvTruncatedBodyLeavesBufferUnlent: a peer that hangs up half-way
// through a 512 KB body fails the Recv; the buffer was grown for the frame
// but no view of it went out, so it must not be marked lent.
func TestTCPRecvTruncatedBodyLeavesBufferUnlent(t *testing.T) {
	conn, peer := tcpPair(t)
	go func() {
		peer.Write(testFrame(1, 512<<10)[:256<<10])
		peer.Close()
	}()
	if _, _, err := conn.Recv(nil); err == nil {
		t.Fatal("Recv of a truncated frame returned no error")
	}
	if conn.rb.lent.Load() {
		t.Fatal("a failed Recv left the receive buffer marked lent")
	}
}

// fuzzSizes are the frame sizes FuzzTCPRecvFraming picks from, each moved by
// -2..+2: empty, the largest frame readBufSize holds and the first it does
// not, page-rounding edges of the grown buffer, and both sides of recvStep.
var fuzzSizes = []int{0, 2, 300, readBufSize - 4, 2*readBufSize - 4, 64<<10 - 4, 64 << 10, 300 << 10, 1 << 20, recvStep, recvStep + 3}

// FuzzTCPRecvFraming drives Recv over a pipe. Every four script bytes are one
// frame: which size, its offset from that size, where around the frame's
// start the writer cuts the stream (from four bytes before the prefix to four
// after it, so prefixes arrive split and glued to the previous body) and
// whether the view is held to the end or released at once, and a second cut
// somewhere in the body. Every frame must come back byte-identical and in
// order, and no held view may change while later frames arrive.
func FuzzTCPRecvFraming(f *testing.F) {
	f.Add([]byte{3, 1, 0, 0, 3, 2, 4, 9, 3, 3, 8, 200})                         // 8187, 8188, 8189 bytes: around what fits
	f.Add([]byte{6, 2, 16 + 2, 50, 1, 2, 6, 0, 8, 2, 16 + 3, 128, 2, 2, 16, 1}) // growth under held views
	f.Add([]byte{9, 2, 5, 77, 10, 0, 3, 255, 0, 2, 0, 0, 9, 0, 16 + 7, 3})      // recvStep, recvStep+1, empty, recvStep-2 held
	f.Add([]byte{8, 2, 0, 0, 7, 2, 1, 1, 4, 2, 2, 2, 0, 2, 3, 3, 5, 4, 16, 4})  // shrinking sizes
	f.Add([]byte{1, 2, 16, 0, 1, 2, 16, 0, 6, 2, 16, 0, 1, 2, 16, 0})           // everything held
	f.Fuzz(func(t *testing.T, script []byte) {
		const budget = 12 << 20 // bytes per execution, so a script of recvStep frames stays quick
		type frame struct {
			at, size int
			hold     bool
		}
		var frames []frame
		var stream []byte
		cuts := []int{}
		for ; len(script) >= 4; script = script[4:] {
			size := max(0, fuzzSizes[int(script[0])%len(fuzzSizes)]+int(script[1])%5-2)
			if len(stream)+4+size > budget {
				break
			}
			at := len(stream)
			frames = append(frames, frame{at, size, script[2]&16 != 0})
			stream = append(stream, testFrame(len(frames), size)...)
			cuts = append(cuts, at+int(script[2])%9-4, at+4+size*int(script[3])/256)
		}
		sort.Ints(cuts)

		conn, peer := pipePair()
		written := make(chan struct{})
		go func() {
			defer close(written)
			from := 0
			for _, to := range append(cuts, len(stream)) {
				if to = min(to, len(stream)); to > from {
					if _, err := peer.Write(stream[from:to]); err != nil {
						return
					}
					from = to
				}
			}
		}()
		defer func() {
			conn.Close()
			peer.Close()
			<-written
		}()

		type heldView struct {
			frame   int
			data    []byte
			release func()
		}
		var held []heldView
		for i, fr := range frames {
			data, release, err := conn.Recv(nil)
			if err != nil {
				t.Fatalf("Recv of frame %d (%d bytes): %v", i, fr.size, err)
			}
			if !bytes.Equal(data, stream[fr.at+4:fr.at+4+fr.size]) {
				t.Fatalf("frame %d (%d bytes) arrived damaged (%d bytes)", i, fr.size, len(data))
			}
			if fr.hold {
				held = append(held, heldView{i, data, release})
			} else {
				release()
			}
		}
		for _, h := range held {
			fr := frames[h.frame]
			if !bytes.Equal(h.data, stream[fr.at+4:fr.at+4+fr.size]) {
				t.Fatalf("the held view of frame %d (%d bytes) changed while later frames arrived", h.frame, fr.size)
			}
			h.release()
		}
	})
}

// BenchmarkTCPFrame is one frame echoed over loopback: the far end holds the
// view for its Send and releases it, as the engine does.
func BenchmarkTCPFrame(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
	}{{"1KB", 1 << 10}, {"64KB", 64 << 10}, {"256KB", 256 << 10}, {"1MB", 1 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			srv, raw := tcpPair(b)
			cli := newTCPConn(raw)
			go func() {
				for {
					data, release, err := srv.Recv(nil)
					if err != nil {
						return
					}
					err = srv.Send(nil, data)
					release()
					if err != nil {
						return
					}
				}
			}()
			payload := make([]byte, bc.size)
			b.SetBytes(int64(bc.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cli.Send(nil, payload); err != nil {
					b.Fatal(err)
				}
				_, release, err := cli.Recv(nil)
				if err != nil {
					b.Fatal(err)
				}
				release()
			}
		})
	}
}

// TestPoisonFillsReleasedView: in a `poison` build a released view reads
// PoisonByte, so a test that looks at one after its release fails there
// instead of passing on whatever arrived next. Skipped in normal builds,
// which compile the fill away.
func TestPoisonFillsReleasedView(t *testing.T) {
	if !bufpool.Poison {
		t.Skip("not a poison build")
	}
	conn, peer := tcpPair(t)
	go peer.Write(append(testFrame(1, 64<<10), testFrame(2, 100)...))
	for _, fr := range [][2]int{{1, 64 << 10}, {2, 100}} {
		data, release := recvFrame(t, conn, fr[0], fr[1])
		release()
		if want := bytes.Repeat([]byte{bufpool.PoisonByte}, fr[1]); !bytes.Equal(data, want) {
			t.Fatalf("the released view of frame %d is not poisoned", fr[0])
		}
	}
}
