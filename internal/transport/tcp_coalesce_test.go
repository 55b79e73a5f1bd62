package transport

import (
	"bytes"
	"net"
	"slices"
	"sync/atomic"
	"testing"

	"rpcoib/internal/bufpool"
)

// writeCounter is a net.Conn that counts the Writes made on it.
type writeCounter struct {
	net.Conn
	writes atomic.Int32
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestTCPSendCoalescedOneWrite: small frames sent with more set, then one
// without, reach the peer's Recv intact and in order, with one Write on the
// socket for all of them; each message is released once.
func TestTCPSendCoalescedOneWrite(t *testing.T) {
	a, b := net.Pipe()
	raw := &writeCounter{Conn: a}
	conn, peer := newTCPConn(raw), newTCPConn(b)
	defer conn.Close()
	defer peer.Close()
	sizes := []int{0, 1, 100, readBufSize/2 - 4}
	msgs := make([]*countingMsg, len(sizes))
	for i, n := range sizes {
		msgs[i] = newCountingMsg(testBody(i, n))
	}
	sent := make(chan error, 1)
	go func() {
		for i, m := range msgs {
			if err := conn.SendPooled(nil, m, i < len(msgs)-1); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for i, n := range sizes {
		_, release := recvFrame(t, peer, i, n)
		release()
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if w := raw.writes.Load(); w != 1 {
		t.Fatalf("%d frames took %d writes, want 1", len(sizes), w)
	}
	for i, m := range msgs {
		if m.n.Load() != 1 {
			t.Fatalf("frame %d released %d times", i, m.n.Load())
		}
	}
}

// TestTCPSendCoalescedFramesFillOneRead: held-back frames go out before the
// one that would take them past readBufSize, so no write is larger than what
// the peer reads at once; a frame without more ends the run.
func TestTCPSendCoalescedFramesFillOneRead(t *testing.T) {
	const n = readBufSize/3 - 4 // three frames fill a read exactly
	last := newCountingMsg(testBody(9, 10))
	raw := &writeLog{rel: last}
	conn := newTCPConn(raw)
	var want []byte
	for i := 0; i < 4; i++ {
		if err := conn.SendPooled(nil, newCountingMsg(testBody(i, n)), true); err != nil {
			t.Fatal(err)
		}
		want = append(want, testFrame(i, n)...)
	}
	if err := conn.SendPooled(nil, last, false); err != nil {
		t.Fatal(err)
	}
	want = append(want, testFrame(9, 10)...)
	if wantWrites := []int{3 * (4 + n), 4 + n + 14}; !slices.Equal(raw.writes, wantWrites) {
		t.Fatalf("writes %v, want %v", raw.writes, wantWrites)
	}
	if !bytes.Equal(raw.wrote.Bytes(), want) {
		t.Fatal("the frames went out damaged or out of order")
	}
}

// TestTCPSendLargeFrameFlushesHeld: a large frame behind held-back small
// ones writes them first, then takes its own split path, released before its
// tail as when nothing is held.
func TestTCPSendLargeFrameFlushesHeld(t *testing.T) {
	const large = 64 << 10
	big := newCountingMsg(testBody(3, large))
	raw := &writeLog{rel: big}
	conn := newTCPConn(raw)
	for i, n := range []int{10, 20} {
		if err := conn.SendPooled(nil, newCountingMsg(testBody(i, n)), true); err != nil {
			t.Fatal(err)
		}
	}
	if len(raw.writes) != 0 {
		t.Fatalf("frames sent with more went out at once: writes %v", raw.writes)
	}
	if err := conn.SendPooled(nil, big, false); err != nil {
		t.Fatal(err)
	}
	want := []int{4 + 10 + 4 + 20, 4, large - sendTail, sendTail}
	if !slices.Equal(raw.writes, want) || !slices.Equal(raw.after, []int{sendTail}) {
		t.Fatalf("writes %v (%v after the release), want %v ([%d])", raw.writes, raw.after, want, sendTail)
	}
	stream := slices.Concat(testFrame(0, 10), testFrame(1, 20), testFrame(3, large))
	if !bytes.Equal(raw.wrote.Bytes(), stream) {
		t.Fatal("the frames went out damaged or out of order")
	}
}

// TestTCPSendCoalescedFailureReleasesOnce: whichever write of a run fails —
// the one for the frame without more, the one that makes room, the one ahead
// of a large frame or the large frame's own — every message is released
// exactly once, the failing send returns the error, and the connection is
// closed.
func TestTCPSendCoalescedFailureReleasesOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sizes  []int
		more   []bool
		failAt int
	}{
		{"the run's write", []int{100, 200, 300}, []bool{true, true, false}, 1},
		{"the write that makes room", []int{5000, 5000}, []bool{true, true}, 1},
		{"the write ahead of a large frame", []int{100, 256 << 10}, []bool{true, false}, 1},
		{"the large frame after the run", []int{100, 256 << 10}, []bool{true, false}, 2},
	} {
		raw := &failingConn{failAt: tc.failAt}
		conn := newTCPConn(raw)
		var msgs []*countingMsg
		for i, n := range tc.sizes {
			m := newCountingMsg(testBody(i, n))
			msgs = append(msgs, m)
			err := conn.SendPooled(nil, m, tc.more[i])
			if last := i == len(tc.sizes)-1; last != (err != nil) {
				t.Fatalf("%s: send %d of %d returned %v", tc.name, i+1, len(tc.sizes), err)
			}
		}
		for i, m := range msgs {
			if m.n.Load() != 1 {
				t.Fatalf("%s: message %d released %d times", tc.name, i, m.n.Load())
			}
		}
		if !raw.closed {
			t.Fatalf("%s: a failed write left the connection open", tc.name)
		}
	}
}

// TestTCPSendHeldCopySurvivesPoison: a held-back frame is a copy, so the
// pooled buffer it came from may be released, poisoned (in a `poison` build)
// and handed to the next message before the frame goes out, and the peer
// still receives what was sent.
func TestTCPSendHeldCopySurvivesPoison(t *testing.T) {
	pool := bufpool.NewShadowPool(bufpool.NewNativePool(0), bufpool.PolicyHistory)
	conn, peer := pipePair()
	defer conn.Close()
	defer peer.Close()
	sizes := []int{300, 300, 300}
	sent := make(chan error, 1)
	for i, n := range sizes {
		r := &shadowMsg{pool: pool, buf: pool.Native().Get(n), n: n}
		copy(r.buf.Data, testBody(i, n))
		if i == len(sizes)-1 {
			go func() { sent <- conn.SendPooled(nil, r, false) }()
			break
		}
		if err := conn.SendPooled(nil, r, true); err != nil {
			t.Fatal(err)
		}
		if bufpool.Poison && r.buf.Data[0] != bufpool.PoisonByte {
			t.Fatalf("frame %d is held back and its pool buffer was not released and poisoned", i)
		}
	}
	rc := newTCPConn(peer)
	for i, n := range sizes {
		_, release := recvFrame(t, rc, i, n)
		release()
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if pool.Native().Outstanding() != 0 {
		t.Fatal("a pool buffer was not released")
	}
}

// FuzzTCPSendCoalesced sends a script of frames from 1 B to three times
// readBufSize, each with or without more (the last always without), over a
// pipe: the peer must receive exactly those frames, in order, and every
// message must be released once.
func FuzzTCPSendCoalesced(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 1, 0, 3, 0})                    // tiny frames, one run
	f.Add([]byte{31, 252, 1, 32, 0, 1, 31, 250, 1, 0, 9, 0})    // around readBufSize
	f.Add([]byte{3, 0, 1, 64, 0, 1, 3, 0, 1, 95, 255, 0})       // a large frame inside a run
	f.Add([]byte{10, 0, 1, 10, 0, 1, 10, 0, 1, 10, 0, 1, 1, 0}) // runs that overflow a read
	f.Fuzz(func(t *testing.T, script []byte) {
		type frame struct {
			size int
			more bool
		}
		var frames []frame
		for ; len(script) >= 3 && len(frames) < 64; script = script[3:] {
			size := 1 + (int(script[0])<<8|int(script[1]))%(3*readBufSize)
			frames = append(frames, frame{size, script[2]&1 != 0})
		}
		if len(frames) == 0 {
			return
		}
		frames[len(frames)-1].more = false

		conn, peer := pipePair()
		defer conn.Close()
		defer peer.Close()
		msgs := make([]*countingMsg, len(frames))
		for i, fr := range frames {
			msgs[i] = newCountingMsg(testBody(i, fr.size))
		}
		sent := make(chan error, 1)
		go func() {
			for i, fr := range frames {
				if err := conn.SendPooled(nil, msgs[i], fr.more); err != nil {
					sent <- err
					return
				}
			}
			sent <- nil
		}()
		rc := newTCPConn(peer)
		for i, fr := range frames {
			_, release := recvFrame(t, rc, i, fr.size)
			release()
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		for i, m := range msgs {
			if m.n.Load() != 1 {
				t.Fatalf("frame %d (%d bytes) released %d times", i, frames[i].size, m.n.Load())
			}
		}
	})
}
