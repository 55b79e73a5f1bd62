package cluster

import (
	"bytes"
	"testing"

	"rpcoib/internal/bufpool"
	"rpcoib/internal/exec"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/transport"
)

// recvFrames dials node 1 → node 0 over 10GigE, sends msgs in order and has
// the server side run recv on the accepted conn once they have arrived.
func recvFrames(t *testing.T, msgs [][]byte, recv func(e exec.Env, conn transport.Conn)) {
	t.Helper()
	c := New(Config{Nodes: 2, Seed: 1})
	c.SpawnOn(0, "server", func(e exec.Env) {
		ln, err := c.SocketNet(perfmodel.TenGigE, 0).Listen(e, 9000)
		if err != nil {
			t.Error(err)
			return
		}
		conn, err := ln.Accept(e)
		if err != nil {
			t.Error(err)
			return
		}
		e.Sleep(1e6) // every message has landed
		recv(e, conn)
	})
	c.SpawnOn(1, "client", func(e exec.Env) {
		conn, err := c.SocketNet(perfmodel.TenGigE, 1).Dial(e, "node0:9000")
		if err != nil {
			t.Error(err)
			return
		}
		for _, m := range msgs {
			if err := conn.Send(e, m); err != nil {
				t.Error(err)
			}
		}
	})
	c.Run()
}

func freeFrames(fp *framePool) (n int) {
	for _, l := range fp.free {
		n += len(l)
	}
	return n
}

// A release gives back exactly its own frame, and a Recv made while an
// earlier frame is still lent leaves that frame — and the view into it —
// to its holder: the old release frees nothing, not even the frame lent
// after it.
func TestSockConnReleaseFreesOnlyItsFrame(t *testing.T) {
	a, b, d := bytes.Repeat([]byte{'a'}, 100), bytes.Repeat([]byte{'b'}, 100), bytes.Repeat([]byte{'d'}, 100)
	recvFrames(t, [][]byte{a, b, d}, func(e exec.Env, conn transport.Conn) {
		sc := conn.(*sockConn)
		first, relFirst, err := conn.Recv(e)
		if err != nil {
			t.Fatal(err)
		}
		free0 := freeFrames(sc.frames)
		second, relSecond, err := conn.Recv(e) // first is still lent
		if err != nil {
			t.Fatal(err)
		}
		relFirst() // stale: first was abandoned by the Recv above
		if got := freeFrames(sc.frames); got != free0 {
			t.Fatalf("releasing an abandoned frame changed the free lists from %d to %d frames", free0, got)
		}
		if sc.lent == nil || !bytes.Equal(second, b) {
			t.Fatal("an earlier frame's release freed the frame lent after it")
		}
		relSecond()
		if got := freeFrames(sc.frames); got != free0+1 {
			t.Fatalf("release returned %d frames, want 1", got-free0)
		}
		third, relThird, err := conn.Recv(e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, a) {
			t.Fatalf("the abandoned frame was reused: %q", first[:8])
		}
		if !bytes.Equal(third, d) {
			t.Fatalf("third frame reads %q", third[:8])
		}
		relThird()
		relThird() // a second release of the same lend is a no-op
		if got := freeFrames(sc.frames); got != free0+2 {
			t.Fatalf("free lists hold %d frames after a double release, want %d", got, free0+2)
		}
	})
}

// In a poison build a frame read after its release shows PoisonByte.
func TestSockConnPoisonsReleasedFrame(t *testing.T) {
	if !bufpool.Poison {
		t.Skip("not a poison build")
	}
	recvFrames(t, [][]byte{[]byte("hello, frame")}, func(e exec.Env, conn transport.Conn) {
		data, release, err := conn.Recv(e)
		if err != nil {
			t.Fatal(err)
		}
		release()
		for i, b := range data {
			if b != bufpool.PoisonByte {
				t.Fatalf("byte %d of a released frame reads %#x, want %#x", i, b, bufpool.PoisonByte)
			}
		}
	})
}
