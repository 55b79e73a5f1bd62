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
	// Past recvStep the receive buffer grows as the body arrives; a length
	// that is not a multiple of the step exercises the short last step.
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
