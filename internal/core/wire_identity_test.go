package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"sync"
	"testing"
	"time"

	"rpcoib/internal/exec"
	"rpcoib/internal/tracing"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// tapNet hashes every frame each side sends, length prefix included: the two
// digests are the connection's two TCP byte streams.
type tapNet struct {
	transport.Network
	mu       sync.Mutex
	toServer hash.Hash
	toClient hash.Hash
}

func newTapNet() *tapNet {
	return &tapNet{Network: transport.NewTCPNetwork(""), toServer: sha256.New(), toClient: sha256.New()}
}

func (n *tapNet) Listen(e exec.Env, port int) (transport.Listener, error) {
	l, err := n.Network.Listen(e, port)
	if err != nil {
		return nil, err
	}
	return tapListener{l, n}, nil
}

func (n *tapNet) Dial(e exec.Env, addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(e, addr)
	if err != nil {
		return nil, err
	}
	return tapConn{c, n, n.toServer}, nil
}

type tapListener struct {
	transport.Listener
	n *tapNet
}

func (l tapListener) Accept(e exec.Env) (transport.Conn, error) {
	c, err := l.Listener.Accept(e)
	if err != nil {
		return nil, err
	}
	return tapConn{c, l.n, l.n.toClient}, nil
}

type tapConn struct {
	transport.Conn
	n *tapNet
	h hash.Hash
}

func (c tapConn) Send(e exec.Env, data []byte) error {
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(len(data)))
	c.n.mu.Lock()
	c.h.Write(prefix[:])
	c.h.Write(data)
	c.n.mu.Unlock()
	return c.Conn.Send(e, data)
}

func (n *tapNet) sums() (toServer, toClient string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return hex.EncodeToString(n.toServer.Sum(nil)), hex.EncodeToString(n.toClient.Sum(nil))
}

// fixedClock is a caller Env whose clock stands still, so the absolute
// deadline a call carries on the wire does not depend on the wall clock.
type fixedClock struct{ exec.Env }

func (fixedClock) Now() time.Duration { return time.Second }

// TestWireIdentity replays a fixed 256-call script — the four small echo
// sizes in rotation, the first call traced, one call under a deadline, one to
// a method nobody serves — from one caller over loopback TCP, and compares
// the SHA-256 of each direction's byte stream with the digests recorded
// before the small-call path was rebuilt. How a frame is written (one syscall
// or two, copied or borrowed) must not change a byte of it.
func TestWireIdentity(t *testing.T) {
	want := map[Mode][2]string{
		ModeBaseline: {
			"7f645b102e60b6e43fe8f569005c9724d0d44b99ae0c8137dce7f89672ceaf17",
			"056d768322ecdc63900635d50516e07d152a13e1e0e300b2346a77c32091b876",
		},
		ModeRPCoIB: {
			"5e8b656aa1eec984f38d9eda48ceb82cc4342edc79dcf05db1e309686c1be289",
			"f36fa488b4a341d6eb10d43445ff8a13cf5ed4b59dbb61d687aea0d1c404257f",
		},
	}
	testModes(t, func(t *testing.T, opts Options) {
		nw := newTapNet()
		// 1 in 1024 keeps the first root only: exactly one traced call.
		opts.Trace = tracing.New(7, tracing.NewSink(io.Discard, tracing.SinkOptions{}),
			tracing.Sampler{Mode: tracing.SampleEveryN, N: 1024})
		srv := NewServer(nw, opts)
		srv.Register("test.EchoProtocol", "echo",
			func() wire.Writable { return &wire.BytesWritable{} },
			func(_ exec.Env, p wire.Writable) (wire.Writable, error) { return p, nil })
		if err := srv.Start(exec.NewRealEnv(1), 0); err != nil {
			t.Fatal(err)
		}
		defer srv.Stop()
		client := NewClient(nw, opts)
		defer client.Close()

		env := fixedClock{exec.NewRealEnv(2)}
		sizes := []int{1, 64, 512, 4096}
		body := make([]byte, 4096)
		for i := range body {
			body[i] = byte(i * 131)
		}
		var reply wire.BytesWritable
		for i := 0; i < 256; i++ {
			param := &wire.BytesWritable{Value: body[:sizes[i%len(sizes)]]}
			var err error
			switch i {
			case 100:
				err = client.CallWith(env, CallPolicy{Deadline: time.Hour}, srv.Addr(), "test.EchoProtocol", "echo", param, &reply)
			case 200:
				err = client.Call(env, srv.Addr(), "test.EchoProtocol", "missing", param, &reply)
				if _, remote := err.(*RemoteError); !remote {
					t.Fatalf("call %d to an unserved method: err = %v, want a RemoteError", i, err)
				}
				continue
			default:
				err = client.Call(env, srv.Addr(), "test.EchoProtocol", "echo", param, &reply)
			}
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			if len(reply.Value) != len(param.Value) {
				t.Fatalf("call %d: echoed %d bytes of %d", i, len(reply.Value), len(param.Value))
			}
		}
		toServer, toClient := nw.sums()
		if w := want[opts.Mode]; toServer != w[0] || toClient != w[1] {
			t.Errorf("byte streams differ from the recorded ones:\n to server %s (recorded %s)\n to client %s (recorded %s)",
				toServer, w[0], toClient, w[1])
		}
	})
}
