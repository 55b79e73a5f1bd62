package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rpcoib/internal/cluster"
	"rpcoib/internal/exec"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// moreLog is a conn that records, per pooled send, which conn sent and the
// more hint it was given, and releases the message as a transport would.
type moreLog struct {
	transport.Conn // nil: only SendPooled is used
	name           string
	log            *[]string
}

func (c *moreLog) SendPooled(_ exec.Env, m transport.Pooled, more bool) error {
	*c.log = append(*c.log, fmt.Sprintf("%s more=%v", c.name, more))
	m.Release()
	return nil
}

// TestSimResponderMoreHint: four responses are queued for conns A, A, A, B
// before the Responder runs. Each send says more exactly when the next
// response goes to the same conn: true, true, false, false. Every response
// buffer goes back to the pool.
func TestSimResponderMoreHint(t *testing.T) {
	cl := cluster.New(cluster.ClusterB())
	var log []string
	a, b := &moreLog{name: "A", log: &log}, &moreLog{name: "B", log: &log}
	s := NewServer(nil, Options{Mode: ModeRPCoIB, Costs: cl.Costs})
	cl.SpawnOn(0, "responder", func(e exec.Env) {
		s.respQ = e.NewQueue(0)
		for _, conn := range []transport.Conn{a, a, a, b} {
			call := s.newCall()
			call.md, call.conn = s.unknown, conn
			call.stream.Reset(s.opts.Pool, call.md.respKey)
			call.stream.Write([]byte("response"))
			s.respQ.Put(e, call)
		}
		s.respQ.Close()
		s.responderLoop(e)
	})
	cl.Run()
	want := []string{"A more=true", "A more=true", "A more=false", "B more=false"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("sends %v, want %v", log, want)
	}
	if out := s.opts.Pool.Native().Outstanding(); out != 0 {
		t.Fatalf("%d response buffers still out", out)
	}
}

// moreNet is loopback TCP whose accepted conns count the pooled sends made
// with more set, forwarding every send to the TCP conn beneath.
type moreNet struct {
	transport.Network
	held atomic.Int64
}

func (n *moreNet) Listen(e exec.Env, port int) (transport.Listener, error) {
	l, err := n.Network.Listen(e, port)
	if err != nil {
		return nil, err
	}
	return moreListener{l, n}, nil
}

type moreListener struct {
	transport.Listener
	n *moreNet
}

func (l moreListener) Accept(e exec.Env) (transport.Conn, error) {
	c, err := l.Listener.Accept(e)
	if err != nil {
		return nil, err
	}
	return moreConn{c, l.n}, nil
}

type moreConn struct {
	transport.Conn
	n *moreNet
}

func (c moreConn) SendPooled(e exec.Env, m transport.Pooled, more bool) error {
	if more {
		c.n.held.Add(1)
	}
	return transport.SendPooled(e, c.Conn, m, more)
}

// TestRealConcurrentCallersOneConnection: 16 callers share one client
// connection to an RPCoIB server, so the Responder finds runs of responses
// for it and writes them together. Every reply matches its request, and
// after Stop and Close no goroutine of either end is left.
func TestRealConcurrentCallersOneConnection(t *testing.T) {
	base := runtime.NumGoroutine()
	env := exec.NewRealEnv(1)
	nw := &moreNet{Network: transport.NewTCPNetwork("")}
	srv := NewServer(nw, Options{Mode: ModeRPCoIB})
	srv.Register("test.Echo", "echo",
		func() wire.Writable { return &wire.BytesWritable{} },
		func(e exec.Env, param wire.Writable) (wire.Writable, error) { return param, nil })
	if err := srv.Start(env, 0); err != nil {
		t.Fatal(err)
	}
	client := NewClient(nw, Options{Mode: ModeRPCoIB})

	const callers, calls = 16, 300
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var reply wire.BytesWritable
			for i := 0; i < calls; i++ {
				n := 1 + (g*calls+i)*37%(4<<10)
				req := &wire.BytesWritable{Value: bytes.Repeat([]byte{byte(g), byte(i)}, n)[:n]}
				if err := client.Call(env, srv.Addr(), "test.Echo", "echo", req, &reply); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(reply.Value, req.Value) {
					errs <- fmt.Errorf("caller %d, call %d: %d-byte echo came back as %d bytes, or damaged", g, i, n, len(reply.Value))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := OpenConnections(client); n != 1 {
		t.Errorf("%d client connections, want 1", n)
	}
	t.Logf("%d of %d responses were sent with more", nw.held.Load(), callers*calls)
	srv.Stop()
	client.Close()
	settleGoroutines(t, base)
}
