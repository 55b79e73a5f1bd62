package core

import (
	"bytes"
	"testing"
	"time"

	"rpcoib/internal/bufpool"
	"rpcoib/internal/exec"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// TestRealRPCoIBThroughConnOnlyDecorator: RPCoIB echo calls over TCP conns
// wrapped in tapConn, which embeds only transport.Conn as a tracing decorator
// does, so every pooled send takes transport.SendPooled's fallback, come back
// intact from 1 B to 1 MB, and every pooled buffer either end took goes back
// to its pool.
func TestRealRPCoIBThroughConnOnlyDecorator(t *testing.T) {
	env := exec.NewRealEnv(1)
	spool := bufpool.NewShadowPool(bufpool.NewNativePool(0), bufpool.PolicyHistory)
	cpool := bufpool.NewShadowPool(bufpool.NewNativePool(0), bufpool.PolicyHistory)
	nw := newTapNet()
	if _, ok := transport.Conn(tapConn{}).(transport.PooledSender); ok {
		t.Fatal("tapConn must not be a PooledSender")
	}
	srv := NewServer(nw, Options{Mode: ModeRPCoIB, Pool: spool})
	srv.Register("test.Echo", "echo",
		func() wire.Writable { return &wire.BytesWritable{} },
		func(e exec.Env, param wire.Writable) (wire.Writable, error) { return param, nil })
	if err := srv.Start(env, 0); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	client := NewClient(nw, Options{Mode: ModeRPCoIB, Pool: cpool})
	defer client.Close()

	var reply wire.BytesWritable
	for i, n := range []int{1, 100, 8 << 10, 64 << 10, 1 << 20} {
		req := &wire.BytesWritable{Value: bytes.Repeat([]byte{byte(i + 1)}, n)}
		if err := client.Call(env, srv.Addr(), "test.Echo", "echo", req, &reply); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reply.Value, req.Value) {
			t.Fatalf("%d-byte echo came back as %d bytes, or damaged", n, len(reply.Value))
		}
	}
	// The server releases a reply's buffer once Send has returned, which
	// may be after the caller has read the reply.
	for _, p := range []struct {
		name string
		pool *bufpool.ShadowPool
	}{{"client", cpool}, {"server", spool}} {
		deadline := time.Now().Add(5 * time.Second)
		for p.pool.Native().Outstanding() != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if out := p.pool.Native().Outstanding(); out != 0 {
			t.Errorf("%s pool: %d buffers still out", p.name, out)
		}
	}
}
