package main

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"rpcoib/internal/exec"
	"rpcoib/internal/transport"
)

// tapNet copies every frame that crosses the wire, per direction, beneath
// whatever the rig stacks on top: it is the test's view of the bytes the
// engine sent.
type tapNet struct {
	transport.Network
	mu       sync.Mutex
	toServer [][]byte
	toClient [][]byte
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
	return tapConn{c, n, &n.toServer}, nil
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
	return tapConn{c, l.n, &l.n.toClient}, nil
}

type tapConn struct {
	transport.Conn
	n    *tapNet
	sent *[][]byte
}

func (c tapConn) Send(e exec.Env, data []byte) error {
	c.n.mu.Lock()
	*c.sent = append(*c.sent, append([]byte(nil), data...))
	c.n.mu.Unlock()
	return c.Conn.Send(e, data)
}

// scripted runs one caller through cycles of workload's seeded script, plain
// or through the decorators, and returns what crossed the wire and what the
// process allocated per call.
func scripted(t *testing.T, workload string, cycles int, rec *recorder) (tap *tapNet, w window) {
	t.Helper()
	tap = &tapNet{Network: transport.NewTCPNetwork("")}
	rig, err := newRealRig(realOpts{workload: workload, seed: 42, rec: rec, net: tap, callers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.warm(); err != nil { // connecting is not per-call work
		t.Fatal(err)
	}
	w = rig.run(cycles*cycleLen, 0)
	if w.failed != 0 || w.calls != int64(cycles*cycleLen) {
		t.Fatalf("%s: %d calls, %d failed: %v", workload, w.calls, w.failed, rig.failures.first)
	}
	if err := rig.close(); err != nil {
		t.Fatal(err)
	}
	return tap, w
}

// The decorators must be pass-through: the same seeded call script puts
// byte-identical frames on the wire with and without them, and once the heap
// objects the decorators themselves create are taken out, the process
// allocates the same per call. Then the traced run measures the engine and
// not the wrapper.
func TestDecoratorsPassThrough(t *testing.T) {
	for _, workload := range []string{wRealSmall, wRealLargePut, wRealLargeGet} {
		cycles := 8
		if workload != wRealSmall {
			cycles = 2
		}
		plainTap, plain := scripted(t, workload, cycles, nil)
		rec := newRecorder()
		tracedTap, traced := scripted(t, workload, cycles, rec)

		for _, dir := range []struct {
			name string
			a, b [][]byte
		}{{"client to server", plainTap.toServer, tracedTap.toServer}, {"server to client", plainTap.toClient, tracedTap.toClient}} {
			if len(dir.a) != len(dir.b) || len(dir.a) < int(plain.calls) {
				t.Fatalf("%s, %s: %d frames plain, %d traced, %d calls", workload, dir.name, len(dir.a), len(dir.b), plain.calls)
			}
			for i := range dir.a {
				if !bytes.Equal(dir.a[i], dir.b[i]) {
					t.Fatalf("%s, %s: frame %d differs under the decorators", workload, dir.name, i)
				}
			}
		}

		own := float64(traced.layers.wrapAllocs) / float64(traced.calls)
		if own <= 0 {
			t.Errorf("%s: the decorators counted none of their own allocations", workload)
		}
		// The engine's own count moves by about half an allocation per call
		// with timing alone (a waiter arms a timer only if its reply has not
		// already arrived), so the attribution is held to one allocation.
		if engine := traced.allocs - own; math.Abs(engine-plain.allocs) > 1 {
			t.Errorf("%s: %.2f allocs/call plain, %.2f traced of which %.2f are the decorators' own: engine attribution moved by %.2f",
				workload, plain.allocs, traced.allocs, own, engine-plain.allocs)
		}
		if n := traced.layers.count[spCall]; n != traced.calls {
			t.Errorf("%s: %d call spans for %d calls", workload, n, traced.calls)
		}
	}
}
