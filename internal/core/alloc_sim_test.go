package core_test

import (
	"runtime"
	"testing"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// simAllocsPerCall is the process-wide allocation count per warmed simulated
// 512 B echo, param and reply reused: everything the engine, the simulated
// wire and the kernel under them do for one call.
func simAllocsPerCall(t *testing.T, mode core.Mode, kind perfmodel.LinkKind) float64 {
	t.Helper()
	cl := cluster.New(cluster.ClusterB())
	opts := core.Options{Mode: mode, Costs: cl.Costs}
	netFor := func(node int) transport.Network {
		if mode == core.ModeRPCoIB {
			return cl.RPCoIBNet(node)
		}
		return cl.SocketNet(kind, node)
	}
	var srv *core.Server
	cl.SpawnOn(0, "server", func(e exec.Env) {
		srv = core.NewServer(netFor(0), opts)
		srv.Register("test.EchoProtocol", "echo",
			func() wire.Writable { return &wire.BytesWritable{} },
			func(e exec.Env, p wire.Writable) (wire.Writable, error) { return p, nil })
		if err := srv.Start(e, 9000); err != nil {
			t.Error(err)
		}
	})
	calls, stop := 0, false
	cl.SpawnOn(1, "client", func(e exec.Env) {
		e.Sleep(time.Millisecond)
		client := core.NewClient(netFor(1), opts)
		defer client.Close()
		param := &wire.BytesWritable{Value: make([]byte, 512)}
		var reply wire.BytesWritable
		for !stop {
			if err := client.Call(e, "node0:9000", "test.EchoProtocol", "echo", param, &reply); err != nil {
				t.Error(err)
				return
			}
			calls++
		}
	})
	// Connect, resolve the kind, settle pool history and let the kernel's
	// heaps, rings and record free lists reach their working size.
	cl.RunUntil(50 * time.Millisecond)
	warm := calls
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cl.RunUntil(250 * time.Millisecond)
	runtime.ReadMemStats(&after)
	n := calls - warm
	stop = true
	cl.RunUntil(260 * time.Millisecond)
	srv.Stop()
	cl.RunUntil(270 * time.Millisecond)
	if live := cl.Sim.Live(); live != 0 {
		t.Errorf("%d simulated processes alive after shutdown", live)
	}
	if n < 1000 {
		t.Fatalf("only %d calls in the measured window", n)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestSimCallAllocBudget pins what one simulated call allocates, so that the
// kernel and the simulated wire cannot creep back to the 100-odd allocations
// per call they cost before ISSUE 22. What is left is the engine's and the
// Writables' own — the same count TestRealCallAllocBudget pins for a real
// call — plus, on the socket transports, the copy each of the call's two
// frames takes into the simulated socket; the kernel, netsim and ibverbs
// add none.
func TestSimCallAllocBudget(t *testing.T) {
	rpcoib := simAllocsPerCall(t, core.ModeRPCoIB, perfmodel.NativeIB)
	ipoib := simAllocsPerCall(t, core.ModeBaseline, perfmodel.IPoIB)
	tenGig := simAllocsPerCall(t, core.ModeBaseline, perfmodel.TenGigE)
	t.Logf("allocations per simulated call: RPCoIB %.2f, IPoIB %.2f, 10GigE %.2f", rpcoib, ipoib, tenGig)
	if rpcoib > 6 {
		t.Errorf("RPCoIB simulated call allocates %.2f times, budget 6 (a real call's; ISSUE 22 allowed 30)", rpcoib)
	}
	for name, got := range map[string]float64{"IPoIB": ipoib, "10GigE": tenGig} {
		if got < 12.5 || got > 13.5 {
			t.Errorf("%s baseline simulated call allocates %.2f times, want the 11 of a real baseline call plus the two socket copies", name, got)
		}
	}
}
