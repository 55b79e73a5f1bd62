package core_test

import (
	"fmt"
	"testing"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/metrics"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// pingPong runs the paper's micro-benchmark inside the simulator: a server
// on node 0, one client on node 1, BytesWritable payloads, and returns the
// average round-trip latency over iters warm calls.
func pingPong(t *testing.T, mode core.Mode, kind perfmodel.LinkKind, payload, iters int, reg *metrics.Registry) time.Duration {
	t.Helper()
	cl := cluster.New(cluster.ClusterB())
	serverOpts := core.Options{Mode: mode, Costs: cl.Costs, Metrics: reg}
	clientOpts := core.Options{Mode: mode, Costs: cl.Costs, Metrics: reg}

	netFor := func(node int) transport.Network {
		if mode == core.ModeRPCoIB {
			return cl.RPCoIBNet(node)
		}
		return cl.SocketNet(kind, node)
	}

	var avg time.Duration
	cl.SpawnOn(0, "server", func(e exec.Env) {
		srv := core.NewServer(netFor(0), serverOpts)
		srv.Register("bench.PingPongProtocol", "pingpong",
			func() wire.Writable { return &wire.BytesWritable{} },
			func(e exec.Env, p wire.Writable) (wire.Writable, error) { return p, nil })
		if err := srv.Start(e, 9000); err != nil {
			t.Error(err)
		}
	})
	cl.SpawnOn(1, "client", func(e exec.Env) {
		e.Sleep(time.Millisecond)
		client := core.NewClient(netFor(1), clientOpts)
		param := &wire.BytesWritable{Value: make([]byte, payload)}
		var reply wire.BytesWritable
		// Warm-up: connection setup and cold buffer-pool history.
		for i := 0; i < 3; i++ {
			if err := client.Call(e, "node0:9000", "bench.PingPongProtocol", "pingpong", param, &reply); err != nil {
				t.Error(err)
				return
			}
		}
		start := e.Now()
		for i := 0; i < iters; i++ {
			if err := client.Call(e, "node0:9000", "bench.PingPongProtocol", "pingpong", param, &reply); err != nil {
				t.Error(err)
				return
			}
		}
		avg = (e.Now() - start) / time.Duration(iters)
	})
	cl.RunUntil(10 * time.Second)
	if avg == 0 {
		t.Fatal("benchmark did not complete")
	}
	return avg
}

func TestSimEchoCorrectness(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeBaseline, core.ModeRPCoIB} {
		cl := cluster.New(cluster.ClusterB())
		opts := core.Options{Mode: mode, Costs: cl.Costs}
		netFor := func(node int) transport.Network {
			if mode == core.ModeRPCoIB {
				return cl.RPCoIBNet(node)
			}
			return cl.SocketNet(perfmodel.IPoIB, node)
		}
		var got string
		cl.SpawnOn(0, "server", func(e exec.Env) {
			srv := core.NewServer(netFor(0), opts)
			srv.Register("p", "concat",
				func() wire.Writable { return &wire.Text{} },
				func(e exec.Env, p wire.Writable) (wire.Writable, error) {
					return &wire.Text{Value: p.(*wire.Text).Value + "!"}, nil
				})
			if err := srv.Start(e, 9000); err != nil {
				t.Error(err)
			}
		})
		cl.SpawnOn(1, "client", func(e exec.Env) {
			e.Sleep(time.Millisecond)
			client := core.NewClient(netFor(1), opts)
			var reply wire.Text
			if err := client.Call(e, "node0:9000", "p", "concat", &wire.Text{Value: "hi"}, &reply); err != nil {
				t.Error(err)
				return
			}
			got = reply.Value
		})
		cl.RunUntil(5 * time.Second)
		if got != "hi!" {
			t.Fatalf("mode %v: got %q", mode, got)
		}
	}
}

// TestFig5aLatencyShape verifies the headline microbenchmark relationships:
// RPCoIB beats both socket baselines by roughly the paper's margins
// (42-49% vs 10GigE, 46-50% vs IPoIB across 1B-4KB), and 1GigE is far
// slower than everything.
func TestFig5aLatencyShape(t *testing.T) {
	const iters = 50
	for _, payload := range []int{1, 512, 4096} {
		rpcoib := pingPong(t, core.ModeRPCoIB, perfmodel.NativeIB, payload, iters, nil)
		ipoib := pingPong(t, core.ModeBaseline, perfmodel.IPoIB, payload, iters, nil)
		tenGig := pingPong(t, core.ModeBaseline, perfmodel.TenGigE, payload, iters, nil)
		oneGig := pingPong(t, core.ModeBaseline, perfmodel.OneGigE, payload, iters, nil)
		t.Logf("payload=%dB rpcoib=%v ipoib=%v 10gige=%v 1gige=%v (vs ipoib -%0.f%%, vs 10gige -%0.f%%)",
			payload, rpcoib, ipoib, tenGig, oneGig,
			100*(1-float64(rpcoib)/float64(ipoib)),
			100*(1-float64(rpcoib)/float64(tenGig)))
		redIPoIB := 1 - float64(rpcoib)/float64(ipoib)
		redTenGig := 1 - float64(rpcoib)/float64(tenGig)
		if redIPoIB < 0.40 || redIPoIB > 0.58 {
			t.Errorf("payload %dB: reduction vs IPoIB %.0f%%, want ~46-50%%", payload, redIPoIB*100)
		}
		if redTenGig < 0.36 || redTenGig > 0.55 {
			t.Errorf("payload %dB: reduction vs 10GigE %.0f%%, want ~42-49%%", payload, redTenGig*100)
		}
		if oneGig < ipoib {
			t.Errorf("1GigE (%v) should be slowest (IPoIB %v)", oneGig, ipoib)
		}
	}
}

// TestFig5aAbsoluteAnchors pins the two absolute numbers the paper reports:
// RPCoIB ~39us at 1 byte and ~52us at 4KB (tolerance +-20%).
func TestFig5aAbsoluteAnchors(t *testing.T) {
	check := func(payload int, want time.Duration) {
		got := pingPong(t, core.ModeRPCoIB, perfmodel.NativeIB, payload, 50, nil)
		lo, hi := want*80/100, want*120/100
		if got < lo || got > hi {
			t.Errorf("RPCoIB %dB latency %v outside [%v, %v] (paper: %v)", payload, got, lo, hi, want)
		} else {
			t.Logf("RPCoIB %dB latency %v (paper %v)", payload, got, want)
		}
	}
	check(1, 39*time.Microsecond)
	check(4096, 52*time.Microsecond)
}

// TestTableIAdjustmentCounts verifies the baseline's Table I view sees the
// Algorithm-1 adjustment counts the paper reports (2 for small calls).
func TestTableIAdjustmentCounts(t *testing.T) {
	reg := metrics.New()
	pingPong(t, core.ModeBaseline, perfmodel.IPoIB, 64, 10, reg)
	rows := core.SendRows(reg.Snapshot(0))
	if len(rows) == 0 {
		t.Fatal("no Table I rows")
	}
	var found bool
	for _, r := range rows {
		if r.Kind.Method == "pingpong" {
			found = true
			// 64B payload + header: 32->64->128 = 2 adjustments.
			if r.AvgAdjustments < 1.5 || r.AvgAdjustments > 2.5 {
				t.Errorf("avg adjustments = %.1f, want ~2", r.AvgAdjustments)
			}
			if r.AvgSerialize <= 0 || r.AvgSend <= 0 {
				t.Errorf("times not recorded: %+v", r)
			}
		}
	}
	if !found {
		t.Fatal("pingpong row missing")
	}
}

// TestFig1AllocShareGrowsWithPayload reproduces Figure 1's mechanism: on a
// fast network the buffer-allocation share of server receive time is
// substantial for MB payloads.
func TestFig1AllocShareGrowsWithPayload(t *testing.T) {
	ratioAt := func(payload int) float64 {
		reg := metrics.New()
		pingPong(t, core.ModeBaseline, perfmodel.IPoIB, payload, 10, reg)
		return core.AllocRatio(reg.Snapshot(0))
	}
	small, big := ratioAt(1024), ratioAt(2*1024*1024)
	t.Logf("alloc ratio: 1KB=%.3f 2MB=%.3f", small, big)
	if big <= small {
		t.Fatalf("alloc share should grow with payload: %v vs %v", small, big)
	}
	if big < 0.18 || big > 0.5 {
		t.Errorf("2MB alloc share %.2f, paper shows ~0.30 on IPoIB", big)
	}
}

// TestSimThroughputSaturates runs a small version of Figure 5(b): multiple
// concurrent clients against one 8-handler server; RPCoIB sustains higher
// throughput than the IPoIB baseline.
func TestSimThroughputSaturates(t *testing.T) {
	throughput := func(mode core.Mode) float64 {
		cl := cluster.New(cluster.ClusterB())
		opts := core.Options{Mode: mode, Costs: cl.Costs, Handlers: 8}
		netFor := func(node int) transport.Network {
			if mode == core.ModeRPCoIB {
				return cl.RPCoIBNet(node)
			}
			return cl.SocketNet(perfmodel.IPoIB, node)
		}
		cl.SpawnOn(0, "server", func(e exec.Env) {
			srv := core.NewServer(netFor(0), opts)
			srv.Register("p", "pp",
				func() wire.Writable { return &wire.BytesWritable{} },
				func(e exec.Env, p wire.Writable) (wire.Writable, error) { return p, nil })
			if err := srv.Start(e, 9000); err != nil {
				t.Error(err)
			}
		})
		done := 0
		var finish time.Duration
		const clients, calls = 16, 100
		for i := 0; i < clients; i++ {
			node := 1 + i%8
			cl.SpawnOn(node, fmt.Sprintf("client%d", i), func(e exec.Env) {
				e.Sleep(time.Millisecond)
				client := core.NewClient(netFor(node), core.Options{Mode: mode, Costs: cl.Costs})
				param := &wire.BytesWritable{Value: make([]byte, 512)}
				var reply wire.BytesWritable
				for j := 0; j < calls; j++ {
					if err := client.Call(e, "node0:9000", "p", "pp", param, &reply); err != nil {
						t.Error(err)
						return
					}
					done++
				}
				if e.Now() > finish {
					finish = e.Now()
				}
			})
		}
		cl.RunUntil(30 * time.Second)
		if done != clients*calls {
			t.Fatalf("mode %v: done=%d", mode, done)
		}
		return float64(done) / (float64(finish-time.Millisecond) / float64(time.Second))
	}
	base := throughput(core.ModeBaseline)
	rdma := throughput(core.ModeRPCoIB)
	t.Logf("throughput: baseline=%.0f ops/s rpcoib=%.0f ops/s (+%.0f%%)", base, rdma, 100*(rdma/base-1))
	if rdma <= base {
		t.Fatalf("RPCoIB throughput %.0f not above baseline %.0f", rdma, base)
	}
}
