package rpcoib_test

// External tests of the public facade: everything here uses only the
// exported rpcoib API, the way a downstream user would.

import (
	"testing"
	"time"

	"rpcoib"
)

func TestFacadeRealTCPRoundTrip(t *testing.T) {
	env := rpcoib.NewRealEnv(1)
	nw := rpcoib.NewTCPNetwork("")
	for _, mode := range []rpcoib.Mode{rpcoib.ModeBaseline, rpcoib.ModeRPCoIB} {
		srv := rpcoib.NewServer(nw, rpcoib.Options{Mode: mode})
		srv.Register("facade.Proto", "double",
			func() rpcoib.Writable { return &rpcoib.LongWritable{} },
			func(e rpcoib.Env, p rpcoib.Writable) (rpcoib.Writable, error) {
				return &rpcoib.LongWritable{Value: 2 * p.(*rpcoib.LongWritable).Value}, nil
			})
		if err := srv.Start(env, 0); err != nil {
			t.Fatal(err)
		}
		client := rpcoib.NewClient(nw, rpcoib.Options{Mode: mode})
		var reply rpcoib.LongWritable
		if err := client.Call(env, srv.Addr(), "facade.Proto", "double",
			&rpcoib.LongWritable{Value: 21}, &reply); err != nil {
			t.Fatal(err)
		}
		if reply.Value != 42 {
			t.Fatalf("mode %v: got %d", mode, reply.Value)
		}
		client.Close()
		srv.Stop()
	}
}

func TestFacadeBufferPool(t *testing.T) {
	pool := rpcoib.NewBufferPool(rpcoib.PolicyHistory)
	s := rpcoib.NewRDMAOutputStreamForBench(pool, "facade+call")
	payload := make([]byte, 3000)
	s.Write(payload)
	if s.Len() != 3000 {
		t.Fatalf("len=%d", s.Len())
	}
	s.Release()
	if got := pool.HistorySize("facade+call"); got != 3000 {
		t.Fatalf("history=%d", got)
	}
	// Second stream for the same call kind fits first try.
	s2 := rpcoib.NewRDMAOutputStreamForBench(pool, "facade+call")
	s2.Write(payload)
	if s2.Regets() != 0 {
		t.Fatalf("regets=%d on warm history", s2.Regets())
	}
	s2.Release()
}

func TestFacadeSimulatedCluster(t *testing.T) {
	cfg := rpcoib.ClusterB()
	if cfg.Nodes != 9 {
		t.Fatalf("ClusterB nodes=%d", cfg.Nodes)
	}
	cl := rpcoib.NewCluster(rpcoib.ClusterConfig{Nodes: 2, Seed: 3})
	var rtt time.Duration
	cl.SpawnOn(0, "server", func(e rpcoib.Env) {
		srv := rpcoib.NewServer(cl.RPCoIBNet(0), rpcoib.Options{Mode: rpcoib.ModeRPCoIB, Costs: cl.Costs})
		srv.Register("facade.Proto", "echo",
			func() rpcoib.Writable { return &rpcoib.Text{} },
			func(e rpcoib.Env, p rpcoib.Writable) (rpcoib.Writable, error) { return p, nil })
		if err := srv.Start(e, 9000); err != nil {
			t.Error(err)
		}
	})
	cl.SpawnOn(1, "client", func(e rpcoib.Env) {
		e.Sleep(time.Millisecond)
		client := rpcoib.NewClient(cl.RPCoIBNet(1), rpcoib.Options{Mode: rpcoib.ModeRPCoIB, Costs: cl.Costs})
		var reply rpcoib.Text
		if err := client.Call(e, "node0:9000", "facade.Proto", "echo",
			&rpcoib.Text{Value: "hi"}, &reply); err != nil {
			t.Error(err)
			return
		}
		start := e.Now()
		if err := client.Call(e, "node0:9000", "facade.Proto", "echo",
			&rpcoib.Text{Value: "hi"}, &reply); err != nil {
			t.Error(err)
			return
		}
		rtt = e.Now() - start
	})
	cl.RunUntil(time.Second)
	if rtt <= 0 || rtt > 100*time.Microsecond {
		t.Fatalf("simulated RTT %v implausible", rtt)
	}
}

func TestFacadeLinkKinds(t *testing.T) {
	if rpcoib.OneGigE.String() != "1GigE" || rpcoib.NativeIB.String() != "IB" {
		t.Fatal("link kind names")
	}
}
