package core_test

import (
	"errors"
	"testing"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/netsim"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/wire"
)

// Deterministic simulator tests for the async call layer: connection death,
// retry policies, call timeouts, and idle reaping, all under virtual time.

func simClient(cl *cluster.Cluster, node int, opts core.Options) *core.Client {
	opts.Costs = cl.Costs
	return core.NewClient(cl.SocketNet(perfmodel.IPoIB, node), opts)
}

// startEchoServer registers "echo" (immediate) and "slow" (sleeps an hour)
// handlers and starts the server on node 0.
func startEchoServer(t *testing.T, cl *cluster.Cluster, e exec.Env, port int) *core.Server {
	t.Helper()
	srv := core.NewServer(cl.SocketNet(perfmodel.IPoIB, 0), core.Options{Costs: cl.Costs})
	srv.Register("test.Async", "echo",
		func() wire.Writable { return &wire.BytesWritable{} },
		func(e exec.Env, p wire.Writable) (wire.Writable, error) { return p, nil })
	srv.Register("test.Async", "slow",
		func() wire.Writable { return &wire.BytesWritable{} },
		func(e exec.Env, p wire.Writable) (wire.Writable, error) {
			e.Sleep(time.Hour)
			return p, nil
		})
	if err := srv.Start(e, port); err != nil {
		t.Error(err)
	}
	return srv
}

// TestSimDeadConnectionFailsInflightFutures: stopping the server while calls
// are in flight must resolve every outstanding future with ErrClosed and
// leave no pending-call state behind.
func TestSimDeadConnectionFailsInflightFutures(t *testing.T) {
	cl := cluster.New(cluster.ClusterB())
	var srv *core.Server
	cl.SpawnOn(0, "server", func(e exec.Env) { srv = startEchoServer(t, cl, e, 9000) })
	errs := make([]error, 3)
	ran := false
	cl.SpawnOn(1, "client", func(e exec.Env) {
		e.Sleep(time.Millisecond)
		c := simClient(cl, 1, core.Options{})
		param := &wire.BytesWritable{Value: make([]byte, 128)}
		var futs []*core.Future
		replies := make([]wire.BytesWritable, 3)
		for i := range errs {
			futs = append(futs, c.CallAsync(e, "node0:9000", "test.Async", "slow", param, &replies[i]))
		}
		e.Sleep(50 * time.Millisecond) // let the sends land server-side
		srv.Stop()
		for i, f := range futs {
			errs[i] = f.Wait(e)
		}
		if n := core.PendingCalls(c); n != 0 {
			t.Errorf("pending calls after failure: %d, want 0", n)
		}
		ran = true
	})
	cl.RunUntil(time.Minute)
	if !ran {
		t.Fatal("scenario did not complete")
	}
	for i, err := range errs {
		if !errors.Is(err, core.ErrClosed) {
			t.Errorf("future %d: err=%v, want ErrClosed", i, err)
		}
	}
}

// TestSimCallPolicyRetriesUntilServerUp: with the server coming up late, a
// CallWith under a backoff policy must eat the dial failures and land the
// call once the listener exists — and do so identically across runs, since
// jitter comes from the environment's seeded PRNG.
func TestSimCallPolicyRetriesUntilServerUp(t *testing.T) {
	run := func() (time.Duration, int64) {
		cl := cluster.New(cluster.ClusterB())
		cl.SpawnOn(0, "server", func(e exec.Env) {
			e.Sleep(300 * time.Millisecond)
			startEchoServer(t, cl, e, 9000)
		})
		var took time.Duration
		var dialFailures int64
		cl.SpawnOn(1, "client", func(e exec.Env) {
			e.Sleep(time.Millisecond)
			c := simClient(cl, 1, core.Options{})
			policy := core.CallPolicy{
				MaxAttempts: 10, Backoff: 50 * time.Millisecond,
				MaxBackoff: 400 * time.Millisecond, Jitter: 0.3,
				Deadline: 5 * time.Second,
			}
			param := &wire.BytesWritable{Value: make([]byte, 64)}
			var reply wire.BytesWritable
			if err := c.CallWith(e, policy, "node0:9000", "test.Async", "echo", param, &reply); err != nil {
				t.Errorf("CallWith: %v", err)
			}
			took = e.Now()
			dialFailures = c.Stats.Errors.Load()
		})
		cl.RunUntil(time.Minute)
		return took, dialFailures
	}
	took1, fails1 := run()
	took2, fails2 := run()
	if took1 == 0 {
		t.Fatal("scenario did not complete")
	}
	if fails1 == 0 {
		t.Error("expected at least one failed attempt before the server came up")
	}
	if took1 != took2 || fails1 != fails2 {
		t.Errorf("retry schedule not deterministic: (%v, %d) vs (%v, %d)", took1, fails1, took2, fails2)
	}
	t.Logf("call landed at t=%v after %d failed attempts", took1, fails1)
}

// TestSimTimeoutRemovesPendingCall: a timed-out call must drop its
// pending-table entry (no leak, late response ignored) and leave the
// connection usable for subsequent calls.
func TestSimTimeoutRemovesPendingCall(t *testing.T) {
	cl := cluster.New(cluster.ClusterB())
	cl.SpawnOn(0, "server", func(e exec.Env) { startEchoServer(t, cl, e, 9000) })
	ran := false
	cl.SpawnOn(1, "client", func(e exec.Env) {
		e.Sleep(time.Millisecond)
		c := simClient(cl, 1, core.Options{CallTimeout: 200 * time.Millisecond})
		param := &wire.BytesWritable{Value: make([]byte, 64)}
		var reply wire.BytesWritable
		err := c.Call(e, "node0:9000", "test.Async", "slow", param, &reply)
		if !errors.Is(err, core.ErrTimeout) {
			t.Errorf("err=%v, want ErrTimeout", err)
		}
		if n := core.PendingCalls(c); n != 0 {
			t.Errorf("pending calls after timeout: %d, want 0", n)
		}
		// The connection must still serve calls (the stale response for the
		// timed-out id is discarded by the receiver).
		if err := c.Call(e, "node0:9000", "test.Async", "echo", param, &reply); err != nil {
			t.Errorf("call after timeout: %v", err)
		}
		ran = true
	})
	cl.RunUntil(time.Minute)
	if !ran {
		t.Fatal("scenario did not complete")
	}
}

// TestSimIdleConnectionsReaped: connections idle past MaxIdleTime are torn
// down on the next client activity (Hadoop's ipc.client.connection
// .maxidletime), and a reaped address transparently re-dials on reuse.
func TestSimIdleConnectionsReaped(t *testing.T) {
	cl := cluster.New(cluster.ClusterB())
	cl.SpawnOn(0, "server", func(e exec.Env) {
		startEchoServer(t, cl, e, 9000)
		startEchoServer(t, cl, e, 9001)
	})
	ran := false
	cl.SpawnOn(1, "client", func(e exec.Env) {
		e.Sleep(time.Millisecond)
		c := simClient(cl, 1, core.Options{MaxIdleTime: time.Second})
		param := &wire.BytesWritable{Value: make([]byte, 64)}
		var reply wire.BytesWritable
		call := func(addr string) {
			if err := c.Call(e, addr, "test.Async", "echo", param, &reply); err != nil {
				t.Errorf("%s: %v", addr, err)
			}
		}
		call("node0:9000")
		call("node0:9001")
		if n := core.OpenConnections(c); n != 2 {
			t.Errorf("open connections: %d, want 2", n)
		}
		e.Sleep(5 * time.Second)
		call("node0:9001") // activity triggers the reap; 9000 is idle
		if n := core.OpenConnections(c); n != 1 {
			t.Errorf("open connections after reap: %d, want 1", n)
		}
		call("node0:9000") // transparently reconnects
		if n := core.OpenConnections(c); n != 2 {
			t.Errorf("open connections after reconnect: %d, want 2", n)
		}
		ran = true
	})
	cl.RunUntil(time.Minute)
	if !ran {
		t.Fatal("scenario did not complete")
	}
}

// TestSimFanOutOverlapsRoundTrips: a fan-out to N servers must complete in
// roughly one round trip, not N.
func TestSimFanOutOverlapsRoundTrips(t *testing.T) {
	const servers = 4
	cfg := cluster.ClusterB()
	cfg.Nodes = servers + 1
	cl := cluster.New(cfg)
	for i := 0; i < servers; i++ {
		i := i
		cl.SpawnOn(i, "server", func(e exec.Env) {
			srv := core.NewServer(cl.SocketNet(perfmodel.IPoIB, i), core.Options{Costs: cl.Costs})
			srv.Register("test.Async", "work",
				func() wire.Writable { return &wire.BytesWritable{} },
				func(e exec.Env, p wire.Writable) (wire.Writable, error) {
					e.Sleep(10 * time.Millisecond)
					return p, nil
				})
			if err := srv.Start(e, 9000); err != nil {
				t.Error(err)
			}
		})
	}
	var seq, fan time.Duration
	cl.SpawnOn(servers, "client", func(e exec.Env) {
		e.Sleep(time.Millisecond)
		c := simClient(cl, servers, core.Options{})
		param := &wire.BytesWritable{Value: make([]byte, 256)}
		addr := func(i int) string { return netsim.Addr(i, 9000) }

		start := e.Now()
		for i := 0; i < servers; i++ {
			var reply wire.BytesWritable
			if err := c.Call(e, addr(i), "test.Async", "work", param, &reply); err != nil {
				t.Error(err)
				return
			}
		}
		seq = e.Now() - start

		calls := make([]core.FanOutCall, servers)
		replies := make([]wire.BytesWritable, servers)
		for i := range calls {
			calls[i] = core.FanOutCall{Addr: addr(i), Protocol: "test.Async",
				Method: "work", Param: param, Reply: &replies[i]}
		}
		start = e.Now()
		if err := core.WaitAll(e, c.FanOut(e, calls)); err != nil {
			t.Error(err)
			return
		}
		fan = e.Now() - start
	})
	cl.RunUntil(time.Minute)
	if seq == 0 || fan == 0 {
		t.Fatal("scenario did not complete")
	}
	t.Logf("%d x 10ms handlers: sequential=%v fanout=%v", servers, seq, fan)
	if fan*2 >= seq {
		t.Errorf("fan-out (%v) should be well under half of sequential (%v)", fan, seq)
	}
}

// TestSimFutureTryWait walks the non-blocking poll through every outcome on
// one connection: pending, reply delivered, reply delivered and then the
// connection dies before the caller polls (the reply wins), and connection
// dead with no reply (ErrClosed) — with Stats.Resolved moving exactly once
// per future however often it is polled or waited on.
func TestSimFutureTryWait(t *testing.T) {
	cl := cluster.New(cluster.ClusterB())
	var srv *core.Server
	cl.SpawnOn(0, "server", func(e exec.Env) { srv = startEchoServer(t, cl, e, 9000) })
	ran := false
	cl.SpawnOn(1, "client", func(e exec.Env) {
		e.Sleep(time.Millisecond)
		c := simClient(cl, 1, core.Options{})
		param := &wire.BytesWritable{Value: []byte("ping")}
		poll := func(step string, f *core.Future, wantDone bool, wantErr error, wantResolved int64) {
			t.Helper()
			done, err := f.TryWait()
			if done != wantDone || !errors.Is(err, wantErr) {
				t.Errorf("%s: TryWait = (%v, %v), want (%v, %v)", step, done, err, wantDone, wantErr)
			}
			if got := c.Stats.Resolved.Load(); got != wantResolved {
				t.Errorf("%s: Stats.Resolved = %d, want %d", step, got, wantResolved)
			}
		}

		var slowReply, echoReply, lateReply wire.BytesWritable
		slow := c.CallAsync(e, "node0:9000", "test.Async", "slow", param, &slowReply)
		poll("pending", slow, false, nil, 0)

		echo := c.CallAsync(e, "node0:9000", "test.Async", "echo", param, &echoReply)
		e.Sleep(50 * time.Millisecond)
		poll("delivered", echo, true, nil, 1)
		if string(echoReply.Value) != "ping" {
			t.Errorf("delivered: reply = %q, want the echoed param", echoReply.Value)
		}
		if err := echo.Wait(e); err != nil {
			t.Errorf("Wait after TryWait: %v", err)
		}
		poll("delivered, polled again", echo, true, nil, 1)

		// The reply lands, then the connection fails, and only then does the
		// caller look: the delivered reply must not be lost to the close.
		late := c.CallAsync(e, "node0:9000", "test.Async", "echo", param, &lateReply)
		e.Sleep(50 * time.Millisecond)
		srv.Stop()
		e.Sleep(50 * time.Millisecond)
		if n := core.OpenConnections(c); n != 0 {
			t.Fatalf("open connections after server stop: %d, want 0", n)
		}
		poll("reply then close", late, true, nil, 2)
		if string(lateReply.Value) != "ping" {
			t.Errorf("reply then close: reply = %q, want the echoed param", lateReply.Value)
		}

		poll("closed, no reply", slow, true, core.ErrClosed, 3)
		if err := slow.Wait(e); !errors.Is(err, core.ErrClosed) {
			t.Errorf("Wait after failed TryWait: %v, want ErrClosed", err)
		}
		if calls, resolved, errs := c.Stats.Calls.Load(), c.Stats.Resolved.Load(), c.Stats.Errors.Load(); calls != 3 || resolved != 3 || errs != 1 {
			t.Errorf("stats calls=%d resolved=%d errors=%d, want 3/3/1", calls, resolved, errs)
		}
		ran = true
	})
	cl.RunUntil(time.Minute)
	if !ran {
		t.Fatal("scenario did not complete")
	}
}

// TestSimFailWakesWaitersInCallOrder: when a connection dies with several
// calls in flight, each parked in its own process, the waiters must resume
// in call order. The pending table is a map; waking in its iteration order
// made a faulted run depend on the Go runtime's hash seed.
func TestSimFailWakesWaitersInCallOrder(t *testing.T) {
	const calls = 8
	cl := cluster.New(cluster.ClusterB())
	var srv *core.Server
	cl.SpawnOn(0, "server", func(e exec.Env) { srv = startEchoServer(t, cl, e, 9000) })
	var woke []int
	cl.SpawnOn(1, "client", func(e exec.Env) {
		e.Sleep(time.Millisecond)
		c := simClient(cl, 1, core.Options{})
		param := &wire.BytesWritable{Value: make([]byte, 16)}
		for i := 0; i < calls; i++ {
			f := c.CallAsync(e, "node0:9000", "test.Async", "slow", param, &wire.BytesWritable{})
			e.Spawn("waiter", func(e exec.Env) {
				if err := f.Wait(e); !errors.Is(err, core.ErrClosed) {
					t.Errorf("call %d: err=%v, want ErrClosed", i, err)
				}
				woke = append(woke, i)
			})
		}
		e.Sleep(50 * time.Millisecond)
		srv.Stop()
	})
	cl.RunUntil(time.Minute)
	if len(woke) != calls {
		t.Fatalf("%d of %d waiters resumed", len(woke), calls)
	}
	for i, got := range woke {
		if got != i {
			t.Fatalf("waiters resumed in order %v, want call order", woke)
		}
	}
}
