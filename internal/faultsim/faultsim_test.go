package faultsim_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rpcoib/internal/bufpool"
	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/faultsim"
	"rpcoib/internal/metrics"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// TestFaultPlanRoundTrip: plans survive the JSON encode/decode/LoadPlan loop
// intact, and Validate rejects the malformed shapes the loader must catch.
func TestFaultPlanRoundTrip(t *testing.T) {
	plan := faultsim.Plan{
		Seed: 42,
		Events: []faultsim.Event{
			{AtMS: 50, Kind: faultsim.KindLinkFlap, AllLinks: true, DurMS: 40},
			{AtMS: 2000, Kind: faultsim.KindNodeCrash, Node: 2, DurMS: 10000},
			{AtMS: 100, Kind: faultsim.KindCQStall, Node: 0, DurMS: 300},
			{AtMS: 100, Kind: faultsim.KindPoolLimit, Node: 1, Bytes: 1 << 20, DurMS: 500},
			{AtMS: 7, Kind: faultsim.KindLinkDown, Node: 0, Peer: 3},
			{AtMS: 9, Kind: faultsim.KindLinkUp, Node: 0, Peer: 3},
		},
		Profile: faultsim.Profile{DropRate: 0.1, DupRate: 0.05, DelayRate: 0.2, DelayMaxMS: 5, StartMS: 100},
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := faultsim.LoadPlan(path)
	if err != nil {
		t.Fatalf("LoadPlan: %v", err)
	}
	if !reflect.DeepEqual(*loaded, plan) {
		t.Errorf("round trip changed the plan:\n got %+v\nwant %+v", *loaded, plan)
	}
	// The loader validates: a figure binary's -faults flag relies on it.
	if err := os.WriteFile(path, []byte(`{"profile":{"drop_rate":2}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := faultsim.LoadPlan(path); err == nil {
		t.Error("LoadPlan accepted drop_rate 2")
	}

	bad := []faultsim.Plan{
		{Events: []faultsim.Event{{AtMS: -1, Kind: faultsim.KindLinkDown, Peer: 1}}},
		{Events: []faultsim.Event{{Kind: "meteor-strike"}}},
		{Events: []faultsim.Event{{Kind: faultsim.KindLinkFlap, Node: 0, Peer: 1}}}, // no dur
		{Events: []faultsim.Event{{Kind: faultsim.KindLinkDown, Node: 2, Peer: 2}}},
		{Events: []faultsim.Event{{Kind: faultsim.KindNodeCrash, Node: -1}}},
		{Events: []faultsim.Event{{Kind: faultsim.KindCQStall, Node: 0}}}, // no dur
		{Events: []faultsim.Event{{Kind: faultsim.KindPoolLimit, Bytes: -5}}},
		{Profile: faultsim.Profile{DropRate: 1.5}},
		{Profile: faultsim.Profile{DelayRate: 0.5}}, // no delay_max_ms
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted: %+v", i, p)
		}
	}
}

// echoCluster stands up a one-server one-client RPC pair on ClusterB.
func echoCluster(t *testing.T, mode core.Mode) (*cluster.Cluster, func(node int) transport.Network) {
	t.Helper()
	cl := cluster.New(cluster.ClusterB())
	netFor := func(node int) transport.Network {
		if mode == core.ModeRPCoIB {
			return cl.RPCoIBNet(node)
		}
		return cl.SocketNet(perfmodel.IPoIB, node)
	}
	cl.SpawnOn(0, "server", func(e exec.Env) {
		srv := core.NewServer(netFor(0), core.Options{Mode: mode, Costs: cl.Costs})
		srv.Register("test.Fault", "echo",
			func() wire.Writable { return &wire.BytesWritable{} },
			func(e exec.Env, p wire.Writable) (wire.Writable, error) { return p, nil })
		if err := srv.Start(e, 9000); err != nil {
			t.Error(err)
		}
	})
	return cl, netFor
}

// TestFaultLinkFlapHoldsAndRedelivers: a call issued while its link is down
// must not be lost — the fabric parks the frames and re-dispatches them on
// heal, so the call completes right after the link returns.
func TestFaultLinkFlapHoldsAndRedelivers(t *testing.T) {
	cl, netFor := echoCluster(t, core.ModeBaseline)
	_, err := faultsim.Apply(cl, faultsim.Plan{Events: []faultsim.Event{
		{AtMS: 10, Kind: faultsim.KindLinkFlap, Node: 0, Peer: 1, DurMS: 50},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var done time.Duration
	var callErr error
	cl.SpawnOn(1, "client", func(e exec.Env) {
		e.Sleep(time.Millisecond)
		c := core.NewClient(netFor(1), core.Options{Costs: cl.Costs})
		param := &wire.BytesWritable{Value: make([]byte, 128)}
		var reply wire.BytesWritable
		// Warm call establishes the connection before the flap.
		if err := c.Call(e, "node0:9000", "test.Fault", "echo", param, &reply); err != nil {
			t.Error(err)
			return
		}
		e.Sleep(20*time.Millisecond - e.Now()) // inside the down window
		callErr = c.Call(e, "node0:9000", "test.Fault", "echo", param, &reply)
		done = e.Now()
	})
	cl.RunUntil(time.Minute)
	if callErr != nil {
		t.Fatalf("call across link flap: %v", callErr)
	}
	if done < 60*time.Millisecond {
		t.Errorf("call completed at %v, before the link healed at 60ms", done)
	}
	if done > 100*time.Millisecond {
		t.Errorf("call completed at %v, long after the 60ms heal (held frames not re-dispatched?)", done)
	}
}

// TestFaultCQStallDelaysCompletion: stalling the server HCA's completion
// queue freezes receive processing; a call issued during the stall completes
// only after polling resumes (and the stall must not lose it).
func TestFaultCQStallDelaysCompletion(t *testing.T) {
	cl, netFor := echoCluster(t, core.ModeRPCoIB)
	_, err := faultsim.Apply(cl, faultsim.Plan{Events: []faultsim.Event{
		{AtMS: 100, Kind: faultsim.KindCQStall, Node: 0, DurMS: 300},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var done time.Duration
	var callErr error
	cl.SpawnOn(1, "client", func(e exec.Env) {
		e.Sleep(time.Millisecond)
		c := core.NewClient(netFor(1), core.Options{Mode: core.ModeRPCoIB, Costs: cl.Costs})
		param := &wire.BytesWritable{Value: make([]byte, 128)}
		var reply wire.BytesWritable
		if err := c.Call(e, "node0:9000", "test.Fault", "echo", param, &reply); err != nil {
			t.Error(err)
			return
		}
		e.Sleep(200*time.Millisecond - e.Now()) // inside the stall window
		callErr = c.Call(e, "node0:9000", "test.Fault", "echo", param, &reply)
		done = e.Now()
	})
	cl.RunUntil(time.Minute)
	if callErr != nil {
		t.Fatalf("call across CQ stall: %v", callErr)
	}
	if done < 400*time.Millisecond {
		t.Errorf("call completed at %v, before the CQ stall ended at 400ms", done)
	}
}

// TestFaultProfileDropDeterministic: a lossy profile plus a retry policy must
// land the call, leave the client leak-free, and produce the exact same
// schedule (completion time, injector stats, client stats) on a re-run with
// the same seed.
func TestFaultProfileDropDeterministic(t *testing.T) {
	type outcome struct {
		done  time.Duration
		stats faultsim.Stats
		calls int64
		errs  int64
	}
	run := func() outcome {
		cl, netFor := echoCluster(t, core.ModeBaseline)
		inj, err := faultsim.Apply(cl, faultsim.Plan{
			Seed:    7,
			Profile: faultsim.Profile{DropRate: 0.25, DupRate: 0.1, DelayRate: 0.2, DelayMaxMS: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		var out outcome
		var client *core.Client
		cl.SpawnOn(1, "client", func(e exec.Env) {
			e.Sleep(time.Millisecond)
			client = core.NewClient(netFor(1), core.Options{
				Costs: cl.Costs, CallTimeout: 500 * time.Millisecond,
			})
			// The echo is idempotent, so retry timeouts too (the default
			// RetryTransient refuses them: the drop may have eaten the reply
			// after the server executed the call).
			policy := core.CallPolicy{MaxAttempts: 25, Backoff: 20 * time.Millisecond,
				MaxBackoff: 200 * time.Millisecond, Deadline: 10 * time.Minute,
				RetryOn: func(error) bool { return true }}
			param := &wire.BytesWritable{Value: make([]byte, 256)}
			for i := 0; i < 5; i++ {
				var reply wire.BytesWritable
				if err := client.CallWith(e, policy, "node0:9000", "test.Fault", "echo", param, &reply); err != nil {
					t.Errorf("call %d under loss: %v", i, err)
					return
				}
			}
			out.done = e.Now()
		})
		cl.RunUntil(30 * time.Minute)
		out.stats = inj.Stats()
		out.calls = client.Stats.Calls.Load()
		out.errs = client.Stats.Errors.Load()

		rep := &faultsim.Report{}
		rep.CheckClient("client", client)
		if !rep.OK() {
			t.Error(rep.String())
		}
		return out
	}
	a := run()
	b := run()
	if a.done == 0 {
		t.Fatal("scenario did not complete")
	}
	if a != b {
		t.Errorf("same-seed runs diverged:\n a=%+v\n b=%+v", a, b)
	}
	if a.stats.Drops == 0 {
		t.Error("profile never dropped anything; test exercised nothing")
	}
	t.Logf("done=%v drops=%d dups=%d delays=%d clientCalls=%d clientErrs=%d",
		a.done, a.stats.Drops, a.stats.Dups, a.stats.Delays, a.calls, a.errs)
}

// TestFaultCheckerCatchesViolations: each invariant check must actually fire
// on a violating state (a checker that cannot fail verifies nothing).
func TestFaultCheckerCatchesViolations(t *testing.T) {
	// Leaked future: a client with an issued-but-never-resolved call.
	leaky := core.NewClient(nil, core.Options{})
	leaky.Stats.Calls.Add(1)
	rep := &faultsim.Report{}
	rep.CheckClient("leaky", leaky)
	if rep.OK() {
		t.Error("leaked future not detected")
	}

	// Lost buffer: a pool Get without a matching Put.
	pool := bufpool.NewNativePool(0)
	b := pool.Get(1024)
	rep = &faultsim.Report{}
	rep.CheckPool("lossy", pool)
	if rep.OK() {
		t.Error("lost buffer not detected")
	}

	// Double free: returning the same buffer twice.
	pool.Put(b)
	pool.Put(b)
	rep = &faultsim.Report{}
	rep.CheckPool("doubled", pool)
	if rep.OK() || len(rep.Violations) != 1 {
		t.Errorf("double free not detected exactly once: %v", rep.Violations)
	}

	// Unbalanced metrics: issued != completed + failed.
	snap := metrics.Snapshot{
		Counters: map[string]int64{
			metrics.Labels("rpc_client_issued_total", "protocol", "p", "method", "m"): 5,
			metrics.Labels("rpc_client_failed_total", "protocol", "p", "method", "m"): 1,
		},
		Histograms: map[string]metrics.HistSnapshot{
			metrics.Labels("rpc_client_call_ns", "protocol", "p", "method", "m"): {Count: 3},
		},
	}
	rep = &faultsim.Report{}
	rep.CheckSnapshotBalance(snap)
	if rep.OK() {
		t.Error("unbalanced counters not detected")
	}
	snap.Histograms[metrics.Labels("rpc_client_call_ns", "protocol", "p", "method", "m")] = metrics.HistSnapshot{Count: 4}
	rep = &faultsim.Report{}
	rep.CheckSnapshotBalance(snap)
	if !rep.OK() {
		t.Errorf("balanced counters flagged: %s", rep.String())
	}

	// Snapshot comparison: identical vs perturbed.
	if same, _ := faultsim.SameSnapshot(snap, snap); !same {
		t.Error("identical snapshots reported different")
	}
	other := metrics.Snapshot{Counters: map[string]int64{"x": 1}}
	if same, diff := faultsim.SameSnapshot(snap, other); same {
		t.Error("different snapshots reported same")
	} else if diff == "" {
		t.Error("difference not described")
	}
}

// TestFaultApplyRejectsBadTargets: events naming nodes outside the cluster
// fail at Apply time, not at event-fire time deep inside a run.
func TestFaultApplyRejectsBadTargets(t *testing.T) {
	cl := cluster.New(cluster.ClusterB()) // 9 nodes
	for _, ev := range []faultsim.Event{
		{Kind: faultsim.KindNodeCrash, Node: 9},
		{Kind: faultsim.KindNodeRestart, Node: 100},
		{Kind: faultsim.KindCQStall, Node: 9, DurMS: 10},
		{Kind: faultsim.KindPoolLimit, Node: 42, Bytes: 1},
	} {
		if _, err := faultsim.Apply(cl, faultsim.Plan{Events: []faultsim.Event{ev}}); err == nil {
			t.Errorf("event %+v accepted against a 9-node cluster", ev)
		}
	}
	if _, err := faultsim.Apply(cl, faultsim.Plan{Profile: faultsim.Profile{DropRate: 2}}); err == nil {
		t.Error("invalid profile accepted by Apply")
	}
}

// TestFaultNodeCrashPartitionsAndRestores: a node-crash event with a duration
// behaves like PartitionNode(true) then (false): calls to the crashed node
// fail fast-ish (timeout) during the outage and succeed after the restart.
func TestFaultNodeCrashPartitionsAndRestores(t *testing.T) {
	cl, netFor := echoCluster(t, core.ModeBaseline)
	inj, err := faultsim.Apply(cl, faultsim.Plan{Events: []faultsim.Event{
		{AtMS: 1000, Kind: faultsim.KindNodeCrash, Node: 0, DurMS: 2000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var duringErr, afterErr error
	ran := false
	cl.SpawnOn(1, "client", func(e exec.Env) {
		e.Sleep(time.Millisecond)
		c := core.NewClient(netFor(1), core.Options{Costs: cl.Costs, CallTimeout: 300 * time.Millisecond})
		param := &wire.BytesWritable{Value: make([]byte, 64)}
		var reply wire.BytesWritable
		if err := c.Call(e, "node0:9000", "test.Fault", "echo", param, &reply); err != nil {
			t.Error(err)
			return
		}
		e.Sleep(1500*time.Millisecond - e.Now()) // mid-outage
		duringErr = c.Call(e, "node0:9000", "test.Fault", "echo", param, &reply)
		e.Sleep(25 * time.Second) // past restart + connect-timeout residue
		afterErr = c.Call(e, "node0:9000", "test.Fault", "echo", param, &reply)
		if n := core.PendingCallCount(c); n != 0 {
			t.Errorf("pending calls at quiescence: %d", n)
		}
		ran = true
	})
	cl.RunUntil(10 * time.Minute)
	if !ran {
		t.Fatal("scenario did not complete")
	}
	if duringErr == nil {
		t.Error("call during the crash window succeeded")
	} else if !errors.Is(duringErr, core.ErrTimeout) && !errors.Is(duringErr, core.ErrClosed) {
		t.Errorf("call during crash: err=%v, want timeout or closed", duringErr)
	}
	if afterErr != nil {
		t.Errorf("call after restart: %v", afterErr)
	}
	s := inj.Stats()
	if s.Crashes != 1 || s.Restarts != 1 {
		t.Errorf("injector stats: crashes=%d restarts=%d, want 1/1", s.Crashes, s.Restarts)
	}
}
