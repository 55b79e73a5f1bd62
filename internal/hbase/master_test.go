package hbase

import (
	"fmt"
	"testing"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/faultsim"
	"rpcoib/internal/ibverbs"
	"rpcoib/internal/metrics"
	"rpcoib/internal/wire"
)

// masterBudgetScenario deploys the HMaster on the S23 scale path: the verbs
// transport (one QP per connection), the shared client runtime capped
// (conn-cache), and the master's admission control bound to a
// registered-memory budget. Mid-run a tenant burst exhausts the
// budget, so region-server load reports are shed with "too busy"; a scripted
// cache-cap eviction frees the reservations and reporting resumes. Returns
// the final snapshot, the invariant report, the evictions seen, and the
// cluster status a late client observed.
func masterBudgetScenario(t *testing.T) (metrics.Snapshot, *faultsim.Report, int64, ClusterStatus) {
	t.Helper()
	const (
		clientNode = 6
		tenantNode = 5
		sessBytes  = 4096
		tenantN    = 32
	)
	reg := metrics.New()
	cl := cluster.New(cluster.Config{Nodes: 7, Seed: 1, DiskReadBW: 110e6,
		DiskWriteBW: 95e6, DiskSeek: 6 * time.Millisecond})
	cl.IBNet().Instrument(reg)

	// The budget holds half the tenant burst: the burst exhausts it.
	budget := ibverbs.NewMemoryBudget(sessBytes * tenantN / 2)
	budget.Instrument(reg)

	h := Deploy(cl, Config{
		Master: 0, RegionServers: []int{1, 2, 3},
		HBaseRDMA:          true,
		Metrics:            reg,
		DeployMaster:       true,
		ReportInterval:     25 * time.Millisecond,
		MasterShedOverload: true,
		MasterBusyBackoff:  10 * time.Millisecond,
		MasterOverloaded:   budget.Exhausted,
		ClientCacheCap:     8,
		RPCPolicy:          core.CallPolicy{MaxAttempts: 3, Backoff: 10 * time.Millisecond},
	}, nil)

	// Tenants live in a capped client runtime; eviction closes the client and
	// hands its reservation back. Tenants past the budget are admitted
	// without a reservation (the budget already denied them).
	tenants := core.NewRuntime()
	tenants.Instrument(reg)
	reserved := map[int]bool{}
	tenants.OnEvict(func(k core.RuntimeKey, _ *core.Client) {
		if reserved[k.Node] {
			reserved[k.Node] = false
			budget.Release(sessBytes)
		}
	})

	// Light data traffic so reports carry real load numbers.
	cl.SpawnOn(clientNode, "put-driver", func(e exec.Env) {
		e.Sleep(40 * time.Millisecond)
		c := h.NewClient(clientNode)
		for i := 0; i < 30; i++ {
			if err := c.Put(e, fmt.Sprintf("row-%d", i), 1024); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		if err := c.Flush(e); err != nil {
			t.Errorf("flush: %v", err)
		}
	})
	cl.SpawnOn(tenantNode, "tenant-burst", func(e exec.Env) {
		// Mid-run: a burst of sessions drains the budget...
		e.Sleep(100 * time.Millisecond)
		for i := 0; i < tenantN; i++ {
			id := i
			tenants.Client(id, "tenant", func() *core.Client {
				reserved[id] = budget.TryReserve(sessBytes)
				return core.NewClient(cl.RPCoIBNet(tenantNode), core.Options{
					Mode: core.ModeRPCoIB, Costs: cl.Costs})
			})
		}
		if !budget.Exhausted() {
			t.Error("tenant burst did not exhaust the budget")
		}
		// ...and 200 ms later the cache cap evicts most of them, freeing it.
		e.Sleep(200 * time.Millisecond)
		tenants.SetCacheCap(4)
	})
	var status ClusterStatus
	var statusErr error
	cl.SpawnOn(clientNode, "status-probe", func(e exec.Env) {
		// Well past recovery: reports have resumed and re-registered anything
		// the shed window dropped.
		e.Sleep(700 * time.Millisecond)
		statusErr = h.masterClient(clientNode).Call(e, h.MasterAddr(),
			MasterInterface, "getClusterStatus", &wire.NullWritable{}, &status)
		h.Stop()
	})
	end := cl.RunUntil(10 * time.Minute)
	tenants.Close()
	if statusErr != nil {
		t.Fatalf("getClusterStatus: %v", statusErr)
	}

	snap := reg.Snapshot(end)
	rep := &faultsim.Report{}
	rep.CheckRuntime("hbase", h.Runtime())
	rep.CheckDevicePools(cl.IBNet())
	rep.CheckSnapshotBalance(snap)
	_, evictions := tenants.CacheStats()
	return snap, rep, evictions, status
}

// TestMasterScalePathShedsThenRecovers is the HMaster scale-path acceptance
// test: under budget exhaustion the master sheds load reports instead of
// queueing them, every region server is live again in the cluster status once
// the budget frees, no pool/runtime invariant is violated, and the whole run
// replays byte-identically.
func TestMasterScalePathShedsThenRecovers(t *testing.T) {
	snap1, rep, evictions, status := masterBudgetScenario(t)
	if !rep.OK() {
		t.Fatal(rep.String())
	}
	if shed := snap1.Counters["rpc_server_calls_shed_total"]; shed == 0 {
		t.Fatal("master never shed a report; the budget window missed the report cadence")
	}
	if evictions == 0 {
		t.Fatal("no tenant was evicted; recovery path untested")
	}
	if status.LiveServers != 3 {
		t.Fatalf("cluster status shows %d live servers, want 3", status.LiveServers)
	}
	if status.Reports == 0 || status.Requests == 0 {
		t.Fatalf("cluster status carries no load: %+v", status)
	}
	if used := snap1.Gauges["rpc_ib_srq_budget_used_bytes"]; used >= snap1.Gauges["rpc_ib_srq_budget_bytes"] {
		t.Fatalf("budget still exhausted at end: used=%d cap=%d",
			used, snap1.Gauges["rpc_ib_srq_budget_bytes"])
	}

	snap2, rep2, _, _ := masterBudgetScenario(t)
	if !rep2.OK() {
		t.Fatalf("second run: %s", rep2.String())
	}
	if same, diff := faultsim.SameSnapshot(snap1, snap2); !same {
		t.Fatalf("same-seed master scale runs diverged: %s", diff)
	}
}

// TestMasterReportsTrackRegionServers covers the plain (unshedded) master
// path: every region server registers, reports flow at the configured
// cadence, and the master's aggregate request count converges on the load the
// region servers actually served.
func TestMasterReportsTrackRegionServers(t *testing.T) {
	cl := cluster.New(cluster.Config{Nodes: 5, Seed: 1, DiskReadBW: 110e6,
		DiskWriteBW: 95e6, DiskSeek: 6 * time.Millisecond})
	h := Deploy(cl, Config{
		Master: 0, RegionServers: []int{1, 2, 3},
		HBaseRDMA:      true,
		DeployMaster:   true,
		ReportInterval: 20 * time.Millisecond,
	}, nil)
	cl.SpawnOn(4, "driver", func(e exec.Env) {
		e.Sleep(30 * time.Millisecond)
		c := h.NewClient(4)
		for i := 0; i < 60; i++ {
			if err := c.Put(e, fmt.Sprintf("k-%d", i), 512); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
		if err := c.Flush(e); err != nil {
			t.Errorf("flush: %v", err)
		}
		// Two more report periods so the post-flush counts reach the master.
		e.Sleep(50 * time.Millisecond)
		h.Stop()
	})
	cl.RunUntil(time.Minute)

	m := h.Master()
	if m.LiveServers() != 3 {
		t.Fatalf("LiveServers = %d, want 3", m.LiveServers())
	}
	if m.Startups() < 3 {
		t.Fatalf("Startups = %d, want >= 3", m.Startups())
	}
	if m.Reports() < 6 {
		t.Fatalf("Reports = %d, want a few per server", m.Reports())
	}
	var served int64
	for _, rs := range h.RegionServers() {
		served += rs.Puts + rs.Gets
	}
	m.mu.Lock()
	var reported int64
	for _, rep := range m.live {
		reported += rep.Requests
	}
	m.mu.Unlock()
	if reported != served {
		t.Fatalf("master sees %d requests, region servers served %d", reported, served)
	}
}
