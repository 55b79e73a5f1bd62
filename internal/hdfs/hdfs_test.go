package hdfs

import (
	"fmt"
	"testing"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/metrics"
	"rpcoib/internal/perfmodel"
)

// deploy builds a small cluster with an HDFS instance: NN on node 0, DNs on
// nodes 1..dns, and runs fn as a client process on the last node.
func deploy(t *testing.T, dns int, cfg Config, fn func(e exec.Env, h *HDFS, c *DFSClient)) *HDFS {
	t.Helper()
	cl := cluster.New(cluster.Config{Nodes: dns + 2, CoresPerNode: 8, Seed: 1,
		DiskReadBW: 110e6, DiskWriteBW: 95e6, DiskSeek: 6 * time.Millisecond})
	cfg.NameNode = 0
	for i := 1; i <= dns; i++ {
		cfg.DataNodes = append(cfg.DataNodes, i)
	}
	cfg.RPCKind = perfmodel.IPoIB
	cfg.DataKind = perfmodel.IPoIB
	h := Deploy(cl, cfg)
	clientNode := dns + 1
	cl.SpawnOn(clientNode, "test-client", func(e exec.Env) {
		e.Sleep(10 * time.Millisecond) // let services come up
		fn(e, h, h.NewClient(clientNode))
	})
	cl.RunUntil(30 * time.Minute)
	return h
}

func TestWriteReadRoundTrip(t *testing.T) {
	const size = 200 << 20 // 4 blocks: 3 full + 1 partial (64MB blocks)
	deploy(t, 4, Config{}, func(e exec.Env, h *HDFS, c *DFSClient) {
		if err := c.CreateFile(e, "/data/f1", size, 0); err != nil {
			t.Error(err)
			return
		}
		st, err := c.GetFileInfo(e, "/data/f1")
		if err != nil || !st.Exists {
			t.Errorf("getFileInfo: %v %+v", err, st)
			return
		}
		if st.Length != size {
			t.Errorf("length=%d want %d", st.Length, size)
		}
		n, err := c.ReadFile(e, "/data/f1")
		if err != nil || n != size {
			t.Errorf("read %d bytes, err=%v", n, err)
		}
	})
}

func TestReplicationPlacement(t *testing.T) {
	h := deploy(t, 5, Config{Replication: 3}, func(e exec.Env, h *HDFS, c *DFSClient) {
		if err := c.CreateFile(e, "/f", 64<<20, 3); err != nil {
			t.Error(err)
		}
	})
	locs := h.NameNode().LocationsOf("/f")
	if len(locs) != 1 {
		t.Fatalf("blocks=%d", len(locs))
	}
	if len(locs[0]) != 3 {
		t.Fatalf("replicas=%d want 3", len(locs[0]))
	}
	seen := map[int32]bool{}
	for _, dn := range locs[0] {
		if seen[dn] {
			t.Fatalf("duplicate replica on dn %d", dn)
		}
		seen[dn] = true
	}
}

func TestWriterLocalityPreferred(t *testing.T) {
	// A client co-located with a DataNode gets its first replica locally.
	cl := cluster.New(cluster.Config{Nodes: 5, Seed: 1, DiskReadBW: 110e6,
		DiskWriteBW: 95e6, DiskSeek: 6 * time.Millisecond})
	cfg := Config{NameNode: 0, DataNodes: []int{1, 2, 3, 4},
		RPCKind: perfmodel.IPoIB, DataKind: perfmodel.IPoIB}
	h := Deploy(cl, cfg)
	cl.SpawnOn(2, "writer", func(e exec.Env) {
		e.Sleep(10 * time.Millisecond)
		c := h.NewClient(2)
		if err := c.CreateFile(e, "/local", 1<<20, 2); err != nil {
			t.Error(err)
		}
	})
	cl.RunUntil(time.Minute)
	locs := h.NameNode().LocationsOf("/local")
	if len(locs) != 1 || len(locs[0]) != 2 {
		t.Fatalf("locs=%v", locs)
	}
	foundLocal := false
	for _, dn := range locs[0] {
		if dn == 2 {
			foundLocal = true
		}
	}
	if !foundLocal {
		t.Fatalf("first replica not local: %v", locs[0])
	}
}

func TestNamespaceOps(t *testing.T) {
	deploy(t, 2, Config{Replication: 1}, func(e exec.Env, h *HDFS, c *DFSClient) {
		if err := c.Mkdirs(e, "/dir"); err != nil {
			t.Error(err)
		}
		if err := c.CreateFile(e, "/dir/a", 1024, 1); err != nil {
			t.Error(err)
		}
		if err := c.CreateFile(e, "/dir/b", 2048, 1); err != nil {
			t.Error(err)
		}
		entries, err := c.GetListing(e, "/dir")
		if err != nil || len(entries) != 2 {
			t.Errorf("listing: %v %v", err, entries)
			return
		}
		if entries[0].Path != "/dir/a" || entries[1].Path != "/dir/b" {
			t.Errorf("listing order: %+v", entries)
		}
		if err := c.Rename(e, "/dir/a", "/dir/c"); err != nil {
			t.Error(err)
		}
		if st, _ := c.GetFileInfo(e, "/dir/a"); st.Exists {
			t.Error("/dir/a still exists after rename")
		}
		if st, _ := c.GetFileInfo(e, "/dir/c"); !st.Exists || st.Length != 1024 {
			t.Errorf("/dir/c: %+v", st)
		}
		if err := c.Delete(e, "/dir/c"); err != nil {
			t.Error(err)
		}
		if st, _ := c.GetFileInfo(e, "/dir/c"); st.Exists {
			t.Error("/dir/c survived delete")
		}
		if err := c.RenewLease(e); err != nil {
			t.Error(err)
		}
	})
}

func TestCreateExistingFileFails(t *testing.T) {
	deploy(t, 2, Config{Replication: 1}, func(e exec.Env, h *HDFS, c *DFSClient) {
		if err := c.CreateFile(e, "/dup", 100, 1); err != nil {
			t.Error(err)
		}
		if err := c.CreateFile(e, "/dup", 100, 1); err == nil {
			t.Error("second create should fail")
		}
	})
}

func TestDiskBytesMatchReplication(t *testing.T) {
	const size = 64 << 20
	cl := cluster.New(cluster.Config{Nodes: 5, Seed: 1, DiskReadBW: 110e6,
		DiskWriteBW: 95e6, DiskSeek: 6 * time.Millisecond})
	cfg := Config{NameNode: 0, DataNodes: []int{1, 2, 3},
		RPCKind: perfmodel.IPoIB, DataKind: perfmodel.IPoIB, Replication: 3}
	h := Deploy(cl, cfg)
	cl.SpawnOn(4, "writer", func(e exec.Env) {
		e.Sleep(10 * time.Millisecond)
		if err := h.NewClient(4).CreateFile(e, "/f", size, 3); err != nil {
			t.Error(err)
		}
	})
	cl.RunUntil(10 * time.Minute)
	var total int64
	for n := 1; n <= 3; n++ {
		total += cl.Node(n).Disk.BytesWritten
	}
	if total != 3*size {
		t.Fatalf("disk bytes=%d want %d", total, 3*size)
	}
}

func TestWriteTimeScalesWithSize(t *testing.T) {
	timeFor := func(size int64) time.Duration {
		var took time.Duration
		deploy(t, 4, Config{Replication: 3}, func(e exec.Env, h *HDFS, c *DFSClient) {
			start := e.Now()
			if err := c.CreateFile(e, "/t", size, 3); err != nil {
				t.Error(err)
				return
			}
			took = e.Now() - start
		})
		return took
	}
	t1, t2 := timeFor(1<<30), timeFor(2<<30)
	t.Logf("1GB=%v 2GB=%v", t1, t2)
	ratio := float64(t2) / float64(t1)
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("write time not ~linear in size: 1GB=%v 2GB=%v", t1, t2)
	}
	// Sanity: a 1 GB replicated write on 95 MB/s disks takes 10-60 s.
	if t1 < 8*time.Second || t1 > 90*time.Second {
		t.Fatalf("1GB write time %v implausible", t1)
	}
}

func TestDataPathKindMatters(t *testing.T) {
	timeFor := func(kind perfmodel.LinkKind, rdma bool) time.Duration {
		var took time.Duration
		cfg := Config{Replication: 3, DataRDMA: rdma}
		cl := cluster.New(cluster.Config{Nodes: 6, Seed: 1, DiskReadBW: 110e6,
			// Fast disks so the network dominates and the transport choice shows.
			DiskWriteBW: 2e9, DiskSeek: time.Millisecond})
		cfg.NameNode = 0
		cfg.DataNodes = []int{1, 2, 3, 4}
		cfg.RPCKind = perfmodel.IPoIB
		cfg.DataKind = kind
		h := Deploy(cl, cfg)
		cl.SpawnOn(5, "writer", func(e exec.Env) {
			e.Sleep(10 * time.Millisecond)
			start := e.Now()
			if err := h.NewClient(5).CreateFile(e, "/f", 512<<20, 3); err != nil {
				t.Error(err)
				return
			}
			took = e.Now() - start
		})
		cl.RunUntil(10 * time.Minute)
		return took
	}
	oneGigE := timeFor(perfmodel.OneGigE, false)
	ipoib := timeFor(perfmodel.IPoIB, false)
	ib := timeFor(perfmodel.IPoIB, true)
	t.Logf("write 512MB: 1GigE=%v IPoIB=%v HDFSoIB=%v", oneGigE, ipoib, ib)
	if !(ib < ipoib && ipoib < oneGigE) {
		t.Fatalf("expected IB < IPoIB < 1GigE, got %v %v %v", ib, ipoib, oneGigE)
	}
}

func TestHeartbeatsAndProfile(t *testing.T) {
	reg := metrics.New()
	deploy(t, 3, Config{Metrics: reg, Replication: 2, HeartbeatInterval: 500 * time.Millisecond},
		func(e exec.Env, h *HDFS, c *DFSClient) {
			if err := c.CreateFile(e, "/f", 10<<20, 2); err != nil {
				t.Error(err)
			}
			e.Sleep(3 * time.Second) // let heartbeats accumulate
			h.Stop()
		})
	profile := reg.Snapshot(0)
	byKey := map[string]core.SendRow{}
	for _, r := range core.SendRows(profile) {
		byKey[r.Kind.String()] = r
	}
	for _, want := range []string{
		"hdfs.DatanodeProtocol.sendHeartbeat",
		"hdfs.DatanodeProtocol.blockReceived",
		"hdfs.ClientProtocol.addBlock",
		"hdfs.ClientProtocol.create",
		"hdfs.ClientProtocol.complete",
	} {
		if _, ok := byKey[want]; !ok {
			t.Errorf("no Table I row for %s (have %v)", want, byKey)
		}
	}
	// Heartbeats repeat: multiple samples with stable sizes (size locality).
	hb := byKey["hdfs.DatanodeProtocol.sendHeartbeat"]
	if hb.Count < 6 {
		t.Errorf("heartbeat count=%d", hb.Count)
	}
	loc := core.SizeLocalityOf(profile, core.CallKind{Protocol: DatanodeProtocol, Method: "sendHeartbeat"})
	if loc.Calls != hb.Count || loc.Locality < 0.95 {
		t.Errorf("heartbeat size locality %+v over %d sends, want ~1.0", loc, hb.Count)
	}
	// Baseline Algorithm-1 adjustments on a ~150-byte heartbeat: 32->64->128->256 = 3.
	if hb.AvgAdjustments < 2 || hb.AvgAdjustments > 4 {
		t.Errorf("heartbeat adjustments=%.1f", hb.AvgAdjustments)
	}
}

func TestRPCoIBControlPlane(t *testing.T) {
	deploy(t, 3, Config{RPCMode: core.ModeRPCoIB, Replication: 2},
		func(e exec.Env, h *HDFS, c *DFSClient) {
			if err := c.CreateFile(e, "/f", 10<<20, 2); err != nil {
				t.Error(err)
				return
			}
			n, err := c.ReadFile(e, "/f")
			if err != nil || n != 10<<20 {
				t.Errorf("read %d, %v", n, err)
			}
		})
}

func TestConcurrentWriters(t *testing.T) {
	cl := cluster.New(cluster.Config{Nodes: 6, Seed: 1, DiskReadBW: 110e6,
		DiskWriteBW: 95e6, DiskSeek: 6 * time.Millisecond})
	cfg := Config{NameNode: 0, DataNodes: []int{1, 2, 3, 4},
		RPCKind: perfmodel.IPoIB, DataKind: perfmodel.IPoIB, Replication: 2}
	h := Deploy(cl, cfg)
	okCount := 0
	for w := 0; w < 4; w++ {
		w := w
		node := 1 + w
		cl.SpawnOn(node, fmt.Sprintf("writer%d", w), func(e exec.Env) {
			e.Sleep(10 * time.Millisecond)
			c := h.NewClient(node)
			if err := c.CreateFile(e, fmt.Sprintf("/w%d", w), 32<<20, 2); err != nil {
				t.Error(err)
				return
			}
			okCount++
		})
	}
	cl.RunUntil(10 * time.Minute)
	if okCount != 4 {
		t.Fatalf("writers done=%d", okCount)
	}
	for w := 0; w < 4; w++ {
		if locs := h.NameNode().LocationsOf(fmt.Sprintf("/w%d", w)); len(locs) != 1 {
			t.Fatalf("file w%d blocks=%v", w, locs)
		}
	}
}
