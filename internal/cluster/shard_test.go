package cluster

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"rpcoib/internal/exec"
	"rpcoib/internal/perfmodel"
)

// Metric names used by the sharded-cluster test scenario.
const (
	testShardCallsMetric = "test_shard_calls_total"
	testShardBytesMetric = "test_shard_bytes_total"
	testShardLatMetric   = "test_shard_latency_ns"
)

// runShardClusterScenario runs a request/response scenario across nodes on
// the sharded stack: every node's client process sends fixed-size requests
// over the IB fabric to a server process on node 0, which does simulated CPU
// work and replies. Metrics land in the cluster's registry; its snapshot
// must be byte-identical for every layout.
func runShardClusterScenario(t *testing.T, shards, procs int) ([]byte, time.Duration) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	cfg := ClusterA(8)
	cfg.Shards = shards
	look := perfmodel.Link(perfmodel.NativeIB).Latency
	sc := NewSharded(cfg, look)
	defer sc.Close()
	fab := sc.NewFabric(perfmodel.NativeIB)

	const reqSize = 1024
	// Server: node 0 handles requests in kernel callbacks (the fabric deliver
	// runs on node 0's shard), replying after a per-request service jitter.
	serve := func(src int, respond func()) {
		lat := time.Duration(sc.NodeRand(0).Intn(5000)) * time.Nanosecond
		sc.LocalAt(0, sc.NowAt(0)+lat, func() {
			fab.Send(0, src, reqSize/4, respond)
		})
	}

	for n := 1; n < sc.Nodes(); n++ {
		node := n
		sc.SpawnOn(node, "client", func(e exec.Env) {
			reg := sc.Registry(node)
			calls := reg.Counter(testShardCallsMetric)
			bytes := reg.Counter(testShardBytesMetric)
			lat := reg.Histogram(testShardLatMetric, nil)
			for i := 0; i < 20; i++ {
				start := e.Now()
				done := e.NewQueue(1)
				sc.LocalAt(node, e.Now(), func() {
					fab.Send(node, 0, reqSize, func() {
						serve(node, func() {
							done.TryPut(struct{}{})
						})
					})
				})
				done.Get(e)
				calls.Add(1)
				bytes.Add(reqSize)
				lat.Observe(int64(e.Now() - start))
				e.Sleep(time.Duration(e.Rand().Intn(20000)) * time.Nanosecond)
			}
		})
	}
	end := sc.Run()
	snap := sc.Snapshot(end)
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return b, end
}

func TestShardedClusterDeterministicAcrossLayouts(t *testing.T) {
	ref, refEnd := runShardClusterScenario(t, 1, 1)
	for _, shards := range []int{2, 4, 8} {
		for _, procs := range []int{1, 8} {
			got, end := runShardClusterScenario(t, shards, procs)
			if end != refEnd {
				t.Fatalf("shards=%d procs=%d: end time %v, want %v", shards, procs, end, refEnd)
			}
			if string(got) != string(ref) {
				t.Fatalf("shards=%d procs=%d: merged snapshot diverged\n got %s\nwant %s", shards, procs, got, ref)
			}
		}
	}
}

func TestAssignShards(t *testing.T) {
	got := AssignShards(10, 4)
	want := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AssignShards(10,4) = %v, want %v", got, want)
		}
	}
	if a := AssignShards(3, 8); a[0] != 0 || a[1] != 1 || a[2] != 2 {
		t.Fatalf("AssignShards(3,8) = %v, want one node per shard", a)
	}
}

func TestShardFabricLoopbackStaysLocal(t *testing.T) {
	cfg := ClusterA(4)
	cfg.Shards = 2
	sc := NewSharded(cfg, perfmodel.Link(perfmodel.NativeIB).Latency)
	defer sc.Close()
	fab := sc.NewFabric(perfmodel.NativeIB)
	delivered := false
	sc.LocalAt(3, 0, func() {
		fab.Send(3, 3, 64, func() { delivered = true })
	})
	sc.Run()
	if !delivered {
		t.Fatal("loopback message not delivered")
	}
	if sc.Kernel.MergedMessages() != 0 {
		t.Fatalf("loopback crossed a shard boundary: %d merged messages", sc.Kernel.MergedMessages())
	}
	if fab.Delivered() != 1 || fab.DeliveredBytes() != 64 {
		t.Fatalf("delivered=%d bytes=%d, want 1/64", fab.Delivered(), fab.DeliveredBytes())
	}
}
