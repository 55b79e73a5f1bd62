// Package bench contains the experiment harness: one runner per table or
// figure in the paper's evaluation (Table I, Figures 1, 3, 5a, 5b, 6a, 6b,
// 7, 8a-c) plus the design-choice ablations. The cmd/ binaries and the
// repository-level testing.B benchmarks both call these runners, so the
// numbers in EXPERIMENTS.md regenerate from a single implementation.
package bench

import (
	"fmt"
	"io"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/hdfs"
	"rpcoib/internal/mapred"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// HadoopCluster is a combined HDFS+MapReduce deployment: node 0 runs the
// NameNode and JobTracker (and hosts the submitting client), nodes 1..N run
// DataNode+TaskTracker pairs — the paper's master/slaves layout.
type HadoopCluster struct {
	CL     *cluster.Cluster
	FS     *hdfs.HDFS
	MR     *mapred.MapReduce
	Slaves int
}

// HadoopConfig parameterizes NewHadoopCluster.
type HadoopConfig struct {
	Slaves    int
	Mode      core.Mode // RPC mode for both HDFS and MapReduce control planes
	BlockSize int64
	Seed      int64
}

// NewHadoopCluster deploys HDFS and MapReduce on a ClusterA-style testbed.
func NewHadoopCluster(cfg HadoopConfig) *HadoopCluster {
	cc := cluster.ClusterA(cfg.Slaves + 1)
	if cfg.Seed != 0 {
		cc.Seed = cfg.Seed
	}
	cl := newCluster(cc)
	nodes := make([]int, 0, cfg.Slaves)
	for i := 1; i <= cfg.Slaves; i++ {
		nodes = append(nodes, i)
	}
	fs := hdfs.Deploy(cl, hdfs.Config{
		NameNode: 0, DataNodes: nodes,
		BlockSize: cfg.BlockSize, Replication: 3,
		RPCMode: cfg.Mode, RPCKind: perfmodel.IPoIB, DataKind: perfmodel.IPoIB,
		Metrics: benchReg, Trace: benchTrace,
	})
	mr := mapred.Deploy(cl, mapred.Config{
		JobTracker: 0, TaskTrackers: nodes,
		MapSlots: 8, ReduceSlots: 4,
		RPCMode: cfg.Mode, RPCKind: perfmodel.IPoIB, ShuffleKind: perfmodel.IPoIB,
		Metrics: benchReg, Trace: benchTrace,
	}, fs)
	return &HadoopCluster{CL: cl, FS: fs, MR: mr, Slaves: cfg.Slaves}
}

// RunClient executes fn as a client process on the master node and drives
// the simulation until it finishes (bounded by horizon). It returns the
// virtual time at which the simulation went quiescent.
func (hc *HadoopCluster) RunClient(horizon time.Duration, fn func(e exec.Env)) time.Duration {
	hc.CL.SpawnOn(0, "bench-client", func(e exec.Env) {
		e.Sleep(100 * time.Millisecond)
		fn(e)
	})
	return hc.CL.RunUntil(horizon)
}

// netFor picks the transport for a node under a mode/kind pair.
func netFor(cl *cluster.Cluster, mode core.Mode, kind perfmodel.LinkKind, node int) transport.Network {
	if mode == core.ModeRPCoIB {
		return cl.RPCoIBNet(node)
	}
	return cl.SocketNet(kind, node)
}

// startPingPongServer registers the micro-benchmark's pingpong method.
func startPingPongServer(cl *cluster.Cluster, mode core.Mode, kind perfmodel.LinkKind, handlers int) {
	cl.SpawnOn(0, "rpc-server", func(e exec.Env) {
		srv := core.NewServer(netFor(cl, mode, kind, 0), core.Options{
			Mode: mode, Costs: cl.Costs, Handlers: handlers,
			Metrics: benchReg, Trace: benchTrace,
		})
		srv.Register("bench.PingPongProtocol", "pingpong",
			func() wire.Writable { return &wire.BytesWritable{} },
			func(e exec.Env, p wire.Writable) (wire.Writable, error) { return p, nil })
		if err := srv.Start(e, 9000); err != nil {
			panic(err)
		}
	})
}

// Fprintf is fmt.Fprintf with a nil-safe writer, so runners can be called
// with or without console output.
func Fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

// GB is 2^30 bytes.
const GB = int64(1) << 30
