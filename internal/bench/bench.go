// Package bench contains the experiment harness: one runner per table or
// figure in the paper's evaluation (Table I, Figures 1, 3, 5a, 5b, 6a, 6b,
// 7, 8a-c) plus the design-choice ablations. Each runner is a method on a
// Harness, which holds what its runs record into (metrics, trace, fault plan).
// The cmd/ binaries and the repository-level testing.B benchmarks both call
// these runners, so the numbers in EXPERIMENTS.md regenerate from a single
// implementation.
package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"rpcoib/internal/bufpool"
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
func (h *Harness) NewHadoopCluster(cfg HadoopConfig) *HadoopCluster {
	cc := cluster.ClusterA(cfg.Slaves + 1)
	if cfg.Seed != 0 {
		cc.Seed = cfg.Seed
	}
	cl := h.newCluster(cc)
	nodes := make([]int, 0, cfg.Slaves)
	for i := 1; i <= cfg.Slaves; i++ {
		nodes = append(nodes, i)
	}
	fs := hdfs.Deploy(cl, hdfs.Config{
		NameNode: 0, DataNodes: nodes,
		BlockSize: cfg.BlockSize, Replication: 3,
		RPCMode: cfg.Mode, RPCKind: perfmodel.IPoIB, DataKind: perfmodel.IPoIB,
		Metrics: h.reg, Trace: h.tracer,
	})
	mr := mapred.Deploy(cl, mapred.Config{
		JobTracker: 0, TaskTrackers: nodes,
		MapSlots: 8, ReduceSlots: 4,
		RPCMode: cfg.Mode, RPCKind: perfmodel.IPoIB, ShuffleKind: perfmodel.IPoIB,
		Metrics: h.reg, Trace: h.tracer,
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

// pingPong configures one Cluster B ping-pong run, the shape of every
// micro-benchmark and ablation: an echo server on node 0, clients on nodes
// 1..8 in turn, each making warmup untimed calls and then calls timed ones.
// Zero handlers, readers, pools or threshold keep the engine's and the
// testbed's defaults.
type pingPong struct {
	name                   string // the run's name in the -metrics log
	mode                   core.Mode
	kind                   perfmodel.LinkKind
	threshold              int // eager/RDMA crossover
	handlers, readers      int
	serverPool, clientPool *bufpool.ShadowPool
	payload                int
	clients                int // 0 is one
	warmup, calls          int // per client
	horizon                time.Duration
}

// pingPongRun is what a ping-pong run leaves: the cluster, for its device
// counters; the virtual time the simulation went quiescent, which stamps the
// run's -metrics snapshot; and the virtual time from the first timed call to
// the last reply.
type pingPongRun struct {
	cl           *cluster.Cluster
	end, elapsed time.Duration
}

// pingPong runs pp to its horizon and records it. A client that has not
// finished its calls by then is a deadlocked benchmark.
func (h *Harness) pingPong(pp pingPong) pingPongRun {
	cc := cluster.ClusterB()
	if pp.threshold != 0 {
		cc.RDMAThreshold = pp.threshold
	}
	cl := h.newCluster(cc)
	base := core.Options{Mode: pp.mode, Costs: cl.Costs, Metrics: h.reg, Trace: h.tracer}
	cl.SpawnOn(0, "server", func(e exec.Env) {
		opts := base
		opts.Handlers, opts.Readers, opts.Pool = pp.handlers, pp.readers, pp.serverPool
		srv := core.NewServer(netFor(cl, pp.mode, pp.kind, 0), opts)
		srv.Register("bench.PingPongProtocol", "pingpong",
			func() wire.Writable { return &wire.BytesWritable{} },
			func(e exec.Env, p wire.Writable) (wire.Writable, error) { return p, nil })
		if err := srv.Start(e, 9000); err != nil {
			panic(err)
		}
	})
	clients := max(pp.clients, 1)
	done := 0
	start, finish := time.Duration(math.MaxInt64), time.Duration(0)
	for i := 0; i < clients; i++ {
		node := 1 + i%8
		cl.SpawnOn(node, "client", func(e exec.Env) {
			e.Sleep(time.Millisecond)
			opts := base
			opts.Pool = pp.clientPool
			client := core.NewClient(netFor(cl, pp.mode, pp.kind, node), opts)
			param := &wire.BytesWritable{Value: make([]byte, pp.payload)}
			var reply wire.BytesWritable
			for j := 0; j < pp.warmup+pp.calls; j++ {
				if j == pp.warmup {
					start = min(start, e.Now())
				}
				if err := client.Call(e, "node0:9000", "bench.PingPongProtocol", "pingpong", param, &reply); err != nil {
					panic(err)
				}
			}
			finish = max(finish, e.Now())
			done++
		})
	}
	end := cl.RunUntil(pp.horizon)
	if done != clients {
		panic(fmt.Sprintf("%s: %d of %d clients finished", pp.name, done, clients))
	}
	h.record(pp.name, end)
	return pingPongRun{cl: cl, end: end, elapsed: finish - start}
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
