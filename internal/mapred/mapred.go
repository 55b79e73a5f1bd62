package mapred

import (
	"fmt"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/hdfs"
	"rpcoib/internal/metrics"
	"rpcoib/internal/netsim"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/tracing"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// Well-known ports.
const (
	jtPort      = 8021
	umbPort     = 50020
	shufflePort = 50060
)

// Config selects a mini-MapReduce deployment.
type Config struct {
	// JobTracker hosts the JobTracker.
	JobTracker int
	// TaskTrackers hosts one TaskTracker each.
	TaskTrackers []int
	// MapSlots and ReduceSlots per tracker (paper: 8 and 4).
	MapSlots    int
	ReduceSlots int
	// RPCMode switches all Hadoop RPC between sockets and RPCoIB.
	RPCMode core.Mode
	// RPCKind is the socket fabric for baseline RPC.
	RPCKind perfmodel.LinkKind
	// ShuffleKind is the fabric the HTTP-like shuffle uses (stays on
	// sockets in the paper's MapReduce experiments).
	ShuffleKind perfmodel.LinkKind
	// HeartbeatInterval defaults to 3 s (Hadoop 0.20 cluster of this size).
	HeartbeatInterval time.Duration
	// Trace streams distributed spans from every RPC endpoint when set.
	Trace *tracing.Tracer
	// Metrics, when non-nil, instruments the JobTracker, TaskTracker, and
	// umbilical RPC endpoints.
	Metrics *metrics.Registry
	// RPCPolicy is applied to every client RPC (retries, deadlines); the zero
	// value keeps single-attempt calls.
	RPCPolicy core.CallPolicy
	// RPCFailover arms the clients' circuit breakers (RPCoIB verbs → IPoIB
	// socket failover).
	RPCFailover bool
	// RPCCallTimeout overrides the per-attempt call timeout
	// (core.DefaultCallTimeout if 0).
	RPCCallTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MapSlots <= 0 {
		c.MapSlots = 8
	}
	if c.ReduceSlots <= 0 {
		c.ReduceSlots = 4
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 3 * time.Second
	}
	return c
}

// MapReduce is a deployed mini-MapReduce instance over an (optional) HDFS.
type MapReduce struct {
	c      *cluster.Cluster
	cfg    Config
	dfs    *hdfs.HDFS
	jt     *JobTracker
	tts    []*TaskTracker
	jtAddr string
	stopQ  exec.Queue
	server *core.Server

	// rt shares one RPC client per node across the TaskTracker, every child
	// task's umbilical, and job clients on that node.
	rt *core.Runtime

	// inputLocality maps input file -> nodes holding replicas, consulted by
	// the scheduler for map locality.
	inputLocality map[string][]int
	jobConfs      map[int32]*SubmitJobParam
	kicks         []exec.Queue
}

// Deploy spawns the JobTracker and TaskTrackers. dfs may be nil for
// synthetic-input jobs.
func Deploy(c *cluster.Cluster, cfg Config, dfs *hdfs.HDFS) *MapReduce {
	cfg = cfg.withDefaults()
	mr := &MapReduce{
		c: c, cfg: cfg, dfs: dfs,
		jtAddr:        netsim.Addr(cfg.JobTracker, jtPort),
		rt:            core.NewRuntime(),
		inputLocality: map[string][]int{},
		jobConfs:      map[int32]*SubmitJobParam{},
	}
	mr.jt = newJobTracker(mr)
	c.SpawnOn(cfg.JobTracker, "jobtracker", func(e exec.Env) {
		mr.stopQ = e.NewQueue(0)
		srv := core.NewServer(mr.rpcNet(cfg.JobTracker), core.Options{
			Mode: cfg.RPCMode, Costs: c.Costs,
			Metrics: cfg.Metrics, Trace: cfg.Trace, Handlers: 10,
		})
		mr.jt.register(srv)
		if err := srv.Start(e, jtPort); err != nil {
			panic(fmt.Sprintf("jobtracker: %v", err))
		}
		mr.server = srv
		for i, node := range cfg.TaskTrackers {
			tt := newTaskTracker(mr, node)
			mr.tts = append(mr.tts, tt)
			c.SpawnOn(node, fmt.Sprintf("tasktracker-%d", i), tt.run)
		}
	})
	return mr
}

// UmbilicalAddr returns the loopback umbilical address on node.
func (mr *MapReduce) UmbilicalAddr(node int) string { return netsim.Addr(node, umbPort) }

// ShuffleAddr returns the shuffle server address on node.
func (mr *MapReduce) ShuffleAddr(node int) string { return netsim.Addr(node, shufflePort) }

// registerKick records a tracker's out-of-band heartbeat queue for Stop.
func (mr *MapReduce) registerKick(q exec.Queue) { mr.kicks = append(mr.kicks, q) }

// Stop halts heartbeat loops and servers.
func (mr *MapReduce) Stop() {
	if mr.stopQ != nil {
		mr.stopQ.Close()
	}
	for _, q := range mr.kicks {
		q.Close()
	}
	if mr.server != nil {
		mr.server.Stop()
	}
}

// Runtime exposes the deployment's shared client runtime (fault-injection
// invariant checks walk its clients after a run).
func (mr *MapReduce) Runtime() *core.Runtime { return mr.rt }

func (mr *MapReduce) rpcNet(node int) transport.Network {
	if mr.cfg.RPCMode == core.ModeRPCoIB {
		return mr.c.RPCoIBNet(node)
	}
	return mr.c.SocketNet(mr.cfg.RPCKind, node)
}

func (mr *MapReduce) shuffleNet(node int) transport.Network {
	return mr.c.SocketNet(mr.cfg.ShuffleKind, node)
}

// newRPCClient returns the node's shared RPC client: every child task's
// umbilical, the TaskTracker's JobTracker channel, and job clients on the
// node multiplex one connection per destination instead of spinning up a
// throwaway client (and receiver thread) per task.
func (mr *MapReduce) newRPCClient(node int) *core.Client {
	return mr.rt.Client(node, "mr-rpc", func() *core.Client {
		return core.NewClient(mr.rpcNet(node), core.Options{
			Mode: mr.cfg.RPCMode, Costs: mr.c.Costs,
			Metrics:     mr.cfg.Metrics,
			Trace:       mr.cfg.Trace,
			Policy:      mr.cfg.RPCPolicy,
			CallTimeout: mr.cfg.RPCCallTimeout,
			Failover:    mr.cfg.RPCFailover,
		})
	})
}

// jobConf returns the submitted configuration of a job (children read the
// equivalent of job.xml from their tracker's local disk).
func (mr *MapReduce) jobConf(job int32) *SubmitJobParam { return mr.jobConfs[job] }

// JobResult reports a finished job.
type JobResult struct {
	Status   JobStatus
	Duration time.Duration
}

// RunJob submits conf from a client on node and polls until completion. The
// caller must be a simulated process (it blocks).
func (mr *MapReduce) RunJob(e exec.Env, node int, conf SubmitJobParam) (*JobResult, error) {
	if conf.OutputReplication <= 0 {
		conf.OutputReplication = 3
	}
	if conf.MapOutputRatioPct == 0 {
		conf.MapOutputRatioPct = 100
	}
	if conf.ReduceOutRatioPct == 0 {
		conf.ReduceOutRatioPct = 100
	}
	// Resolve input locality for the scheduler.
	if mr.dfs != nil {
		for _, f := range conf.InputFiles {
			var nodes []int
			for _, blockLocs := range mr.dfs.NameNode().LocationsOf(f) {
				for _, dn := range blockLocs {
					nodes = append(nodes, int(dn))
				}
			}
			mr.inputLocality[f] = nodes
		}
	}
	client := mr.newRPCClient(node)
	var jobID wire.IntWritable
	start := e.Now()
	if err := client.Call(e, mr.jtAddr, JobSubmissionProtocol, "submitJob", &conf, &jobID); err != nil {
		return nil, err
	}
	mr.jobConfs[jobID.Value] = &conf
	for {
		// Pipelined status polling: the poll is issued as a future and the
		// 1 s polling pause runs while it is in flight, so the JobTracker
		// round trip is hidden inside the sleep instead of added to it.
		var st JobStatus
		fut := client.CallAsync(e, mr.jtAddr, JobSubmissionProtocol, "getJobStatus",
			&wire.IntWritable{Value: jobID.Value}, &st)
		e.Sleep(time.Second)
		if err := fut.Wait(e); err != nil {
			return nil, err
		}
		if st.Failed {
			return &JobResult{Status: st, Duration: e.Now() - start}, fmt.Errorf("job %d failed", st.Job)
		}
		if st.Complete {
			d := e.Now() - start
			if st.RuntimeNs > 0 {
				// The JobTracker's own measurement avoids the 1 s polling
				// quantization.
				d = time.Duration(st.RuntimeNs)
			}
			// Output-committer cleanup: remove the temporary directory.
			if conf.WritesHDFSOutput && mr.dfs != nil && conf.OutputPath != "" {
				dfs := mr.dfs.Client(node)
				dfs.Delete(e, conf.OutputPath+"/_temporary")
			}
			return &JobResult{Status: st, Duration: d}, nil
		}
	}
}
