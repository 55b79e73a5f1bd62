package hdfs

import (
	"fmt"
	"sync"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/metrics"
	"rpcoib/internal/netsim"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/tracing"
	"rpcoib/internal/transport"
)

// Well-known ports.
const (
	nnPort   = 8020
	dataPort = 50010
)

// Data-path packet processing costs. Each pipeline hop (the client preparing
// packets, every DataNode xceiver) pays per-packet CPU for checksum
// computation/verification (CRC32 per 512-byte chunk), stream decoding, and
// Java-side buffer copies. The RDMA data path (HDFSoIB) is cheaper per byte:
// fewer copies and no socket-stream handling. These constants set the
// single-stream pipeline throughput: ~115 MB/s over sockets and ~185 MB/s
// over verbs, matching the era's measured HDFS write rates (the paper's
// Figure 7 levels).
const (
	packetBaseCPU        = 25 * time.Microsecond
	packetPerKBSocketCPU = 7600 * time.Nanosecond
	packetPerKBRDMACPU   = 5100 * time.Nanosecond
)

// dirtyBudget bounds un-flushed page-cache bytes per DataNode: block writes
// complete into the cache and the disk flushes behind, but sustained writes
// beyond disk bandwidth eventually throttle (kernel writeback).
const dirtyBudget = 1 << 30

// packetCPU returns the per-hop processing cost of an n-byte packet.
func packetCPU(rdma bool, n int) time.Duration {
	perKB := packetPerKBSocketCPU
	if rdma {
		perKB = packetPerKBRDMACPU
	}
	return packetBaseCPU + time.Duration(int64(perKB)*int64(n)/1024)
}

// Config selects a mini-HDFS deployment. The control plane (RPC) and the
// data plane are switched independently, giving Figure 7's configuration
// matrix: HDFS{1GigE, IPoIB, oIB} x RPC{1GigE, IPoIB, oIB}.
type Config struct {
	// NameNode is the node hosting the NameNode.
	NameNode int
	// DataNodes hosts one DataNode each.
	DataNodes []int
	// BlockSize defaults to 64 MB (the Hadoop 0.20.2 default).
	BlockSize int64
	// Replication defaults to 3.
	Replication int
	// PacketSize defaults to 64 KB.
	PacketSize int
	// RPCMode selects baseline sockets or RPCoIB for Hadoop RPC.
	RPCMode core.Mode
	// RPCKind is the socket fabric for baseline RPC (ignored under RPCoIB).
	RPCKind perfmodel.LinkKind
	// DataRDMA routes the block data path over verbs (HDFSoIB).
	DataRDMA bool
	// DataKind is the socket fabric for the data path when DataRDMA is off.
	DataKind perfmodel.LinkKind
	// HeartbeatInterval defaults to 3 s.
	HeartbeatInterval time.Duration
	// Handlers sizes the NameNode RPC handler pool (default 10, Hadoop's
	// dfs.namenode.handler.count).
	Handlers int
	// Trace streams distributed spans from every RPC endpoint and DFSClient
	// operation when set (see internal/tracing).
	Trace *tracing.Tracer
	// Metrics, when non-nil, instruments all RPC endpoints and the block
	// data pipeline (per-stage packet/byte counters).
	Metrics *metrics.Registry
	// RPCPolicy is applied to every control-plane client call (retries with
	// backoff, optional per-call deadline propagated to the NameNode). The
	// zero value keeps single-attempt calls.
	RPCPolicy core.CallPolicy
	// RPCFailover arms the control-plane clients' circuit breakers: under
	// RPCoIB, verbs-path failures re-route NameNode calls over IPoIB sockets
	// until the fabric heals. No effect on baseline socket RPC.
	RPCFailover bool
	// RPCCallTimeout overrides the control-plane per-attempt call timeout
	// (core.DefaultCallTimeout if 0). Short timeouts make breaker failover
	// react within an outage instead of after it.
	RPCCallTimeout time.Duration
	// RPCShedOverload makes the NameNode shed calls as retriable "too busy"
	// responses instead of blocking readers (core.Options.ShedOverload).
	RPCShedOverload bool
	// RPCBusyBackoff is the retry delay shed responses suggest
	// (core.DefaultBusyBackoff if 0).
	RPCBusyBackoff time.Duration
	// RPCOverloaded, with RPCShedOverload, sheds every arriving NameNode call
	// while it reports true — the hook a registered-memory budget
	// (ibverbs.MemoryBudget.Exhausted) uses to degrade through the busy path
	// when client state would register past its cap (DESIGN.md S23). Must be
	// deterministic under simulation.
	RPCOverloaded func() bool
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 64 << 20
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.PacketSize <= 0 {
		c.PacketSize = 64 << 10
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 3 * time.Second
	}
	if c.Handlers <= 0 {
		c.Handlers = 10
	}
	return c
}

// HDFS is a deployed mini-HDFS instance.
type HDFS struct {
	c      *cluster.Cluster
	cfg    Config
	nnAddr string
	nn     *NameNode
	dns    []*DataNode
	stopQ  exec.Queue
	server *core.Server
	m      hdfsMetrics

	// rt shares one RPC client per <node, config> across every DataNode,
	// DFSClient, and substrate task on that node.
	rt *core.Runtime

	clientMu sync.Mutex
	clients  map[int]*DFSClient
}

// Deploy spawns the NameNode and DataNodes. It returns immediately; the
// services come up within the first simulated milliseconds.
func Deploy(c *cluster.Cluster, cfg Config) *HDFS {
	cfg = cfg.withDefaults()
	h := &HDFS{c: c, cfg: cfg, nnAddr: netsim.Addr(cfg.NameNode, nnPort),
		m: newHDFSMetrics(cfg.Metrics), rt: core.NewRuntime(), clients: map[int]*DFSClient{}}
	h.nn = newNameNode(h)

	c.SpawnOn(cfg.NameNode, "namenode", func(e exec.Env) {
		h.stopQ = e.NewQueue(0)
		srv := core.NewServer(h.rpcNet(cfg.NameNode), core.Options{
			Mode: cfg.RPCMode, Costs: c.Costs,
			Metrics: cfg.Metrics, Trace: cfg.Trace, Handlers: cfg.Handlers,
			ShedOverload: cfg.RPCShedOverload, BusyBackoff: cfg.RPCBusyBackoff,
			Overloaded: cfg.RPCOverloaded,
		})
		h.nn.register(srv)
		if err := srv.Start(e, nnPort); err != nil {
			panic(fmt.Sprintf("namenode: %v", err))
		}
		h.server = srv
		// The under-replication repair scanner (FSNamesystem's replication
		// monitor).
		c.SpawnOn(cfg.NameNode, "nn-replication-monitor", func(me exec.Env) {
			for {
				_, ok, timedOut := h.stopQ.GetTimeout(me, cfg.HeartbeatInterval)
				if !timedOut && !ok {
					return
				}
				h.nn.checkReplication(me)
			}
		})
		for i, node := range cfg.DataNodes {
			dn := &DataNode{
				h: h, id: int32(node), node: node,
				blocks: map[int64]int64{},
				rpc:    h.newRPCClient(node),
				dirty:  c.Sim.NewResource(dirtyBudget),
			}
			h.dns = append(h.dns, dn)
			c.SpawnOn(node, fmt.Sprintf("datanode-%d", i), dn.run)
		}
	})
	return h
}

// NameNode exposes the metadata server (tests, schedulers).
func (h *HDFS) NameNode() *NameNode { return h.nn }

// Runtime exposes the deployment's shared client runtime (fault-injection
// invariant checks walk its clients after a run).
func (h *HDFS) Runtime() *core.Runtime { return h.rt }

// DataAddr returns the data-transfer address of node.
func (h *HDFS) DataAddr(node int) string { return netsim.Addr(node, dataPort) }

// Stop halts heartbeat loops and the NameNode server.
func (h *HDFS) Stop() {
	if h.stopQ != nil {
		h.stopQ.Close()
	}
	if h.server != nil {
		h.server.Stop()
	}
}

// rpcNet returns the control-plane network bound to node.
func (h *HDFS) rpcNet(node int) transport.Network {
	if h.cfg.RPCMode == core.ModeRPCoIB {
		return h.c.RPCoIBNet(node)
	}
	return h.c.SocketNet(h.cfg.RPCKind, node)
}

// dataNet returns the data-plane network bound to node.
func (h *HDFS) dataNet(node int) transport.Network {
	if h.cfg.DataRDMA {
		return h.c.RPCoIBNet(node)
	}
	return h.c.SocketNet(h.cfg.DataKind, node)
}

// newRPCClient returns the node's shared control-plane client, creating it
// on first use. Every caller on the node multiplexes over the same cached
// NameNode connection and warmed buffer-pool history.
func (h *HDFS) newRPCClient(node int) *core.Client {
	return h.rt.Client(node, "hdfs-rpc", func() *core.Client {
		return core.NewClient(h.rpcNet(node), core.Options{
			Mode: h.cfg.RPCMode, Costs: h.c.Costs,
			Metrics:     h.cfg.Metrics,
			Trace:       h.cfg.Trace,
			Policy:      h.cfg.RPCPolicy,
			CallTimeout: h.cfg.RPCCallTimeout,
			Failover:    h.cfg.RPCFailover,
		})
	})
}

// heartbeatClient returns the node's shared heartbeat client. Heartbeats use
// a short call timeout so a partitioned DataNode resumes promptly once the
// network heals, so they live under their own runtime config key.
func (h *HDFS) heartbeatClient(node int) *core.Client {
	return h.rt.Client(node, "hdfs-rpc-hb", func() *core.Client {
		return core.NewClient(h.rpcNet(node), core.Options{
			Mode: h.cfg.RPCMode, Costs: h.c.Costs,
			Metrics:     h.cfg.Metrics,
			Trace:       h.cfg.Trace,
			CallTimeout: 2*h.cfg.HeartbeatInterval + time.Second,
			Failover:    h.cfg.RPCFailover,
		})
	})
}

// NewClient returns a DFSClient bound to node. The underlying RPC client is
// the node's shared one, so "new" clients are cheap handles.
func (h *HDFS) NewClient(node int) *DFSClient {
	return &DFSClient{
		h: h, node: node,
		rpc:  h.newRPCClient(node),
		name: fmt.Sprintf("DFSClient_node%d", node),
	}
}

// Client returns the node's shared DFSClient (the per-node client-runtime
// handle substrates reuse across tasks and flushes). DFSClient methods are
// stateless and the lease-holder name is deterministic per node, so sharing
// one is safe.
func (h *HDFS) Client(node int) *DFSClient {
	h.clientMu.Lock()
	defer h.clientMu.Unlock()
	dc := h.clients[node]
	if dc == nil {
		dc = h.NewClient(node)
		h.clients[node] = dc
	}
	return dc
}
