// Package cluster assembles the simulated testbed: nodes with CPU cores and
// disks, the interconnect fabrics (1GigE / 10GigE / IPoIB / native IB over
// the same hosts, like the paper's multi-rail clusters), the exec.Env
// implementation that runs unmodified engine code inside the simulator, and
// transport.Network adapters over netsim sockets and ibverbs endpoints.
//
// Preset topologies mirror the paper: Cluster A (65 nodes, 8 cores, IB QDR +
// 1GigE) and Cluster B (9 nodes, additionally 10GigE).
package cluster

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"rpcoib/internal/exec"
	"rpcoib/internal/ibverbs"
	"rpcoib/internal/netsim"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/sim"
)

// Config sizes a simulated cluster.
type Config struct {
	// Nodes is the number of hosts.
	Nodes int
	// CoresPerNode models the dual quad-core Xeons of the paper's testbed.
	CoresPerNode int
	// DiskReadBW and DiskWriteBW are sequential HDD bandwidths (bytes/s).
	DiskReadBW  float64
	DiskWriteBW float64
	// DiskSeek is the per-operation positioning cost.
	DiskSeek time.Duration
	// Seed drives all simulation randomness.
	Seed int64
	// Shards is the shard count for the sharded kernel (see NewSharded);
	// the single-kernel New ignores it. <= 0 means one shard.
	Shards int
	// RDMAThreshold is the verbs eager/RDMA crossover (0 = default).
	RDMAThreshold int
	// ConnectTimeout bounds connect handshakes on every fabric (socket SYN
	// exchange and verbs QP bootstrap alike). 0 takes the
	// RPCOIB_CONNECT_TIMEOUT environment variable if set (a Go duration,
	// e.g. "400ms"), else DefaultConnectTimeout — far below the real ipc
	// 20 s so fault runs don't burn minutes of virtual time per dead dial.
	ConnectTimeout time.Duration
	// QPMuxPerPeer, when > 0, multiplexes RPCoIB connections over at most
	// this many physical QPs per <client node, server address> pair: logical
	// streams carry a stream id in the wire framing and attach to existing
	// QPs without a verbs handshake (DESIGN.md S23). 0 keeps the historical
	// dedicated-QP-per-connection behavior the paper measures.
	QPMuxPerPeer int
	// SRQDepth, when > 0, gives every device a shared receive queue of this
	// many posted WQEs instead of unbounded per-endpoint posted recvs;
	// arrivals that find it exhausted are RNR-delayed. SRQCreditPerQP caps
	// WQEs held per endpoint (0 = no per-endpoint cap).
	SRQDepth       int
	SRQCreditPerQP int
	// Topology lays nodes out over racks and gives each node Topology.IBRails
	// independent native-IB rails, each a full fabric + verbs network of its
	// own. The zero value is SingleRailTopology: one rail, byte-identical
	// with pre-topology clusters.
	Topology Topology
}

// DefaultConnectTimeout is the simulated clusters' connect timeout when
// neither Config.ConnectTimeout nor RPCOIB_CONNECT_TIMEOUT is set.
const DefaultConnectTimeout = 5 * time.Second

// ConnectTimeoutEnv names the environment override for Config.ConnectTimeout.
const ConnectTimeoutEnv = "RPCOIB_CONNECT_TIMEOUT"

// ClusterA returns the paper's 65-node QDR cluster (Intel Westmere, 8 cores,
// 12 GB RAM, one HDD per node).
func ClusterA(nodes int) Config {
	if nodes <= 0 {
		nodes = 65
	}
	return Config{
		Nodes:        nodes,
		CoresPerNode: 8,
		DiskReadBW:   110e6,
		DiskWriteBW:  95e6,
		DiskSeek:     6 * time.Millisecond,
		Seed:         1,
	}
}

// ClusterB returns the paper's 9-node cluster that also has 10GigE.
func ClusterB() Config { c := ClusterA(9); return c }

// Cluster is a running simulated testbed.
type Cluster struct {
	Sim    *sim.Sim
	Costs  *perfmodel.CPUCosts
	Config Config

	nodes   []*Node
	fabrics map[perfmodel.LinkKind]*netsim.Fabric

	// Per-rail native IB: rail i is ibFabrics[i]/ibnets[i] (and ibmuxes[i]
	// under QP muxing). Rail 0 doubles as fabrics[perfmodel.NativeIB], so
	// single-rail code paths see exactly the historical layout.
	ibFabrics []*netsim.Fabric
	ibnets    []*ibverbs.Network
	ibmuxes   []*ibverbs.Mux // per rail, non-nil entries when QPMuxPerPeer > 0
}

// Node is one simulated host.
type Node struct {
	ID   int
	CPU  *sim.Resource
	Disk *Disk
}

// New builds a cluster from cfg.
func New(cfg Config) *Cluster {
	if cfg.Nodes < 1 {
		panic("cluster: need at least one node")
	}
	if cfg.CoresPerNode < 1 {
		cfg.CoresPerNode = 8
	}
	s := sim.New(cfg.Seed)
	c := &Cluster{
		Sim:     s,
		Costs:   perfmodel.DefaultCPU(),
		Config:  cfg,
		fabrics: map[perfmodel.LinkKind]*netsim.Fabric{},
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{ID: i, CPU: s.NewResource(int64(cfg.CoresPerNode))}
		n.Disk = &Disk{
			r: s.NewResource(1), readBW: cfg.DiskReadBW,
			writeBW: cfg.DiskWriteBW, seek: cfg.DiskSeek,
		}
		c.nodes = append(c.nodes, n)
	}
	if cfg.ConnectTimeout <= 0 {
		cfg.ConnectTimeout = DefaultConnectTimeout
		if v := os.Getenv(ConnectTimeoutEnv); v != "" {
			if d, err := time.ParseDuration(v); err == nil && d > 0 {
				cfg.ConnectTimeout = d
			}
		}
	}
	cfg.Topology = cfg.Topology.withDefaults()
	c.Config = cfg
	cpuOf := func(node int) *sim.Resource { return c.nodes[node].CPU }
	for _, kind := range []perfmodel.LinkKind{perfmodel.OneGigE, perfmodel.TenGigE, perfmodel.IPoIB, perfmodel.NativeIB} {
		c.fabrics[kind] = netsim.NewFabric(s, perfmodel.Link(kind), cpuOf)
		c.fabrics[kind].SetConnectTimeout(cfg.ConnectTimeout)
	}
	// One fabric + verbs network per IB rail. Rail 0 is the NativeIB fabric
	// built above, so single-rail clusters are laid out exactly as before.
	for rail := 0; rail < cfg.Topology.IBRails; rail++ {
		f := c.fabrics[perfmodel.NativeIB]
		if rail > 0 {
			f = netsim.NewFabric(s, perfmodel.Link(perfmodel.NativeIB), cpuOf)
			f.SetConnectTimeout(cfg.ConnectTimeout)
		}
		net := ibverbs.NewNetwork(f, c.Costs, cfg.RDMAThreshold)
		if cfg.SRQDepth > 0 {
			net.SetSRQ(cfg.SRQDepth, cfg.SRQCreditPerQP)
		}
		var mux *ibverbs.Mux
		if cfg.QPMuxPerPeer > 0 {
			mux = ibverbs.NewMux(net, cfg.QPMuxPerPeer)
		}
		c.ibFabrics = append(c.ibFabrics, f)
		c.ibnets = append(c.ibnets, net)
		c.ibmuxes = append(c.ibmuxes, mux)
	}
	return c
}

// IBMux returns rail 0's QP multiplexer, nil unless Config.QPMuxPerPeer > 0.
func (c *Cluster) IBMux() *ibverbs.Mux { return c.ibmuxes[0] }

// Topology returns the cluster's (defaulted) physical layout.
func (c *Cluster) Topology() Topology { return c.Config.Topology }

// IBRails returns the native-IB rail count (>= 1).
func (c *Cluster) IBRails() int { return len(c.ibFabrics) }

// IBRailFabric returns rail i's fabric (panics on bad rails, like Node).
func (c *Cluster) IBRailFabric(rail int) *netsim.Fabric {
	if rail < 0 || rail >= len(c.ibFabrics) {
		panic(fmt.Sprintf("cluster: no IB rail %d (have %d)", rail, len(c.ibFabrics)))
	}
	return c.ibFabrics[rail]
}

// Node returns host id (panics on bad ids to catch wiring mistakes).
func (c *Cluster) Node(id int) *Node {
	if id < 0 || id >= len(c.nodes) {
		panic(fmt.Sprintf("cluster: no node %d", id))
	}
	return c.nodes[id]
}

// Nodes returns the host count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// IBNet returns rail 0's verbs network (the only one on single-rail
// clusters).
func (c *Cluster) IBNet() *ibverbs.Network { return c.ibnets[0] }

// IBNets returns every rail's verbs network in rail order.
func (c *Cluster) IBNets() []*ibverbs.Network {
	return append([]*ibverbs.Network(nil), c.ibnets...)
}

// Fabrics returns every interconnect fabric in a fixed order: the three
// socket fabrics, then every IB rail in rail order. Fault injection applies
// link events and transfer hooks across all of them, just as PartitionNode
// partitions a node on every rail.
func (c *Cluster) Fabrics() []*netsim.Fabric {
	kinds := []perfmodel.LinkKind{perfmodel.OneGigE, perfmodel.TenGigE, perfmodel.IPoIB}
	out := make([]*netsim.Fabric, 0, len(kinds)+len(c.ibFabrics))
	for _, kind := range kinds {
		out = append(out, c.fabrics[kind])
	}
	return append(out, c.ibFabrics...)
}

// FabricsByName resolves a fault-plan fabric name to the fabric instances it
// addresses: a socket kind name ("1GigE", "10GigE", "IPoIB") names that one
// fabric, "IB" names every IB rail together (a cable-bundle pull), and
// "IB/<rail>" names one rail instance. Unknown names and out-of-range rails
// are errors, so a typo'd plan fails loudly instead of matching nothing.
func (c *Cluster) FabricsByName(name string) ([]*netsim.Fabric, error) {
	switch name {
	case "1GigE":
		return []*netsim.Fabric{c.fabrics[perfmodel.OneGigE]}, nil
	case "10GigE":
		return []*netsim.Fabric{c.fabrics[perfmodel.TenGigE]}, nil
	case "IPoIB":
		return []*netsim.Fabric{c.fabrics[perfmodel.IPoIB]}, nil
	case "IB":
		return append([]*netsim.Fabric(nil), c.ibFabrics...), nil
	}
	var rail int
	if n, err := fmt.Sscanf(name, "IB/%d", &rail); n == 1 && err == nil && rail >= 0 {
		if rail >= len(c.ibFabrics) {
			return nil, fmt.Errorf("cluster: unknown rail %q (cluster has %d IB rail(s))", name, len(c.ibFabrics))
		}
		return []*netsim.Fabric{c.ibFabrics[rail]}, nil
	}
	return nil, fmt.Errorf("cluster: unknown fabric %q (want 1GigE, 10GigE, IPoIB, IB, or IB/<rail>)", name)
}

// PartitionNode drops (or restores) all fabric traffic to and from a node,
// on every socket fabric and every IB rail, for failure-injection
// experiments.
func (c *Cluster) PartitionNode(node int, down bool) {
	c.Node(node)
	for _, f := range c.Fabrics() {
		f.SetNodeDown(node, down)
	}
}

// SpawnOn starts fn as a process on node (its Work and stack CPU contend for
// that node's cores).
func (c *Cluster) SpawnOn(node int, name string, fn func(exec.Env)) {
	n := c.Node(node)
	c.Sim.Spawn(name, func(p *sim.Proc) {
		fn(&SimEnv{c: c, node: n, p: p})
	})
}

// Run drives the simulation to completion and returns the final virtual time.
func (c *Cluster) Run() time.Duration { return c.Sim.Run() }

// RunUntil drives the simulation to a horizon.
func (c *Cluster) RunUntil(d time.Duration) time.Duration { return c.Sim.RunUntil(d) }

// Disk models one HDD with serialized access. Streaming APIs charge the
// positioning cost only when the head moves between streams, so N
// interleaved sequential writers degrade realistically instead of paying a
// full seek per packet.
type Disk struct {
	r          *sim.Resource
	readBW     float64
	writeBW    float64
	seek       time.Duration
	lastStream int64

	BytesRead    int64
	BytesWritten int64
	Seeks        int64
}

func (d *Disk) xfer(p *sim.Proc, stream, bytes int64, bw float64) {
	dur := time.Duration(float64(bytes) / bw * float64(time.Second))
	if stream == 0 || stream != d.lastStream {
		dur += d.seek
		d.Seeks++
		d.lastStream = stream
	}
	d.r.Use(p, dur)
}

// Read occupies the disk for a positioned read of the given size.
func (d *Disk) Read(p *sim.Proc, bytes int64) {
	d.xfer(p, 0, bytes, d.readBW)
	d.BytesRead += bytes
}

// Write occupies the disk for a positioned write of the given size.
func (d *Disk) Write(p *sim.Proc, bytes int64) {
	d.xfer(p, 0, bytes, d.writeBW)
	d.BytesWritten += bytes
}

// ReadStream reads bytes as part of the sequential stream id (non-zero);
// the seek is charged only when the head switches streams.
func (d *Disk) ReadStream(p *sim.Proc, stream, bytes int64) {
	d.xfer(p, stream, bytes, d.readBW)
	d.BytesRead += bytes
}

// WriteStream writes bytes as part of the sequential stream id (non-zero).
func (d *Disk) WriteStream(p *sim.Proc, stream, bytes int64) {
	d.xfer(p, stream, bytes, d.writeBW)
	d.BytesWritten += bytes
}

// SimEnv is the simulator-backed exec.Env: one per process, bound to a node.
type SimEnv struct {
	c    *Cluster
	node *Node
	p    *sim.Proc
}

// Proc exposes the underlying sim process for transport glue.
func (e *SimEnv) Proc() *sim.Proc { return e.p }

// Now implements exec.Env.
func (e *SimEnv) Now() time.Duration { return e.p.Now() }

// Sleep implements exec.Env.
func (e *SimEnv) Sleep(d time.Duration) { e.p.Sleep(d) }

// Work implements exec.Env: occupy one of the node's cores for d.
func (e *SimEnv) Work(d time.Duration) {
	if d > 0 {
		e.node.CPU.Use(e.p, d)
	}
}

// Spawn implements exec.Env: the child runs on the same node.
func (e *SimEnv) Spawn(name string, fn func(exec.Env)) {
	e.c.SpawnOn(e.node.ID, name, fn)
}

// NewQueue implements exec.Env.
func (e *SimEnv) NewQueue(capacity int) exec.Queue {
	return simQueue{q: e.c.Sim.NewQueue(capacity)}
}

// Rand implements exec.Env: the cluster-wide deterministic source.
func (e *SimEnv) Rand() *rand.Rand { return e.c.Sim.Rand() }

// simQueue adapts sim.Queue to exec.Queue by unwrapping the caller's env.
type simQueue struct{ q *sim.Queue }

// SimEnvOf recovers the concrete SimEnv beneath e, unwrapping decorator envs
// (deadline- or trace-carrying wrappers) via their BaseEnv method. It panics
// when e does not bottom out at a SimEnv: simulator resources (queues, disks)
// can only be used from simulated processes.
func SimEnvOf(e exec.Env) *SimEnv {
	for {
		switch v := e.(type) {
		case *SimEnv:
			return v
		case interface{ BaseEnv() exec.Env }:
			e = v.BaseEnv()
		default:
			panic("cluster: exec.Env is not a SimEnv; queues must be used from simulated processes")
		}
	}
}

// procOf recovers the sim process beneath any simulator-backed env (SimEnv or
// the sharded ShardEnv), unwrapping decorators via BaseEnv.
func procOf(e exec.Env) *sim.Proc {
	for {
		switch v := e.(type) {
		case interface{ Proc() *sim.Proc }:
			return v.Proc()
		case interface{ BaseEnv() exec.Env }:
			e = v.BaseEnv()
		default:
			panic("cluster: exec.Env is not simulator-backed; queues must be used from simulated processes")
		}
	}
}

func (s simQueue) Put(e exec.Env, v any) bool { return s.q.Put(procOf(e), v) }
func (s simQueue) TryPut(v any) bool          { return s.q.TryPut(v) }
func (s simQueue) Get(e exec.Env) (any, bool) { return s.q.Get(procOf(e)) }
func (s simQueue) TryGet() (any, bool)        { return s.q.TryGet() }
func (s simQueue) GetTimeout(e exec.Env, d time.Duration) (any, bool, bool) {
	return s.q.GetTimeout(procOf(e), d)
}
func (s simQueue) Close() { s.q.Close() }
