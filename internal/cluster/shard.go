// Sharded testbed assembly (DESIGN.md S22, S37).
//
// ShardedCluster runs nodes on a sim.ShardedSim: nodes are partitioned into
// shard groups (contiguous ID blocks — topology-aware in the rack sense that
// adjacent IDs share a rack in the presets), each shard owns its members'
// CPU resources, event heap, and the state of any process spawned there.
// Every node shares one metrics registry: the shards run in turn on one
// goroutine. Cross-node traffic goes through netsim.ShardFabric, whose link
// latency is the kernel lookahead.
//
// Determinism contract for scenario code: keep a node's state on its owning
// shard, route all cross-node interaction through the fabric (or PostAt), use
// NodeRand streams instead of a global PRNG, write any given gauge from one
// node only, and never branch on the node→shard assignment. Under those
// rules, snapshots, traces, and replays are byte-identical for every shard
// count.
package cluster

import (
	"fmt"
	"math/rand"
	"time"

	"rpcoib/internal/exec"
	"rpcoib/internal/metrics"
	"rpcoib/internal/netsim"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/sim"
)

// AssignShards partitions nodes into contiguous blocks, one per shard: node i
// goes to shard i/ceil(nodes/shards). Contiguity keeps rack-mates (adjacent
// IDs in the paper presets) on the same shard, so intra-rack chatter stays
// shard-local.
func AssignShards(nodes, shards int) []int {
	if shards < 1 {
		shards = 1
	}
	if shards > nodes {
		shards = nodes
	}
	per := (nodes + shards - 1) / shards
	out := make([]int, nodes)
	for i := range out {
		out[i] = i / per
	}
	return out
}

// ShardedCluster is a running sharded testbed.
type ShardedCluster struct {
	Kernel *sim.ShardedSim
	Config Config

	assign []int // node -> shard
	cpus   []*sim.Resource
	seqs   []uint64 // per-node cross-shard message sequence, owned by the node's shard
	rands  []*rand.Rand
	reg    *metrics.Registry
}

// NewSharded builds a sharded cluster from cfg with the given conservative
// lookahead (use the link latency of the fabric the scenario runs on; see
// NewShardFabric). cfg.Shards <= 0 means one shard.
func NewSharded(cfg Config, lookahead time.Duration) *ShardedCluster {
	if cfg.Nodes < 1 {
		panic("cluster: need at least one node")
	}
	if cfg.CoresPerNode < 1 {
		cfg.CoresPerNode = 8
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > cfg.Nodes {
		shards = cfg.Nodes
	}
	cfg.Shards = shards
	sc := &ShardedCluster{
		Kernel: sim.NewSharded(cfg.Seed, shards, lookahead),
		Config: cfg,
		assign: AssignShards(cfg.Nodes, shards),
		cpus:   make([]*sim.Resource, cfg.Nodes),
		seqs:   make([]uint64, cfg.Nodes),
		rands:  make([]*rand.Rand, cfg.Nodes),
		reg:    metrics.New(),
	}
	for i := 0; i < cfg.Nodes; i++ {
		sc.cpus[i] = sc.shardSim(i).NewResource(int64(cfg.CoresPerNode))
		sc.rands[i] = sim.SubRand(cfg.Seed, int64(i))
	}
	return sc
}

// Nodes returns the host count.
func (sc *ShardedCluster) Nodes() int { return sc.Config.Nodes }

// Shards returns the shard count.
func (sc *ShardedCluster) Shards() int { return sc.Kernel.Shards() }

// ShardOf returns the shard owning a node.
func (sc *ShardedCluster) ShardOf(node int) int { return sc.assign[node] }

func (sc *ShardedCluster) shardSim(node int) *sim.Sim {
	return sc.Kernel.Shard(sc.assign[node]).Sim()
}

// NodeRand returns node's deterministic PRNG stream. Streams are derived from
// the cluster seed per node (not per shard), so draws are invariant under
// shard re-assignment. Only legal from the owning shard's context.
func (sc *ShardedCluster) NodeRand(node int) *rand.Rand { return sc.rands[node] }

// Registry returns the metrics registry node's instruments live in: one
// registry serves every node. Gauges must stay single-writer so a snapshot
// does not depend on which node wrote last.
func (sc *ShardedCluster) Registry(node int) *metrics.Registry { return sc.reg }

// Snapshot returns the cluster-wide snapshot stamped at. Only legal at a
// barrier (between RunUntil slices) or after the run.
func (sc *ShardedCluster) Snapshot(at time.Duration) metrics.Snapshot {
	return sc.reg.Snapshot(at)
}

// NewFabric builds a ShardFabric over this cluster for a link kind, checking
// that the link latency covers the kernel lookahead (a message may not arrive
// earlier than one lookahead after send).
func (sc *ShardedCluster) NewFabric(kind perfmodel.LinkKind) *netsim.ShardFabric {
	params := perfmodel.Link(kind)
	if params.Latency < sc.Kernel.Lookahead() {
		panic(fmt.Sprintf("cluster: %v link latency %v is below the kernel lookahead %v",
			kind, params.Latency, sc.Kernel.Lookahead()))
	}
	return netsim.NewShardFabric(sc, params, sc.Config.Nodes)
}

// PostAt implements netsim.ShardKernel: deliver fn to dstNode's shard at
// virtual time at, merged in deterministic (at, srcNode, srcSeq) order.
func (sc *ShardedCluster) PostAt(dstNode int, at time.Duration, srcNode int, srcSeq uint64, fn func()) {
	sc.Kernel.Post(sc.assign[dstNode], at, srcNode, srcSeq, fn)
}

// LocalAt implements netsim.ShardKernel: schedule fn on node's own shard.
// Only legal from the owning shard's context (or before the run starts).
func (sc *ShardedCluster) LocalAt(node int, at time.Duration, fn func()) {
	sc.shardSim(node).At(at, fn)
}

// NowAt implements netsim.ShardKernel: node's shard-local virtual time.
func (sc *ShardedCluster) NowAt(node int) time.Duration { return sc.shardSim(node).Now() }

// NextNodeSeq implements netsim.ShardKernel: the next deterministic sequence
// number for node's outgoing cross-shard messages. Owned by the node's shard,
// so no synchronization is needed and the numbering is identical across
// layouts.
func (sc *ShardedCluster) NextNodeSeq(node int) uint64 {
	sc.seqs[node]++
	return sc.seqs[node]
}

// SpawnOn starts fn as a process on node: it runs on the node's owning shard
// and its Work calls contend for the node's cores. Legal before the run or
// from the owning shard's context.
func (sc *ShardedCluster) SpawnOn(node int, name string, fn func(exec.Env)) {
	sc.shardSim(node).Spawn(name, func(p *sim.Proc) {
		fn(&ShardEnv{c: sc, node: node, p: p})
	})
}

// Run drives the sharded simulation to completion.
func (sc *ShardedCluster) Run() time.Duration { return sc.Kernel.Run() }

// RunUntil drives the simulation up to a horizon; repeated calls with growing
// horizons are the barrier-safe instants to stream snapshots at.
func (sc *ShardedCluster) RunUntil(d time.Duration) time.Duration { return sc.Kernel.RunUntil(d) }

// Close ends the kernel: the cluster cannot run afterwards.
func (sc *ShardedCluster) Close() { sc.Kernel.Close() }

// ShardEnv is the exec.Env for processes on a sharded cluster: bound to a
// node, scheduling on the node's owning shard, drawing randomness from the
// node's stream.
type ShardEnv struct {
	c    *ShardedCluster
	node int
	p    *sim.Proc
}

// Proc exposes the underlying sim process for queue glue.
func (e *ShardEnv) Proc() *sim.Proc { return e.p }

// Now implements exec.Env.
func (e *ShardEnv) Now() time.Duration { return e.p.Now() }

// Sleep implements exec.Env.
func (e *ShardEnv) Sleep(d time.Duration) { e.p.Sleep(d) }

// Work implements exec.Env: occupy one of the node's cores for d.
func (e *ShardEnv) Work(d time.Duration) {
	if d > 0 {
		e.c.cpus[e.node].Use(e.p, d)
	}
}

// Spawn implements exec.Env: the child runs on the same node (hence shard).
func (e *ShardEnv) Spawn(name string, fn func(exec.Env)) {
	e.c.SpawnOn(e.node, name, fn)
}

// NewQueue implements exec.Env: a queue on the node's shard. Queues must only
// be shared between processes of the same shard — cross-shard communication
// goes through the fabric.
func (e *ShardEnv) NewQueue(capacity int) exec.Queue {
	return simQueue{q: e.c.shardSim(e.node).NewQueue(capacity)}
}

// Rand implements exec.Env: the node's deterministic stream.
func (e *ShardEnv) Rand() *rand.Rand { return e.c.rands[e.node] }
