// Sharded network model (DESIGN.md S22).
//
// ShardFabric is the message-granularity interconnect for the sharded kernel.
// It keeps the legacy Fabric's timing shape — sender NIC serializes FIFO at
// link bandwidth, reception is cut-through starting one latency after
// transmission begins, receiver NIC handles one message at a time so incast
// queues at the receiver — but splits the NIC state by ownership: the tx
// clock of a node is only touched by events on the node's own shard, and the
// rx clock only by mailbox callbacks running on the destination shard. The
// link latency is the kernel's conservative lookahead: every cross-node
// message arrives at least one latency after it was sent, which is exactly
// the guarantee the barrier protocol needs.
//
// All cross-node traffic goes through the mailbox discipline uniformly, even
// when source and destination happen to share a shard — so the event order
// seen by a receiver is the deterministic (time, srcNode, srcSeq) merge order
// regardless of the node→shard assignment. Only same-node loopback is
// delivered locally.
package netsim

import (
	"fmt"
	"time"

	"rpcoib/internal/perfmodel"
)

// ShardKernel is the scheduling surface ShardFabric needs from the sharded
// cluster: post a cross-node event through the destination shard's mailbox,
// schedule node-local work, read a node's shard-local clock, and draw the
// node's next deterministic sequence number. internal/cluster.ShardedCluster
// implements it.
type ShardKernel interface {
	// PostAt delivers fn to dstNode's shard at virtual time at, merged in
	// deterministic (at, srcNode, srcSeq) order. at must be at least one
	// lookahead after srcNode's current time.
	PostAt(dstNode int, at time.Duration, srcNode int, srcSeq uint64, fn func())
	// LocalAt schedules fn on node's own shard at virtual time at. Only legal
	// from the owning shard's context.
	LocalAt(node int, at time.Duration, fn func())
	// NowAt returns node's shard-local virtual time.
	NowAt(node int) time.Duration
	// NextNodeSeq returns the next per-node sequence number for srcNode's
	// outgoing messages. Only legal from the owning shard's context.
	NextNodeSeq(node int) uint64
}

// ShardFabric models one interconnect over a sharded kernel. Unlike the
// legacy Fabric it has no socket layer, fault hooks, or link-flap state — it
// is the raw transfer primitive the sharded scenarios build on.
type ShardFabric struct {
	params perfmodel.LinkParams
	k      ShardKernel

	// Per-node NIC clocks, sliced (not mapped) so iteration anywhere stays
	// deterministic and each index has a single owning shard.
	tx []time.Duration // touched only by the sending node's shard
	rx []time.Duration // touched only by the receiving node's shard

	// Per-node delivery stats, owned by the receiving node's shard; sum at a
	// barrier for cluster-wide totals.
	delivered      []int64
	deliveredBytes []int64
}

// NewShardFabric creates a sharded fabric for nodes hosts over the given link
// parameters. The link latency must be positive: it is the kernel lookahead.
func NewShardFabric(k ShardKernel, params perfmodel.LinkParams, nodes int) *ShardFabric {
	if params.Latency <= 0 {
		panic(fmt.Sprintf("netsim: sharded fabric needs positive link latency for lookahead, got %v", params.Latency))
	}
	return &ShardFabric{
		params:         params,
		k:              k,
		tx:             make([]time.Duration, nodes),
		rx:             make([]time.Duration, nodes),
		delivered:      make([]int64, nodes),
		deliveredBytes: make([]int64, nodes),
	}
}

// Send moves size bytes from src to dst and runs deliver on dst's shard when
// the last byte arrives. Must be called from src's shard context (an event or
// mailbox callback of the shard owning src).
func (f *ShardFabric) Send(src, dst, size int, deliver func()) {
	now := f.k.NowAt(src)
	if src == dst {
		// Loopback: no NIC involvement, a fixed small kernel hop, delivered
		// locally — same-node traffic never crosses a shard boundary.
		f.k.LocalAt(src, now+loopbackLatency, func() {
			f.finish(dst, size, deliver)
		})
		return
	}
	dur := f.params.TransferTime(size)
	txStart := maxDur(now, f.tx[src])
	f.tx[src] = txStart + dur
	arrive := txStart + f.params.Latency // >= now + lookahead
	seq := f.k.NextNodeSeq(src)
	f.k.PostAt(dst, arrive, src, seq, func() {
		// Destination shard, at cut-through start time: serialize on the
		// receiver NIC exactly like the legacy model's rxFree clock.
		rxStart := maxDur(arrive, f.rx[dst])
		rxDone := rxStart + dur
		f.rx[dst] = rxDone
		f.k.LocalAt(dst, rxDone, func() {
			f.finish(dst, size, deliver)
		})
	})
}

func (f *ShardFabric) finish(dst, size int, deliver func()) {
	f.delivered[dst]++
	f.deliveredBytes[dst] += int64(size)
	deliver()
}

// Delivered sums completed message deliveries across nodes. Only meaningful
// at a barrier (between RunUntil slices) or after the run.
func (f *ShardFabric) Delivered() int64 {
	var n int64
	for _, v := range f.delivered {
		n += v
	}
	return n
}

// DeliveredBytes sums delivered payload bytes across nodes; barrier-safe like
// Delivered.
func (f *ShardFabric) DeliveredBytes() int64 {
	var n int64
	for _, v := range f.deliveredBytes {
		n += v
	}
	return n
}
