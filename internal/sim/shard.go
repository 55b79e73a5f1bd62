// Sharded discrete-event kernel (DESIGN.md S22, S37).
//
// ShardedSim partitions a simulation into shards, each owning a disjoint set
// of nodes and its own event heap (an embedded single-threaded Sim). Shards
// synchronize with a conservative lookahead/barrier protocol: every round
// computes the earliest pending event time Tmin across all shards, opens the
// window [Tmin, Tmin+lookahead), and runs each shard's window in turn on the
// caller's goroutine. Cross-shard events go into the destination shard's
// mailbox and may not be scheduled earlier than one lookahead after they are
// sent, so nothing posted during a window can land inside it; the barrier
// then merges each mailbox into the owning heap in deterministic
// (time, srcNode, srcSeq) order. Mailboxes are merged only at the barrier,
// never between two shards' windows, so a message posted in a round never
// becomes visible inside it.
//
// Determinism contract: provided scenario code keeps node state inside the
// owning shard, routes every cross-node interaction through Post (or a layer
// built on it, like netsim.ShardFabric), and draws randomness from per-node
// streams (SubRand), a run is bit-identical for ANY shard count — the merge
// key (time, srcNode, srcSeq) and the window boundaries (the global Tmin
// sequence) are both independent of how nodes are grouped.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// SubSeed derives an independent deterministic seed for a sub-stream
// (per-node PRNGs, per-shard kernels, span-ID streams) from a root seed via
// the splitmix64 finalizer. Distinct stream indices give statistically
// independent streams; the same (seed, stream) pair always gives the same
// sub-seed, which is what keeps per-node randomness identical across shard
// layouts.
func SubSeed(seed int64, stream int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(stream)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// SubRand returns a deterministic PRNG for sub-stream `stream` of `seed`.
func SubRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(SubSeed(seed, stream)))
}

// Shard is one partition of a ShardedSim: an embedded sequential kernel plus
// the mailbox other shards post into.
type Shard struct {
	id    int
	sim   *Sim
	inbox mailbox
}

// Sim returns the shard's sequential kernel. Scheduling on it (At, After,
// Spawn, NewQueue, NewResource) is only safe from the shard's own window
// (its events and processes) or between RunUntil calls.
func (sh *Shard) Sim() *Sim { return sh.sim }

// merge drains the inbox and schedules every message on the shard heap in
// deterministic order. Barrier only. barrier is the end of the window just
// completed: a message delivered before it would have had to run inside a
// window that is already over, i.e. the sender posted less than one
// lookahead ahead.
func (sh *Shard) merge(barrier time.Duration) int {
	msgs := sh.inbox.drain()
	for _, m := range msgs {
		if m.at < barrier {
			panic(fmt.Sprintf("sim: cross-shard message to shard %d violates lookahead: deliver at %v but the window up to %v already ran (sender must post at least one lookahead ahead)",
				sh.id, m.at, barrier))
		}
		sh.sim.At(m.at, m.fn)
	}
	clear(msgs) // the reused array must not keep delivered closures alive
	return len(msgs)
}

// ShardedSim is the sharded event kernel. Create with NewSharded, register
// initial events/processes on the per-shard Sims, then drive with Run or
// RunUntil; after Close it cannot run again.
type ShardedSim struct {
	shards []*Shard
	look   time.Duration
	closed bool

	barriers int64
	merged   int64
	lastW    time.Duration // end of the last completed window
}

// NewSharded creates a kernel with `shards` shards and the given conservative
// lookahead (the minimum cross-shard delay any Post will honor; for a
// network-shaped simulation this is the minimum link latency). Each shard's
// sequential kernel gets an independent sub-seed; sharded scenarios should
// nevertheless draw their randomness from per-node SubRand streams so results
// do not depend on the node→shard assignment.
func NewSharded(seed int64, shards int, lookahead time.Duration) *ShardedSim {
	if shards < 1 {
		panic("sim: need at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: sharded lookahead must be positive")
	}
	ss := &ShardedSim{look: lookahead}
	for i := 0; i < shards; i++ {
		ss.shards = append(ss.shards, &Shard{id: i, sim: New(SubSeed(seed, -1-int64(i)))})
	}
	return ss
}

// Shards returns the shard count.
func (ss *ShardedSim) Shards() int { return len(ss.shards) }

// Shard returns shard i.
func (ss *ShardedSim) Shard(i int) *Shard { return ss.shards[i] }

// Lookahead returns the conservative window width.
func (ss *ShardedSim) Lookahead() time.Duration { return ss.look }

// Post delivers fn to shard dst at virtual time at. It is the only legal way
// to touch another shard's state: fn runs in the destination shard's window
// after the barrier merge. at must be at least one lookahead after
// the sender's current time (the merge panics otherwise). srcNode/srcSeq
// form the deterministic merge key; srcSeq must be drawn from a per-node
// counter owned by the sending node's shard.
func (ss *ShardedSim) Post(dst int, at time.Duration, srcNode int, srcSeq uint64, fn func()) {
	ss.shards[dst].inbox.push(at, srcNode, srcSeq, fn)
}

// Barriers reports how many synchronization rounds have run. The barrier
// count depends only on the global event timeline, not the shard layout, so
// it is itself replay-stable.
func (ss *ShardedSim) Barriers() int64 { return ss.barriers }

// MergedMessages reports how many cross-shard messages have been merged.
// This DOES depend on the shard layout (more shards → more boundaries) and
// must never feed a replay-compared output; it is an engine statistic.
func (ss *ShardedSim) MergedMessages() int64 { return ss.merged }

// Run drives the simulation until no events remain anywhere.
func (ss *ShardedSim) Run() time.Duration { return ss.RunUntil(-1) }

// RunUntil drives the simulation up to and including events at the horizon
// (negative: unbounded). It may be called repeatedly with growing horizons —
// the idiom the streaming-metrics emitters use to snapshot at barrier-safe
// instants. A process panic in any shard's window reaches the caller here.
func (ss *ShardedSim) RunUntil(horizon time.Duration) time.Duration {
	if ss.closed {
		panic("sim: ShardedSim used after Close")
	}
	for {
		// Barrier: no window is running, so shard state is safe to touch.
		for _, sh := range ss.shards {
			ss.merged += int64(sh.merge(ss.lastW))
		}
		ss.barriers++
		tmin := time.Duration(-1)
		for _, sh := range ss.shards {
			if t, ok := sh.sim.NextEventTime(); ok && (tmin < 0 || t < tmin) {
				tmin = t
			}
		}
		if tmin < 0 || (horizon >= 0 && tmin > horizon) {
			break
		}
		w := tmin + ss.look
		if horizon >= 0 && w > horizon+1 {
			// Clamp DOWN only: the window may shrink below one lookahead at
			// the horizon, never grow past it (cross-shard safety).
			w = horizon + 1
		}
		ss.lastW = w
		for _, sh := range ss.shards {
			sh.sim.RunBefore(w)
		}
	}
	return ss.Now()
}

// Now returns the latest shard time — at a barrier, the time of the globally
// last processed event, which is independent of the shard layout.
func (ss *ShardedSim) Now() time.Duration {
	var now time.Duration
	for _, sh := range ss.shards {
		if sh.sim.now > now {
			now = sh.sim.now
		}
	}
	return now
}

// Close ends the kernel: it cannot run afterwards.
func (ss *ShardedSim) Close() { ss.closed = true }
