package sim

import (
	"sort"
	"sync/atomic"
	"time"
)

// Msg is one cross-shard event in flight: a kernel callback to run in the
// destination shard at virtual time At. SrcNode/SrcSeq form the deterministic
// half of its merge key — they are assigned by the sending node's shard in
// that node's own event order, so they are identical for any shard count and
// any GOMAXPROCS setting (unlike the physical arrival order in the mailbox,
// which depends on scheduling and is discarded by the sort at merge time).
type Msg struct {
	At      time.Duration
	SrcNode int
	SrcSeq  uint64
	Fn      func()

	next *Msg
}

// Mailbox is a lock-free multi-producer single-consumer channel for
// cross-shard events, in the style of Ibdxnet's MPSC rings feeding each
// transport worker: any shard worker may Push concurrently; only the barrier
// (which runs with every worker parked) Drains. Push is a CAS loop over an
// intrusive stack — arrival order is irrelevant because the barrier sorts
// drained messages by their deterministic (At, SrcNode, SrcSeq) key before
// scheduling them.
type Mailbox struct {
	head atomic.Pointer[Msg]
}

// Push enqueues one message. Safe to call from any shard worker concurrently.
func (m *Mailbox) Push(at time.Duration, srcNode int, srcSeq uint64, fn func()) {
	n := &Msg{At: at, SrcNode: srcNode, SrcSeq: srcSeq, Fn: fn}
	for {
		h := m.head.Load()
		n.next = h
		if m.head.CompareAndSwap(h, n) {
			return
		}
	}
}

// Drain removes every pending message and returns them sorted by the
// deterministic merge key (At, SrcNode, SrcSeq). Single-consumer: only the
// barrier may call it, with all shard workers parked.
func (m *Mailbox) Drain() []*Msg {
	h := m.head.Swap(nil)
	if h == nil {
		return nil
	}
	var out []*Msg
	for n := h; n != nil; n = n.next {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.SrcNode != b.SrcNode {
			return a.SrcNode < b.SrcNode
		}
		return a.SrcSeq < b.SrcSeq
	})
	return out
}
