package sim

import (
	"cmp"
	"slices"
	"time"
)

// msg is one cross-shard event in flight: a kernel callback to run in the
// destination shard at virtual time at. srcNode/srcSeq form the
// deterministic half of its merge key — they are assigned by the sending
// node's shard in that node's own event order, so they are identical for any
// shard count (unlike the order in which shards' windows push into the
// mailbox, which depends on the node→shard assignment and is discarded by the
// sort at merge time).
type msg struct {
	at      time.Duration
	srcNode int
	srcSeq  uint64
	fn      func()
}

// mailbox holds the cross-shard events posted to one shard since the last
// barrier. Every shard's window runs on the caller's goroutine, so push
// needs no synchronization; the array is reused from round to round, so a
// message costs no allocation once the mailbox has grown to its peak.
type mailbox struct {
	msgs []msg
}

// push enqueues one message.
func (m *mailbox) push(at time.Duration, srcNode int, srcSeq uint64, fn func()) {
	m.msgs = append(m.msgs, msg{at: at, srcNode: srcNode, srcSeq: srcSeq, fn: fn})
}

// drain empties the mailbox and returns its messages sorted by the
// deterministic merge key (at, srcNode, srcSeq). The result shares the
// mailbox's array: the barrier must be done with it before the next push.
func (m *mailbox) drain() []msg {
	out := m.msgs
	m.msgs = out[:0]
	slices.SortFunc(out, func(a, b msg) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.srcNode, b.srcNode); c != 0 {
			return c
		}
		return cmp.Compare(a.srcSeq, b.srcSeq)
	})
	return out
}
