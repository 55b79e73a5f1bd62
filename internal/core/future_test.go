package core

import (
	"testing"

	"rpcoib/internal/exec"
)

// racingQueue is a reply queue whose first poll misses and whose second
// hits, closing the connection in between: the interleaving TryWait's
// re-drain exists for, which cooperative simulation cannot produce.
type racingQueue struct {
	exec.Queue
	conn  *Connection
	polls int
}

func (q *racingQueue) TryGet() (any, bool) {
	q.polls++
	if q.polls == 1 {
		q.conn.closed.Store(true)
		return nil, false
	}
	return nil, true
}

// TestTryWaitReplyRacesClose: the receiver thread delivers the reply and the
// connection fails between TryWait's poll and its closed check. The reply
// must win over ErrClosed, and the future resolves exactly once.
func TestTryWaitReplyRacesClose(t *testing.T) {
	c := NewClient(nil, Options{})
	conn := &Connection{client: c, calls: map[int32]*Future{}}
	q := &racingQueue{conn: conn}
	f := &Future{c: c, conn: conn, kind: c.kind("test.Async", "echo"), replyQ: q}
	done, err := f.TryWait()
	if !done || err != nil {
		t.Fatalf("TryWait = (%v, %v), want the raced reply to win: (true, nil)", done, err)
	}
	if q.polls != 2 {
		t.Errorf("reply queue polled %d times, want 2 (poll, then re-drain after the close)", q.polls)
	}
	if done, err := f.TryWait(); !done || err != nil {
		t.Errorf("second TryWait = (%v, %v), want the cached (true, nil)", done, err)
	}
	if got := c.Stats.Resolved.Load(); got != 1 {
		t.Errorf("Stats.Resolved = %d, want 1", got)
	}
	if got := c.Stats.Errors.Load(); got != 0 {
		t.Errorf("Stats.Errors = %d, want 0", got)
	}
}
