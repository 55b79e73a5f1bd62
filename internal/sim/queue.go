package sim

import "time"

// waiter represents a process blocked on a queue or resource. The canceled
// flag lets two competing wake sources (e.g. a delivery and a timeout) race
// safely: whichever fires first cancels the other, and a scheduled wake
// event for a canceled waiter is a no-op.
type waiter struct {
	p        *Proc
	val      any  // value delivered to a getter
	ok       bool // delivery succeeded (false: queue closed or timed out)
	canceled bool
	n        int64 // units requested (resources) / element delivered (queues)
}

func (w *waiter) deliver(v any, ok bool) {
	w.val, w.ok = v, ok
	w.canceled = true // consume the waiter; competing timeout becomes no-op
	w.p.wake()
}

// Queue is a FIFO channel between simulated processes. A capacity of zero or
// less means unbounded. Queues preserve both element order and waiter order,
// so runs remain deterministic.
type Queue struct {
	s       *Sim
	cap     int
	items   []any
	getters []*waiter
	putters []*waiter
	closed  bool
}

// NewQueue creates a queue. capacity <= 0 means unbounded.
func (s *Sim) NewQueue(capacity int) *Queue {
	return &Queue{s: s, cap: capacity}
}

// Len reports the number of buffered elements.
func (q *Queue) Len() int { return len(q.items) }

// Close marks the queue closed. Blocked getters receive (nil, false) once the
// buffer drains; blocked and future putters' values are dropped.
func (q *Queue) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, w := range q.putters {
		if !w.canceled {
			w.deliver(nil, false)
		}
	}
	q.putters = nil
	if len(q.items) == 0 {
		for _, w := range q.getters {
			if !w.canceled {
				w.deliver(nil, false)
			}
		}
		q.getters = nil
	}
}

// popGetter removes and returns the first live getter, if any.
func (q *Queue) popGetter() *waiter {
	for len(q.getters) > 0 {
		w := q.getters[0]
		q.getters = q.getters[1:]
		if !w.canceled {
			return w
		}
	}
	return nil
}

func (q *Queue) popPutter() *waiter {
	for len(q.putters) > 0 {
		w := q.putters[0]
		q.putters = q.putters[1:]
		if !w.canceled {
			return w
		}
	}
	return nil
}

// Put appends v, blocking p while a bounded queue is full. Putting to a
// closed queue drops the value and returns false.
func (q *Queue) Put(p *Proc, v any) bool {
	if q.closed {
		return false
	}
	if g := q.popGetter(); g != nil {
		g.deliver(v, true)
		return true
	}
	if q.cap > 0 && len(q.items) >= q.cap {
		w := &waiter{p: p, val: v}
		q.putters = append(q.putters, w)
		p.block()
		return w.ok
	}
	q.items = append(q.items, v)
	return true
}

// TryPut is Put that never blocks; it reports whether the value was accepted.
func (q *Queue) TryPut(v any) bool {
	if q.closed {
		return false
	}
	if g := q.popGetter(); g != nil {
		g.deliver(v, true)
		return true
	}
	if q.cap > 0 && len(q.items) >= q.cap {
		return false
	}
	q.items = append(q.items, v)
	return true
}

// TryPutUnbounded inserts ignoring the capacity bound (used by network
// deliveries, where the "buffer" backpressure is modeled elsewhere).
func (q *Queue) TryPutUnbounded(v any) bool {
	if q.closed {
		return false
	}
	if g := q.popGetter(); g != nil {
		g.deliver(v, true)
		return true
	}
	q.items = append(q.items, v)
	return true
}

func (q *Queue) take() (any, bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v := q.items[0]
	q.items[0] = nil
	q.items = q.items[1:]
	// A freed slot may unblock a putter.
	if pw := q.popPutter(); pw != nil {
		q.items = append(q.items, pw.val)
		pw.deliver(nil, true)
	}
	if q.closed && len(q.items) == 0 {
		for _, w := range q.getters {
			if !w.canceled {
				w.deliver(nil, false)
			}
		}
		q.getters = nil
	}
	return v, true
}

// Get removes and returns the head element, blocking p while the queue is
// empty. ok is false if the queue was closed and drained.
func (q *Queue) Get(p *Proc) (v any, ok bool) {
	if v, ok := q.take(); ok {
		return v, true
	}
	if q.closed {
		return nil, false
	}
	w := &waiter{p: p}
	q.getters = append(q.getters, w)
	p.block()
	return w.val, w.ok
}

// TryGet removes and returns the head element without blocking.
func (q *Queue) TryGet() (v any, ok bool) { return q.take() }

// GetTimeout is Get bounded by a timeout. timedOut reports that the timeout
// fired before an element arrived.
func (q *Queue) GetTimeout(p *Proc, d time.Duration) (v any, ok, timedOut bool) {
	if v, ok := q.take(); ok {
		return v, true, false
	}
	if q.closed {
		return nil, false, false
	}
	if d <= 0 {
		return nil, false, true
	}
	w := &waiter{p: p}
	q.getters = append(q.getters, w)
	timeout := false
	q.s.After(d, func() {
		if w.canceled {
			return
		}
		w.canceled = true
		timeout = true
		p.wake()
	})
	p.block()
	if timeout {
		return nil, false, true
	}
	return w.val, w.ok, false
}
