package sim

import "time"

// ring is a FIFO on a power-of-two array (the exec.realQueue layout): a
// steady queue reuses its slots instead of walking a slice off its backing
// array, and a popped slot is cleared so it pins nothing.
type ring[T comparable] struct {
	buf  []T // len is zero or a power of two
	head int // index of the oldest element
	n    int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(2*len(r.buf), 4))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// first returns the oldest element of a non-empty ring without removing it.
func (r *ring[T]) first() T { return r.buf[r.head] }

// pop removes the oldest element; ok is false when the ring is empty.
func (r *ring[T]) pop() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	var zero T
	v = r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v, true
}

// remove unlinks the first element equal to v, keeping the others in order.
func (r *ring[T]) remove(v T) {
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		if r.buf[(r.head+i)&mask] != v {
			continue
		}
		for ; i < r.n-1; i++ {
			r.buf[(r.head+i)&mask] = r.buf[(r.head+i+1)&mask]
		}
		var zero T
		r.buf[(r.head+i)&mask] = zero
		r.n--
		return
	}
}

// Queue is a FIFO channel between simulated processes. A capacity of zero or
// less means unbounded. Queues preserve both element order and waiter order,
// so runs remain deterministic. A blocked process is linked on getters or
// putters until it is delivered to or its timeout expires, so both hold only
// processes still waiting.
type Queue struct {
	s       *Sim
	cap     int
	items   ring[any]
	getters ring[*Proc]
	putters ring[*Proc] // each holds the value it is putting in its val
	closed  bool
}

// NewQueue creates a queue. capacity <= 0 means unbounded.
func (s *Sim) NewQueue(capacity int) *Queue {
	return &Queue{s: s, cap: capacity}
}

// Len reports the number of buffered elements.
func (q *Queue) Len() int { return q.items.n }

// Close marks the queue closed. Blocked getters receive (nil, false) once the
// buffer drains; blocked and future putters' values are dropped.
func (q *Queue) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for {
		w, ok := q.putters.pop()
		if !ok {
			break
		}
		w.deliver(nil, false)
	}
	if q.items.n == 0 {
		q.failGetters()
	}
}

// failGetters tells every blocked getter the queue is closed and drained.
func (q *Queue) failGetters() {
	for {
		w, ok := q.getters.pop()
		if !ok {
			return
		}
		w.deliver(nil, false)
	}
}

// Put appends v, blocking p while a bounded queue is full. Putting to a
// closed queue drops the value and returns false.
func (q *Queue) Put(p *Proc, v any) bool {
	if q.closed {
		return false
	}
	if g, ok := q.getters.pop(); ok {
		g.deliver(v, true)
		return true
	}
	if q.cap > 0 && q.items.n >= q.cap {
		p.val = v
		q.putters.push(p)
		p.block()
		return p.ok
	}
	q.items.push(v)
	return true
}

// TryPut is Put that never blocks; it reports whether the value was accepted.
func (q *Queue) TryPut(v any) bool {
	if q.closed {
		return false
	}
	if g, ok := q.getters.pop(); ok {
		g.deliver(v, true)
		return true
	}
	if q.cap > 0 && q.items.n >= q.cap {
		return false
	}
	q.items.push(v)
	return true
}

// TryPutUnbounded inserts ignoring the capacity bound (used by network
// deliveries, where the "buffer" backpressure is modeled elsewhere).
func (q *Queue) TryPutUnbounded(v any) bool {
	if q.closed {
		return false
	}
	if g, ok := q.getters.pop(); ok {
		g.deliver(v, true)
		return true
	}
	q.items.push(v)
	return true
}

func (q *Queue) take() (any, bool) {
	v, ok := q.items.pop()
	if !ok {
		return nil, false
	}
	// A freed slot may unblock a putter.
	if pw, ok := q.putters.pop(); ok {
		q.items.push(pw.val)
		pw.deliver(nil, true)
	}
	if q.closed && q.items.n == 0 {
		q.failGetters()
	}
	return v, true
}

// delivered returns what a getter's wake brought and drops the process's
// reference to it.
func (p *Proc) delivered() (v any, ok bool) {
	v, p.val = p.val, nil
	return v, p.ok
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
	q.getters.push(p)
	p.block()
	return p.delivered()
}

// TryGet removes and returns the head element without blocking.
func (q *Queue) TryGet() (v any, ok bool) { return q.take() }

// GetTimeout is Get bounded by a timeout. timedOut reports that the timeout
// fired before an element arrived. The timeout is a record of its own: when
// it pops first it unlinks p and schedules the wake (Sim.expire), when a
// delivery beat it it pops as a no-op.
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
	q.getters.push(p)
	t := timeout{q.s.stamp(q.s.now + d), p.slot}
	q.s.timeouts.push(t)
	p.timedQ, p.timedSeq, p.timedOut = q, t.seq, false
	p.block()
	if p.timedOut {
		return nil, false, true
	}
	v, ok = p.delivered()
	return v, ok, false
}
