package exec

import (
	"math/rand"
	"sync"
	"time"
)

// RealEnv runs code on ordinary goroutines with wall-clock time. Work is a
// no-op: in real execution the CPU cost of serialization and copying is paid
// by actually doing it.
type RealEnv struct {
	start time.Time
	mu    sync.Mutex
	rng   *rand.Rand
}

// NewRealEnv returns an Env backed by goroutines and wall-clock time.
func NewRealEnv(seed int64) *RealEnv {
	//lint:wallclock real-mode epoch: RealEnv.Now is defined relative to creation time
	return &RealEnv{start: time.Now(), rng: rand.New(rand.NewSource(seed))}
}

// Now returns wall-clock time elapsed since creation.
//
//lint:wallclock real-mode Env: wall time IS this environment's clock
func (e *RealEnv) Now() time.Duration { return time.Since(e.start) }

// Sleep pauses the calling goroutine.
//
//lint:wallclock real-mode Env: Sleep is implemented by actually sleeping
func (e *RealEnv) Sleep(d time.Duration) { time.Sleep(d) }

// Work is a no-op in real mode.
func (e *RealEnv) Work(time.Duration) {}

// Spawn runs fn on a new goroutine sharing this environment.
func (e *RealEnv) Spawn(_ string, fn func(Env)) { go fn(e) }

// NewQueue returns a mutex/cond-based blocking FIFO.
func (e *RealEnv) NewQueue(capacity int) Queue {
	q := &realQueue{cap: capacity}
	q.notEmpty.L = &q.mu
	q.notFull.L = &q.mu
	return q
}

// Rand returns a locked view of the environment's random source.
func (e *RealEnv) Rand() *rand.Rand {
	// rand.Rand is not safe for concurrent use; RealEnv is shared across
	// goroutines, so hand out a freshly seeded source per call site.
	e.mu.Lock()
	defer e.mu.Unlock()
	return rand.New(rand.NewSource(e.rng.Int63()))
}

// realQueue is a ring: Put stores into a slot of a power-of-two array that
// doubles while an unbounded queue (or a bounded one not yet at capacity)
// outgrows it, so a steady-state Put allocates nothing.
type realQueue struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	ring     []any // len is zero or a power of two
	head     int   // index of the oldest item
	n        int   // items held
	cap      int   // <= 0: unbounded
	closed   bool

	// timer wakes GetTimeout waiters: one per queue, created by the first
	// timed wait, armed for the earliest deadline among the timedWaiters now
	// blocked (armedFor; zero while disarmed) and stopped when the last of
	// them leaves, so a queue nobody waits on is held by no timer.
	timer        *time.Timer
	armedFor     time.Time
	timedWaiters int
}

func (q *realQueue) full() bool { return q.cap > 0 && q.n >= q.cap }

func (q *realQueue) pushLocked(v any) {
	if q.n == len(q.ring) {
		grown := make([]any, max(2*len(q.ring), 4))
		for i := 0; i < q.n; i++ {
			grown[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
		}
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = v
	q.n++
	q.notEmpty.Signal()
}

func (q *realQueue) Put(_ Env, v any) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.full() && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		return false
	}
	q.pushLocked(v)
	return true
}

func (q *realQueue) TryPut(v any) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.full() {
		return false
	}
	q.pushLocked(v)
	return true
}

func (q *realQueue) Get(_ Env) (any, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	return q.takeLocked()
}

func (q *realQueue) TryGet() (any, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.takeLocked()
}

func (q *realQueue) GetTimeout(_ Env, d time.Duration) (any, bool, bool) {
	//lint:wallclock real-mode queue: the timeout deadline is a wall-clock instant
	deadline := time.Now().Add(d)
	q.mu.Lock()
	defer q.mu.Unlock()
	timedOut := false
	q.timedWaiters++
	for q.n == 0 && !q.closed {
		//lint:wallclock real-mode queue: remaining wait is measured against the wall clock
		remaining := time.Until(deadline)
		if remaining <= 0 {
			timedOut = true
			break
		}
		q.armLocked(deadline, remaining)
		q.notEmpty.Wait()
	}
	q.timedWaiters--
	if q.timedWaiters == 0 && !q.armedFor.IsZero() {
		q.timer.Stop()
		q.armedFor = time.Time{}
	}
	if timedOut {
		return nil, false, true
	}
	v, ok := q.takeLocked()
	return v, ok, false
}

// armLocked makes sure the timer fires no later than deadline. A wake that
// finds a waiter's own deadline still ahead is harmless: it re-checks and
// arms again.
func (q *realQueue) armLocked(deadline time.Time, remaining time.Duration) {
	if !q.armedFor.IsZero() && !deadline.Before(q.armedFor) {
		return
	}
	if q.timer == nil {
		//lint:wallclock real-mode queue: the timer wakes timed waiters when a deadline passes
		q.timer = time.AfterFunc(remaining, q.expire)
	} else {
		q.timer.Reset(remaining)
	}
	q.armedFor = deadline
}

// expire runs when the timer fires. A firing that Stop came too late for may
// arrive after a newer wait has armed the timer again; only a deadline that
// has really passed disarms it.
func (q *realQueue) expire() {
	q.mu.Lock()
	//lint:wallclock real-mode queue: tells this firing from a stale one
	if !q.armedFor.IsZero() && time.Until(q.armedFor) <= 0 {
		q.armedFor = time.Time{}
	}
	q.notEmpty.Broadcast()
	q.mu.Unlock()
}

// takeLocked removes the head; ok is false when the queue is empty (for a
// blocking getter: closed and drained).
func (q *realQueue) takeLocked() (any, bool) {
	if q.n == 0 {
		return nil, false
	}
	v := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	q.notFull.Signal()
	return v, true
}

func (q *realQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.notEmpty.Broadcast() // timed waiters stop the timer on their way out
	q.notFull.Broadcast()
}
