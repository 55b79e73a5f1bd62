package exec

import (
	"container/list"
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
	q.notEmpty = sync.NewCond(&q.mu)
	q.notFull = sync.NewCond(&q.mu)
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

type realQueue struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	items    list.List
	cap      int
	closed   bool
}

func (q *realQueue) Put(_ Env, v any) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.cap > 0 && q.items.Len() >= q.cap && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		return false
	}
	q.items.PushBack(v)
	q.notEmpty.Signal()
	return true
}

func (q *realQueue) TryPut(v any) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || (q.cap > 0 && q.items.Len() >= q.cap) {
		return false
	}
	q.items.PushBack(v)
	q.notEmpty.Signal()
	return true
}

func (q *realQueue) Get(_ Env) (any, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.items.Len() == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	return q.takeLocked()
}

func (q *realQueue) TryGet() (any, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.items.Len() == 0 {
		return nil, false
	}
	return q.takeLocked()
}

func (q *realQueue) GetTimeout(_ Env, d time.Duration) (any, bool, bool) {
	//lint:wallclock real-mode queue: the timeout deadline is a wall-clock instant
	deadline := time.Now().Add(d)
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.items.Len() == 0 && !q.closed {
		//lint:wallclock real-mode queue: remaining wait is measured against the wall clock
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, false, true
		}
		//lint:wallclock real-mode queue: timer wakes the cond.Wait when the deadline passes
		t := time.AfterFunc(remaining, func() {
			q.mu.Lock()
			q.notEmpty.Broadcast()
			q.mu.Unlock()
		})
		q.notEmpty.Wait()
		t.Stop()
	}
	v, ok := q.takeLocked()
	return v, ok, false
}

func (q *realQueue) takeLocked() (any, bool) {
	if q.items.Len() == 0 {
		return nil, false // closed and drained
	}
	front := q.items.Front()
	q.items.Remove(front)
	q.notFull.Signal()
	return front.Value, true
}

func (q *realQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}
