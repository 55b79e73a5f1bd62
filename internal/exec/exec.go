// Package exec abstracts the execution environment so the RPC engine and the
// Hadoop-like substrates run unmodified either on real goroutines with
// wall-clock time (RealEnv, used by the runnable examples and the TCP
// transport) or inside the deterministic discrete-event simulator (SimEnv,
// provided by internal/cluster, used by every paper experiment).
//
// The contract mirrors the concurrency primitives Hadoop RPC is built from:
// threads (Spawn), blocking FIFO queues (Queue), sleeps, and — simulation
// only — explicit CPU cost accounting (Work), which charges virtual time and
// contends for the node's cores.
package exec

import (
	"math/rand"
	"time"
)

// Env is a per-thread handle on the execution environment. An Env value is
// bound to the calling thread/process: blocking operations suspend exactly
// the caller. Spawn hands the child its own Env.
type Env interface {
	// Now returns elapsed time since the environment started (virtual time
	// under simulation, wall time otherwise).
	Now() time.Duration
	// Sleep suspends the caller for d (a timer wait, not CPU use).
	Sleep(d time.Duration)
	// Work charges d of CPU time to the caller. Under simulation this
	// contends for the node's cores; in real mode it is a no-op because the
	// CPU cost is genuinely paid by executing the code.
	Work(d time.Duration)
	// Spawn starts fn as a new thread/process named name on the same node.
	Spawn(name string, fn func(Env))
	// NewQueue creates a blocking FIFO shared between threads of this
	// environment. capacity <= 0 means unbounded.
	NewQueue(capacity int) Queue
	// Rand returns the environment's random source (deterministic under
	// simulation).
	Rand() *rand.Rand
}

// Queue is a blocking FIFO. Every method that can block takes the caller's
// Env so the simulator knows which process to suspend; callers must pass
// their own Env.
type Queue interface {
	// Put appends v, blocking while a bounded queue is full. It reports
	// false if the queue is closed.
	Put(e Env, v any) bool
	// TryPut appends v without blocking, reporting acceptance.
	TryPut(v any) bool
	// Get removes the head, blocking while empty. ok is false once the
	// queue is closed and drained.
	Get(e Env) (v any, ok bool)
	// TryGet removes the head without blocking.
	TryGet() (v any, ok bool)
	// GetTimeout is Get with a deadline.
	GetTimeout(e Env, d time.Duration) (v any, ok, timedOut bool)
	// Close closes the queue, waking all blocked getters.
	Close()
}
