// Package core implements the paper's contribution: a Hadoop-RPC-compatible
// engine with two wire paths selected by a runtime switch (the paper's
// rpc.ib.enabled):
//
//   - ModeBaseline reproduces default Hadoop RPC byte for byte: Writable
//     serialization into a fresh 32-byte DataOutputBuffer grown by
//     Algorithm 1, a copy onto the connection's buffered stream, a
//     JVM-heap-to-native copy at the socket, per-call ByteBuffer allocation
//     and a native-to-heap copy on receive (the paper's Listings 1 and 2).
//
//   - ModeRPCoIB is the proposed design: serialization writes directly into
//     pre-registered native buffers acquired from the history-based
//     two-level pool (RDMAOutputStream), messages travel over verbs
//     (send/recv below the tunable threshold, RDMA rendezvous above), and
//     receives deserialize in place from pre-posted registered buffers
//     (RDMAInputStream semantics) — no per-call allocation, no heap/native
//     crossings.
//
// The threading model mirrors Hadoop's: the client has caller threads and a
// per-connection Connection receiver thread; the server runs a Listener, a
// Reader per connection, N Handlers draining the call queue, and a
// Responder. The engine runs identically on real goroutines + TCP (examples,
// real-mode benchmarks) and inside the simulator (paper experiments); in the
// simulator the exact allocation/copy/adjustment counts produced by the code
// are converted to virtual CPU time through the frozen perfmodel tables.
package core

import (
	"sync"
	"time"

	"rpcoib/internal/bufpool"
	"rpcoib/internal/exec"
	"rpcoib/internal/metrics"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/tracing"
	"rpcoib/internal/wire"
)

// Mode selects the RPC wire path (the paper's rpc.ib.enabled switch).
type Mode int

const (
	// ModeBaseline is default Hadoop RPC over sockets.
	ModeBaseline Mode = iota
	// ModeRPCoIB is the paper's RDMA design.
	ModeRPCoIB
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeRPCoIB {
		return "RPCoIB"
	}
	return "baseline"
}

// DefaultHandlers matches the handler count used in the paper's throughput
// experiments.
const DefaultHandlers = 8

// DefaultCallTimeout bounds how long a caller waits for a response.
const DefaultCallTimeout = 120 * time.Second

// defaultCallQueueDepth matches Hadoop's bounded call queue
// (ipc.server.max.queue.size).
const defaultCallQueueDepth = 100

// DefaultBusyBackoff is the server-suggested retry backoff carried in "too
// busy" responses when Options.BusyBackoff is unset.
const DefaultBusyBackoff = 100 * time.Millisecond

// DefaultBreakerThreshold is how many consecutive primary-path failures trip
// the transport circuit breaker of a client with Options.Failover set.
const DefaultBreakerThreshold = 3

// DefaultBreakerCooldown is how long a tripped breaker waits before letting
// a half-open probe try the primary path again.
const DefaultBreakerCooldown = time.Second

// Options configures a Client or Server.
type Options struct {
	// Mode selects baseline sockets or RPCoIB.
	Mode Mode
	// Costs enables simulation cost accounting; nil (real mode) charges
	// nothing — the work is genuinely performed by the code.
	Costs *perfmodel.CPUCosts
	// Pool is the two-level buffer pool for ModeRPCoIB (one is created if
	// nil). Policy ablations inject pools with non-default policies.
	Pool *bufpool.ShadowPool
	// Trace, when non-nil, emits per-call distributed spans (client attempt,
	// serialize, send; server call, queue, recv, handler, reply) causally
	// linked through the wire header's trace triple. Nil-safe end to end:
	// untraced engines pay one nil check per call.
	Trace *tracing.Tracer
	// Metrics, when non-nil, receives engine-wide instrumentation: queue
	// depths, handler occupancy, connection counts, and the per-
	// <protocol,method> families the paper's profile is read from (Table I,
	// Figures 1 and 3: SendRows, AllocRatio, SizeLocalityOf). Recording never
	// perturbs simulation determinism.
	Metrics *metrics.Registry
	// Handlers is the server handler-thread count (DefaultHandlers if 0).
	Handlers int
	// Readers is the width of the baseline server's read-processing stage:
	// 1 (default) models Hadoop 0.20.2's single Listener thread; higher
	// values model 1.0.3's ipc.server.read.threadpool.size. Ignored under
	// ModeRPCoIB, which processes each connection on its own Reader as the
	// paper's design does.
	Readers int
	// CallTimeout bounds a client call (DefaultCallTimeout if 0).
	CallTimeout time.Duration
	// Policy, when it prescribes more than one attempt or a deadline, is
	// applied uniformly to every synchronous Call on the client. The zero
	// value keeps the historical single-attempt behavior. Async callers
	// (CallAsync/FanOut) manage retries themselves via CallWith.
	Policy CallPolicy
	// MaxIdleTime, when positive, closes client connections that have had
	// no calls in flight for this long — Hadoop's
	// ipc.client.connection.maxidletime. Reaping is lazy (piggybacked on
	// call activity), never a background thread, so simulations drain.
	// 0 disables reaping.
	MaxIdleTime time.Duration

	// CallQueueDepth bounds the server call queue (Hadoop's
	// ipc.server.max.queue.size; defaultCallQueueDepth if 0).
	CallQueueDepth int
	// ShedOverload makes the server reject calls that arrive with the call
	// queue full, answering with a retriable "too busy" response that carries
	// BusyBackoff, instead of exerting backpressure on the reader. Off by
	// default: blocking readers are the historical Hadoop behavior the
	// paper's experiments measure.
	ShedOverload bool
	// BusyBackoff is the server-suggested retry delay carried in shed
	// responses (DefaultBusyBackoff if 0).
	BusyBackoff time.Duration
	// Overloaded, when set with ShedOverload, is consulted at admission:
	// while it reports true every arriving call is shed as retriable "too
	// busy" even if the call queue has room. It is the hook a registered-
	// memory budget (ibverbs.MemoryBudget.Exhausted) uses to degrade
	// gracefully instead of registering past its cap. Must be deterministic
	// under simulation — derive it from simulated state, never wall-clock.
	Overloaded func() bool

	// Failover arms the client's per-peer circuit breaker: consecutive
	// primary-path failures (dial timeouts, call timeouts, connection
	// faults) open the breaker and re-route calls to the network's fallback
	// transport (transport.FallbackDialer — IPoIB sockets under RPCoIB)
	// until half-open probes find the primary healthy again. Ignored when
	// the network has no fallback.
	Failover bool
}

func (o Options) withDefaults() Options {
	if o.Handlers <= 0 {
		o.Handlers = DefaultHandlers
	}
	if o.Readers <= 0 {
		o.Readers = 1
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = DefaultCallTimeout
	}
	if o.Mode == ModeRPCoIB && o.Pool == nil {
		o.Pool = bufpool.NewShadowPool(bufpool.NewNativePool(0), bufpool.PolicyHistory)
	}
	if o.CallQueueDepth <= 0 {
		o.CallQueueDepth = defaultCallQueueDepth
	}
	if o.BusyBackoff <= 0 {
		o.BusyBackoff = DefaultBusyBackoff
	}
	return o
}

// engine carries the cost-charging machinery common to client and server.
type engine struct {
	opts Options
}

// work charges d of modeled CPU time (no-op in real mode or for d <= 0).
func (g *engine) work(e exec.Env, d time.Duration) {
	if g.opts.Costs != nil && d > 0 {
		e.Work(d)
	}
}

// bufferCost converts exact DataOutputBuffer traffic counts into modeled
// time: every allocation and every Algorithm-1 copy the baseline performed.
func (g *engine) bufferCost(st wire.BufferStats) time.Duration {
	c := g.opts.Costs
	if c == nil {
		return 0
	}
	var d time.Duration
	d += time.Duration(st.Allocs) * c.AllocBase
	d += time.Duration(int64(c.AllocPerKB) * st.AllocBytes / 1024)
	d += time.Duration(st.Adjustments) * c.CopyBase
	d += time.Duration(int64(c.CopyPerKB) * st.MovedBytes / 1024)
	return d
}

// cost is a nil-safe accessor for the model.
func (g *engine) cost() *perfmodel.CPUCosts {
	if g.opts.Costs != nil {
		return g.opts.Costs
	}
	return &zeroCosts
}

var zeroCosts perfmodel.CPUCosts

// ---- wire format ----
//
// Request:  [frame len int32 (baseline only)] [call id int32]
//           [deadline vlong (absolute ns; 0 = none; traced calls encode
//            -(deadline+1) and append: trace vlong, span vlong, parent vlong]
//           [protocol UTF] [method UTF] [param fields...]
// Response: [frame len int32 (baseline only)] [call id int32]
//           [status byte] [value fields... | error Text | busy backoff vlong]
//
// The deadline is an absolute virtual timestamp rather than a remaining
// budget: client and server share one clock (the simulator's, or the single
// process's in real mode), so the server can judge expiry at dispatch time
// even when the request sat behind a stalled completion queue — a relative
// budget anchored at read time could never expire there.
//
// The trace triple carries the client attempt span's identity (trace ID,
// span ID, and that span's own parent) so the server's spans causally link
// onto the client's across retries, failover, and substrate fan-out. IDs are
// 63-bit, so they round-trip through vlong exactly. Presence rides the
// deadline field's unused sign: deadlines are non-negative, so a traced call
// writes -(deadline+1) and appends the triple, while an untraced call's
// header stays byte-for-byte what it was before tracing existed — enabling
// tracing changes simulated message sizes only for sampled calls.

const (
	statusSuccess = 0
	statusError   = 1
	// statusBusy is a shed call: the server's call queue was full. The body
	// carries a server-suggested backoff (vlong nanoseconds) the client's
	// CallPolicy honors before retrying.
	statusBusy = 2
	// statusExpired is a call dropped server-side because its propagated
	// deadline had already passed before dispatch; no handler ran.
	statusExpired = 3
)

// traceWire is the request header's trace triple: the client attempt span's
// context plus its parent, all zero for untraced calls.
type traceWire struct {
	trace, span, parent uint64
}

// traceWireOf extracts the wire triple from a live client attempt span.
func traceWireOf(sp *tracing.Span) traceWire {
	if sp == nil {
		return traceWire{}
	}
	return traceWire{trace: sp.Trace, span: sp.ID, parent: sp.Parent}
}

// encodeRequestHeader writes the header of a call of kind, whose protocol and
// method names were encoded when the kind was resolved.
func encodeRequestHeader(out *wire.DataOutput, id int32, deadline time.Duration, tw traceWire, kind *clientKind) {
	out.WriteInt32(id)
	if tw.trace == 0 {
		out.WriteVLong(int64(deadline))
	} else {
		out.WriteVLong(-int64(deadline) - 1)
		out.WriteVLong(int64(tw.trace))
		out.WriteVLong(int64(tw.span))
		out.WriteVLong(int64(tw.parent))
	}
	out.WriteEncodedUTF(kind.protocolUTF)
	out.WriteEncodedUTF(kind.methodUTF)
}

// decodeRequestHeader returns protocol and method as views into the message:
// the server looks them up in the map Start froze and builds a string only to
// report a name it does not serve.
func decodeRequestHeader(in *wire.DataInput) (id int32, deadline time.Duration, tw traceWire, protocol, method []byte) {
	id = in.ReadInt32()
	v := in.ReadVLong()
	if v < 0 {
		v = -v - 1
		tw.trace = uint64(in.ReadVLong())
		tw.span = uint64(in.ReadVLong())
		tw.parent = uint64(in.ReadVLong())
	}
	deadline = time.Duration(v)
	protocol = in.ReadUTFBytes()
	method = in.ReadUTFBytes()
	return
}

// freeList keeps records whose last user has finished with them for the next
// one: reply slots on a Client, call records on a Server. It is a plain
// mutex-guarded list, not a sync.Pool, because a pool stays reachable from the
// runtime's registry for two collections after its owner is dropped, and so
// does everything the owner references (measured: +1 MB of peak RSS between
// two of the benchmark's set-ups).
type freeList[T any] struct {
	mu    sync.Mutex
	items []*T
	limit int // most records kept; <= 0: no bound beyond how many were ever in use at once
}

// get returns a kept record, or nil when there is none.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return nil
	}
	x := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	return x
}

// put keeps x unless the list is at its limit.
func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	if l.limit <= 0 || len(l.items) < l.limit {
		l.items = append(l.items, x)
	}
	l.mu.Unlock()
}

// emutex is a mutex usable from both environments, built on a capacity-1
// queue (Hadoop synchronizes concurrent callers writing one connection).
type emutex struct{ q exec.Queue }

func newEmutex(e exec.Env) *emutex { return &emutex{q: e.NewQueue(1)} }

func (m *emutex) lock(e exec.Env) { m.q.Put(e, struct{}{}) }
func (m *emutex) unlock()         { m.q.TryGet() }

// esema is a counting semaphore on a bounded queue, usable from both
// environments (the baseline server's Reader-pool width).
type esema struct{ q exec.Queue }

func newEsema(e exec.Env, n int) *esema { return &esema{q: e.NewQueue(n)} }

func (s *esema) acquire(e exec.Env) { s.q.Put(e, struct{}{}) }
func (s *esema) release()           { s.q.TryGet() }
