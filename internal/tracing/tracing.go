// Package tracing is the end-to-end distributed tracer behind the paper's
// stage-by-stage cost dissection (Figure 4; Table I and Figures 1 and 3 are
// views over the metrics registry, see core.SendRows): per-call spans covering client serialize, post/send, server admission queue,
// deserialize+alloc, handler, and reply, causally linked across the wire by
// a trace/span/parent triple carried in the RPC request header.
//
// Design rules, in the spirit of the rest of the engine:
//
//   - Deterministic: span IDs are derived from a seeded splitmix64 stream,
//     timestamps are the caller's exec.Env virtual time, and the sink writes
//     spans in emission order — so two simulation runs with the same seed
//     produce byte-identical trace files (the property the fault battery's
//     replay checks extend to traces).
//   - Constant memory: spans stream to a bounded JSONL sink instead of
//     accumulating in RAM; overflow is dropped and counted
//     (rpc_trace_dropped_total), never silently truncated.
//   - Nil-safe: a nil *Tracer (and a nil *Span) records nothing, so the
//     engine instruments unconditionally, exactly like the metrics
//     instruments.
package tracing

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rpcoib/internal/exec"
	"rpcoib/internal/metrics"
)

// Metric family names (package-level consts for the rpcoiblint metricnames
// analyzer's golden-file enumeration).
const (
	// MTraceSpans counts spans accepted for emission (post-sampling).
	MTraceSpans = "rpc_trace_spans_total"
	// MTraceDropped counts spans lost to sink overflow or write errors.
	MTraceDropped = "rpc_trace_dropped_total"
	// MTraceSampledOut counts spans discarded by the sampling policy (roots
	// rejected head-of-trace, plus buffered spans of tail-discarded traces).
	MTraceSampledOut = "rpc_trace_sampled_out_total"
)

// SpanContext is the wire-propagated causal identity of a span: the trace it
// belongs to and its own span ID. The zero value means "not traced".
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// Span is one timed operation. Exported fields are the JSONL record; a Span
// returned by Tracer.Start is live until EndAt, which stamps the duration
// and hands it to the sink. The zero Trace ID marks a global event span
// (e.g. a fault injection) that overlays every trace by time.
//
// A live span keeps its annotations in a small sorted set, not in Attrs:
// Attrs is filled only on records decoded from a trace file (ReadSpans), and
// the sink writes the set where json.Marshal would write the map.
type Span struct {
	Trace   uint64            `json:"trace"`
	ID      uint64            `json:"span"`
	Parent  uint64            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	Kind    string            `json:"kind,omitempty"` // client | server | op | event
	StartNS int64             `json:"start_ns"`
	DurNS   int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`

	tr    *Tracer
	root  bool
	attrs []Attr // sorted by key
}

// liveSpan is what Start allocates: the span and, in the same object, the
// array its first attributes live in, which a decoded Span does without.
type liveSpan struct {
	Span
	inline [spanInlineAttrs]Attr
}

// Context returns the span's propagation context (zero on nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.Trace, Span: s.ID}
}

// TraceID returns the span's trace ID (0 on nil).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.Trace
}

// SetAttr attaches a key/value annotation (no-op on nil).
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.attrs = setAttr(s.attrs, Attr{k: k, v: v})
}

// EndAt stamps the span's duration against the caller's clock and emits it.
// Ending twice emits twice; callers end exactly once (the engine's span
// lifecycles are linear, so this needs no guard state).
func (s *Span) EndAt(at time.Duration) {
	if s == nil || s.tr == nil {
		return
	}
	s.DurNS = int64(at) - s.StartNS
	s.tr.untrack(s)
	s.tr.emit(s)
	if s.root {
		s.tr.endRoot(s.Trace, time.Duration(s.DurNS))
	}
}

// SamplerMode selects the head-sampling policy for new traces.
type SamplerMode int

const (
	// SampleAll traces every root (the default zero value).
	SampleAll SamplerMode = iota
	// SampleEveryN keeps one root in N (counter-based, so deterministic —
	// no PRNG draw that could perturb replay).
	SampleEveryN
	// SampleTail buffers every trace in the sink and keeps only those whose
	// root span ran at least TailOver — the "show me the slow calls" mode.
	SampleTail
)

// Sampler configures trace sampling. The zero value samples everything.
type Sampler struct {
	Mode     SamplerMode
	N        int           // SampleEveryN: keep 1 in N (<=1 keeps all)
	TailOver time.Duration // SampleTail: keep traces with root >= this
}

// Tracer creates spans and routes them to its sink. A nil Tracer is valid
// and records nothing.
type Tracer struct {
	sink    *Sink
	sampler Sampler
	seed    uint64
	seq     atomic.Uint64
	roots   atomic.Uint64

	emitted    *metrics.Counter
	sampledOut *metrics.Counter

	// live tracks spans started but not yet ended, so a teardown mid-call
	// (horizon stop, fs.Stop) can still flush them: without this, a call in
	// flight when the simulation ends leaves its children in the file with
	// no root — an orphan-parent violation in rpctrace -check.
	liveMu sync.Mutex
	live   map[*Span]struct{}
}

// New creates a tracer over sink. seed drives the span-ID stream: with the
// simulation seed, same-seed runs produce identical IDs and therefore
// byte-identical trace files.
func New(seed int64, sink *Sink, s Sampler) *Tracer {
	if s.Mode == SampleTail && sink != nil {
		sink.setTail()
	}
	return &Tracer{sink: sink, sampler: s, seed: mix(uint64(seed) ^ 0x7261636f69627472),
		live: map[*Span]struct{}{}}
}

// Instrument registers the tracer's (and its sink's) counters in reg.
func (t *Tracer) Instrument(reg *metrics.Registry) {
	if t == nil || reg == nil {
		return
	}
	t.emitted = reg.Counter(MTraceSpans)
	t.sampledOut = reg.Counter(MTraceSampledOut)
	if t.sink != nil {
		t.sink.dropped = reg.Counter(MTraceDropped)
	}
}

// Sink returns the tracer's sink (nil on a nil tracer).
func (t *Tracer) Sink() *Sink {
	if t == nil {
		return nil
	}
	return t.sink
}

// mix is splitmix64's finalizer: a bijective avalanche over uint64.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nextID draws the next nonzero 63-bit ID from the seeded stream. IDs stay
// within int63 so they survive the wire's vlong encoding and remain exact in
// any JSON tooling.
func (t *Tracer) nextID() uint64 {
	for {
		v := mix(t.seed^t.seq.Add(1)) & (1<<63 - 1)
		if v != 0 {
			return v
		}
	}
}

// Start begins a span at `at`. With a non-zero parent the span joins the
// parent's trace (sampling follows the root's decision); otherwise it is a
// root and the sampler decides whether the new trace is kept. Returns nil
// when the tracer is nil or the trace is sampled out — all Span methods are
// nil-safe, so callers never branch.
func (t *Tracer) Start(name, kind string, parent SpanContext, at time.Duration) *Span {
	if t == nil {
		return nil
	}
	root := parent.Trace == 0
	if root && t.sampler.Mode == SampleEveryN && t.sampler.N > 1 {
		if (t.roots.Add(1)-1)%uint64(t.sampler.N) != 0 {
			t.sampledOut.Inc()
			return nil // before the span exists: a sampled-out call allocates nothing here
		}
	}
	ls := &liveSpan{Span: Span{Name: name, Kind: kind, StartNS: int64(at), tr: t}}
	sp := &ls.Span
	sp.attrs = ls.inline[:0]
	if !root {
		sp.Trace = parent.Trace
		sp.Parent = parent.Span
		sp.ID = t.nextID()
		t.track(sp)
		return sp
	}
	sp.root = true
	sp.Trace = t.nextID()
	sp.ID = sp.Trace
	t.track(sp)
	return sp
}

func (t *Tracer) track(sp *Span) {
	t.liveMu.Lock()
	t.live[sp] = struct{}{}
	t.liveMu.Unlock()
}

func (t *Tracer) untrack(sp *Span) {
	t.liveMu.Lock()
	delete(t.live, sp)
	t.liveMu.Unlock()
}

// Flush emits every span still open — calls in flight when the simulation
// was torn down — with zero duration and an "unfinished" marker, in
// ascending span-ID order for determinism. Call it after the simulation
// ends and before the sink is closed; it keeps trace files free of orphan
// parents no matter how the run stopped.
func (t *Tracer) Flush() {
	if t == nil {
		return
	}
	t.liveMu.Lock()
	open := make([]*Span, 0, len(t.live))
	for sp := range t.live {
		open = append(open, sp)
	}
	t.live = map[*Span]struct{}{}
	t.liveMu.Unlock()
	sort.Slice(open, func(i, j int) bool { return open[i].ID < open[j].ID })
	for _, sp := range open {
		sp.SetAttr("unfinished", "1")
		sp.DurNS = 0
		t.emit(sp)
		if sp.root && t.sink != nil && t.sampler.Mode == SampleTail {
			// No duration to judge; keep the trace — an unfinished call is
			// exactly what tail sampling exists to surface.
			t.sink.EndTrace(sp.Trace, true)
		}
	}
}

// Child emits a completed child stage span under parent: start/dur are the
// stage's measured window. No-op when the tracer or parent is nil, so
// unsampled calls cost one branch per stage.
func (t *Tracer) Child(parent *Span, name, kind string, start, dur time.Duration, attrs ...Attr) {
	if t == nil || parent == nil {
		return
	}
	var buf [spanInlineAttrs]Attr
	as := buf[:0]
	for _, a := range attrs {
		as = setAttr(as, a)
	}
	sp := Span{
		Trace: parent.Trace, ID: t.nextID(), Parent: parent.ID,
		Name: name, Kind: kind, StartNS: int64(start), DurNS: int64(dur),
		attrs: as,
	}
	t.emit(&sp)
}

// Event emits a zero-trace event span (fault injections, rail flips): it
// belongs to no one trace and annotates every span it overlaps in time at
// analysis time. Events bypass sampling.
func (t *Tracer) Event(name string, at time.Duration, attrs ...string) {
	if t == nil {
		return
	}
	var buf [spanInlineAttrs]Attr
	sp := Span{ID: t.nextID(), Name: name, Kind: "event", StartNS: int64(at),
		attrs: attrsOf(buf[:0], attrs)}
	t.emit(&sp)
}

// emit hands a completed span record to the sink.
func (t *Tracer) emit(sp *Span) {
	t.emitted.Inc()
	if t.sink != nil {
		t.sink.Emit(sp)
	}
}

// endRoot drives the tail-sampling decision when a root span finishes.
func (t *Tracer) endRoot(trace uint64, dur time.Duration) {
	if t.sink == nil || t.sampler.Mode != SampleTail {
		return
	}
	keep := dur >= t.sampler.TailOver
	_, discarded := t.sink.EndTrace(trace, keep)
	t.sampledOut.Add(int64(discarded))
}

// ---- ambient span context ----
//
// The engine threads the active span through exec.Env the same way the
// server threads call deadlines (core.handlerEnv): an Env wrapper carrying a
// SpanContext. Client calls issued under a wrapped Env become children of
// the ambient span — this is how a DFSClient write op links its NameNode
// calls, how an HBase multiGet links its per-region-server fan-out, and how
// a server handler's downstream RPCs chain onto the inbound call.

// spanEnv wraps an Env with an ambient span context.
type spanEnv struct {
	exec.Env
	sc SpanContext
}

// TraceContext exposes the ambient span.
func (e spanEnv) TraceContext() SpanContext { return e.sc }

// BaseEnv exposes the wrapped Env so simulator glue (cluster.ProcOf) can
// recover the sim process beneath decorator envs.
func (e spanEnv) BaseEnv() exec.Env { return e.Env }

// WithSpan returns e carrying sc as the ambient span context.
func WithSpan(e exec.Env, sc SpanContext) exec.Env { return spanEnv{Env: e, sc: sc} }

// ContextOf returns the ambient span context of e (zero when untraced). Any
// Env-wrapper type can participate by exposing TraceContext.
func ContextOf(e exec.Env) SpanContext {
	if te, ok := e.(interface{ TraceContext() SpanContext }); ok {
		return te.TraceContext()
	}
	return SpanContext{}
}

// StartOp opens an operation-level root span (kind "op") and returns an Env
// under which client calls become the op's children, plus the done function
// that ends the span. Nil-safe: with a nil tracer it returns e unchanged and
// a no-op done.
func StartOp(t *Tracer, e exec.Env, name string, attrs ...string) (exec.Env, func()) {
	if t == nil {
		return e, func() {}
	}
	sp := t.Start(name, "op", ContextOf(e), e.Now())
	if sp == nil {
		return e, func() {}
	}
	for i := 0; i+1 < len(attrs); i += 2 {
		sp.SetAttr(attrs[i], attrs[i+1])
	}
	return WithSpan(e, sp.Context()), func() { sp.EndAt(e.Now()) }
}
