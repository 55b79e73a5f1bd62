package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// The traced run measures every layer from outside: each interface the engine
// is handed (transport.Network, exec.Env, the Writable, the handler) is
// wrapped by a decorator that forwards unchanged and records a span around
// the call. Spans stay in memory and are written when the run ends.

type spanKind uint8

const (
	spCall spanKind = iota
	spWireWrite
	spWireRead
	spSend
	spRecvWait
	spHandler
	spQueue
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"call", "wire.write", "wire.read", "transport.send", "transport.recv_wait", "handler", "exec.queue",
}

type span struct {
	kind   spanKind
	server bool
	seq    uint64 // 0: not tied to one call (a blocked Recv, a queued item)
	start  int64  // ns since the recorder started
	end    int64
}

// spanLogCap bounds the spans kept for the trace file; sums cover every span.
// Keeping them all would hold ~100 MB live and change how often the collector
// runs in the very window being attributed.
const spanLogCap = 1 << 16

type recorder struct {
	t0  time.Time
	log []span
	n   atomic.Int64

	sumNS [nSpanKinds]atomic.Int64
	count [nSpanKinds]atomic.Int64

	sends, wireBytes, bodyBytes atomic.Int64
	dials, queues, spawns       atomic.Int64
	// wrapAllocs counts heap objects the decorators themselves create, so
	// the pass-through test can subtract them from allocs_per_call.
	wrapAllocs atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), log: make([]span, spanLogCap)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) add(k spanKind, server bool, seq uint64, start, end int64) {
	r.sumNS[k].Add(end - start)
	r.count[k].Add(1)
	if i := r.n.Add(1) - 1; i < int64(len(r.log)) {
		r.log[i] = span{k, server, seq, start, end}
	}
}

// totals is a snapshot of the recorder's sums; windows are differences.
type totals struct {
	sumNS, count                [nSpanKinds]int64
	sends, wireBytes, bodyBytes int64
	dials, queues, spawns       int64
	wrapAllocs                  int64
}

func (r *recorder) totals() totals {
	var t totals
	for k := range t.sumNS {
		t.sumNS[k], t.count[k] = r.sumNS[k].Load(), r.count[k].Load()
	}
	t.sends, t.wireBytes, t.bodyBytes = r.sends.Load(), r.wireBytes.Load(), r.bodyBytes.Load()
	t.dials, t.queues, t.spawns = r.dials.Load(), r.queues.Load(), r.spawns.Load()
	t.wrapAllocs = r.wrapAllocs.Load()
	return t
}

func (t totals) sub(o totals) totals {
	for k := range t.sumNS {
		t.sumNS[k] -= o.sumNS[k]
		t.count[k] -= o.count[k]
	}
	t.sends -= o.sends
	t.wireBytes -= o.wireBytes
	t.bodyBytes -= o.bodyBytes
	t.queues -= o.queues
	t.spawns -= o.spawns
	t.wrapAllocs -= o.wrapAllocs
	return t // dials stay cumulative: connecting is set-up, not window, work
}

// layerMetrics turns a window's span sums into per-call layer numbers. A
// call's self time is its span minus the wire, send and handler spans it
// contains: what is left is futures, queues, thread hand-offs and the
// loopback transit.
func (t totals) layerMetrics(calls int64, out map[string]float64) {
	per := func(v int64) float64 { return float64(v) / float64(calls) }
	us := func(k spanKind) float64 { return per(t.sumNS[k]) / 1e3 }
	out["wire.write_us_per_call"] = us(spWireWrite)
	out["wire.read_us_per_call"] = us(spWireRead)
	out["transport.send_us_per_call"] = us(spSend)
	out["transport.recv_wait_us_per_call"] = us(spRecvWait)
	out["handler.us_per_call"] = us(spHandler)
	out["exec.queue_wait_us_per_call"] = us(spQueue)
	out["core.call_self_us"] = us(spCall) - us(spWireWrite) - us(spWireRead) - us(spSend) - us(spHandler)
	out["transport.sends_per_call"] = per(t.sends)
	out["transport.wire_bytes_per_call"] = per(t.wireBytes)
	out["transport.header_bytes_per_call"] = per(t.wireBytes - t.bodyBytes)
	out["transport.dials"] = float64(t.dials)
	out["exec.queues_per_call"] = per(t.queues)
	out["exec.spawns_per_call"] = per(t.spawns)
}

// ---- transport decorator ----

type tracedNet struct {
	transport.Network
	rec *recorder
}

func (n tracedNet) Listen(e exec.Env, port int) (transport.Listener, error) {
	l, err := n.Network.Listen(e, port)
	if err != nil {
		return nil, err
	}
	return tracedListener{l, n.rec}, nil
}

func (n tracedNet) Dial(e exec.Env, addr string) (transport.Conn, error) {
	n.rec.dials.Add(1)
	c, err := n.Network.Dial(e, addr)
	if err != nil {
		return nil, err
	}
	return tracedConn{c, n.rec, false}, nil
}

type tracedListener struct {
	transport.Listener
	rec *recorder
}

func (l tracedListener) Accept(e exec.Env) (transport.Conn, error) {
	c, err := l.Listener.Accept(e)
	if err != nil {
		return nil, err
	}
	return tracedConn{c, l.rec, true}, nil
}

// tracedConn implements transport.Conn only, like the TCP conn beneath it,
// so the engine's optional-interface probes answer as they would without it.
type tracedConn struct {
	transport.Conn
	rec    *recorder
	server bool
}

func (c tracedConn) Send(e exec.Env, data []byte) error {
	var seq uint64
	if te, ok := e.(*tracedEnv); ok {
		seq = te.seq // the caller's own Env carries the call it is issuing
	}
	t0 := c.rec.now()
	err := c.Conn.Send(e, data)
	c.rec.add(spSend, c.server, seq, t0, c.rec.now())
	c.rec.sends.Add(1)
	c.rec.wireBytes.Add(int64(len(data)))
	return err
}

func (c tracedConn) Recv(e exec.Env) ([]byte, func(), error) {
	t0 := c.rec.now()
	data, release, err := c.Conn.Recv(e)
	if err == nil {
		c.rec.add(spRecvWait, c.server, 0, t0, c.rec.now())
	}
	return data, release, err
}

// ---- exec decorator ----

// tracedEnv wraps a thread's Env. seq is set by a load-generator caller to
// the call it is about to issue; engine threads leave it 0.
type tracedEnv struct {
	exec.Env
	rec *recorder
	seq uint64
}

// BaseEnv lets engine glue that unwraps decorator Envs reach the real one.
func (e *tracedEnv) BaseEnv() exec.Env { return e.Env }

func (e *tracedEnv) Spawn(name string, fn func(exec.Env)) {
	e.rec.spawns.Add(1)
	e.rec.wrapAllocs.Add(2) // the child's wrapper and the closure carrying fn
	e.Env.Spawn(name, func(ce exec.Env) { fn(&tracedEnv{Env: ce, rec: e.rec}) })
}

func (e *tracedEnv) NewQueue(capacity int) exec.Queue {
	e.rec.queues.Add(1)
	e.rec.wrapAllocs.Add(1)
	return &tracedQueue{e.Env.NewQueue(capacity), e.rec}
}

// tracedQueue stamps each work item on the way in and records how long it
// sat before a thread took it. The struct{} tokens of the engine's
// queue-built mutexes are not work items and pass through unstamped.
type tracedQueue struct {
	exec.Queue
	rec *recorder
}

type stamped struct {
	v  any
	at int64
}

func (q *tracedQueue) stamp(v any) any {
	if _, token := v.(struct{}); token {
		return v
	}
	q.rec.wrapAllocs.Add(1)
	return &stamped{v, q.rec.now()}
}

func (q *tracedQueue) unstamp(v any) any {
	s, ok := v.(*stamped)
	if !ok {
		return v
	}
	q.rec.add(spQueue, false, 0, s.at, q.rec.now())
	return s.v
}

func (q *tracedQueue) Put(e exec.Env, v any) bool { return q.Queue.Put(e, q.stamp(v)) }
func (q *tracedQueue) TryPut(v any) bool          { return q.Queue.TryPut(q.stamp(v)) }

func (q *tracedQueue) Get(e exec.Env) (any, bool) {
	v, ok := q.Queue.Get(e)
	return q.unstamp(v), ok
}

func (q *tracedQueue) TryGet() (any, bool) {
	v, ok := q.Queue.TryGet()
	return q.unstamp(v), ok
}

func (q *tracedQueue) GetTimeout(e exec.Env, d time.Duration) (any, bool, bool) {
	v, ok, timedOut := q.Queue.GetTimeout(e, d)
	return q.unstamp(v), ok, timedOut
}

// ---- wire and handler decorators ----

// tracedMsg times a msg's Write and ReadFields. seq is read after the inner
// call, so a ReadFields span carries the number it has just decoded.
type tracedMsg struct {
	m      *msg
	rec    *recorder
	server bool
}

func (t *tracedMsg) Write(out *wire.DataOutput) {
	t0 := t.rec.now()
	t.m.Write(out)
	t.rec.add(spWireWrite, t.server, t.m.seq, t0, t.rec.now())
	t.rec.bodyBytes.Add(int64(len(t.m.body)))
}

func (t *tracedMsg) ReadFields(in *wire.DataInput) {
	t0 := t.rec.now()
	t.m.ReadFields(in)
	t.rec.add(spWireRead, t.server, t.m.seq, t0, t.rec.now())
}

// msgOf unwraps whichever form of msg the engine hands back.
func msgOf(w wire.Writable) *msg {
	if t, ok := w.(*tracedMsg); ok {
		return t.m
	}
	return w.(*msg)
}

// seams is how a rig hands msgs and handlers to the engine: directly, or
// through the decorators when rec is set.
type seams struct{ rec *recorder }

func (s seams) writable(m *msg, server bool) wire.Writable {
	if s.rec == nil {
		return m
	}
	s.rec.wrapAllocs.Add(1)
	return &tracedMsg{m, s.rec, server}
}

func (s seams) newParam() wire.Writable { return s.writable(&msg{}, true) }

// handler adapts a msg handler to core.MethodFunc, timing it when traced. An
// echo hands the param straight back, already wrapped.
func (s seams) handler(fn func(*msg) (*msg, error)) core.MethodFunc {
	return func(_ exec.Env, p wire.Writable) (wire.Writable, error) {
		in := msgOf(p)
		var t0 int64
		if s.rec != nil {
			t0 = s.rec.now()
		}
		out, err := fn(in)
		if s.rec != nil {
			s.rec.add(spHandler, true, in.seq, t0, s.rec.now())
		}
		if err != nil {
			return nil, err
		}
		if out == in {
			return p, nil
		}
		return s.writable(out, true), nil
	}
}

func (s seams) env(e exec.Env) exec.Env {
	if s.rec == nil {
		return e
	}
	return &tracedEnv{Env: e, rec: s.rec}
}

func (s seams) network(n transport.Network) transport.Network {
	if s.rec == nil {
		return n
	}
	return tracedNet{n, s.rec}
}

// ---- trace file ----

// spanRecord is one line of trace-<workload>.jsonl.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"` // the call span of the same seq
	Name    string `json:"name"`
	Side    string `json:"side"`
	Seq     uint64 `json:"seq,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// records orders the kept spans by start and links each span of a call to
// that call's root span through the shared sequence number. A span's ID is
// its line number in the trace file, given when the file is written.
func (r *recorder) records() []spanRecord {
	n := int(r.n.Load())
	if n > len(r.log) {
		n = len(r.log)
	}
	spans := append([]span(nil), r.log[:n]...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	roots := map[uint64]int{}
	for i, s := range spans {
		if s.kind == spCall {
			roots[s.seq] = i + 1
		}
	}
	out := make([]spanRecord, len(spans))
	for i, s := range spans {
		side := "client"
		if s.server {
			side = "server"
		}
		out[i] = spanRecord{Name: spanNames[s.kind], Side: side, Seq: s.seq, StartNS: s.start, EndNS: s.end}
		if s.kind != spCall && s.seq != 0 {
			out[i].Parent = roots[s.seq]
		}
	}
	return out
}

// processStart is the origin of the sim workloads' slice spans.
var processStart = time.Now()

// sliceSpan is the span of one timed slice of a sim workload: the kernel
// advanced one slice of virtual time on kernel (a transport, or "sharded")
// between these two host instants.
func sliceSpan(kernel string, n int, t0 time.Time, host time.Duration) spanRecord {
	start := t0.Sub(processStart).Nanoseconds()
	return spanRecord{Name: "sim.slice", Side: kernel, Seq: uint64(n + 1), StartNS: start, EndNS: start + host.Nanoseconds()}
}

func writeTrace(dir, workload string, recs []spanRecord) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close %s: %w", path, cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range recs {
		recs[i].ID = i + 1
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
