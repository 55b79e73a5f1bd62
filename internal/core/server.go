package core

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rpcoib/internal/exec"
	"rpcoib/internal/tracing"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// MethodFunc is a server-side RPC method implementation. param is the
// deserialized argument; the returned Writable (which may be nil) is
// serialized as the response value. Returned errors travel to the caller as
// RemoteError.
type MethodFunc func(e exec.Env, param wire.Writable) (wire.Writable, error)

// ServerStats counts server activity. CallsShed counts admissions rejected
// with "too busy" (ShedOverload with a full call queue); CallsExpired counts
// calls dropped undispatched because their propagated deadline had already
// passed. Neither is ever counted in CallsHandled: no handler ran.
type ServerStats struct {
	CallsHandled atomic.Int64
	CallsShed    atomic.Int64
	CallsExpired atomic.Int64
}

// Server is the Hadoop-style RPC server: a Listener accepting connections, a
// Reader per connection deserializing calls into a bounded call queue, N
// Handler threads invoking methods, and a Responder sending results.
type Server struct {
	engine
	net       transport.Network
	mu        sync.Mutex
	protocols map[string]map[string]*methodDef // frozen by Start: read without mu
	unknown   *methodDef                       // stands in for calls no method serves
	callQ     exec.Queue
	respQ     exec.Queue
	readerSem *esema // baseline only: the Listener/Reader-pool width
	lastReap  time.Duration
	ln        transport.Listener
	conns     []transport.Conn
	started   bool // Start was called: Register is over for good
	running   bool
	m         serverMetrics

	// free are the call records the Responder has finished with, at most as
	// many as the call queue and the handlers hold between them: a burst
	// queued behind a slow Responder is not kept.
	free freeList[serverCall]

	// Stats counts server activity.
	Stats ServerStats
}

// NewServer creates a server over net with the given options.
func NewServer(net transport.Network, opts Options) *Server {
	opts = opts.withDefaults()
	if opts.Pool != nil {
		opts.Pool.Instrument(opts.Metrics, mServerPoolPrefix)
	}
	s := &Server{
		engine:    engine{opts: opts},
		net:       net,
		protocols: map[string]map[string]*methodDef{},
		m:         newServerMetrics(opts.Metrics),
	}
	s.free.limit = opts.CallQueueDepth + opts.Handlers
	s.unknown = s.m.newMethodDef(unknownKind, unknownKind, nil, nil)
	return s
}

// Register adds method under protocol. newParam constructs the parameter
// object the reader deserializes into (ReflectionUtils.newInstance's role).
// Registration must precede Start.
func (s *Server) Register(protocol, method string, newParam func() wire.Writable, fn MethodFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic("rpc: Register after Start")
	}
	p, ok := s.protocols[protocol]
	if !ok {
		p = map[string]*methodDef{}
		s.protocols[protocol] = p
	}
	if _, dup := p[method]; dup {
		panic(fmt.Sprintf("rpc: duplicate method %s.%s", protocol, method))
	}
	p[method] = s.m.newMethodDef(protocol, method, newParam, fn)
}

// Start binds the listener on port and spawns the server threads.
func (s *Server) Start(e exec.Env, port int) error {
	ln, err := s.net.Listen(e, port)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.started = true
	s.running = true
	s.mu.Unlock()
	s.callQ = e.NewQueue(s.opts.CallQueueDepth)
	s.respQ = e.NewQueue(0)
	if s.opts.Mode == ModeBaseline {
		// Default Hadoop (0.20.2) funnels every connection's read
		// processing through the single Listener thread (Readers=1);
		// Hadoop 1.0.3's ipc.server.read.threadpool.size widens this pool.
		// RPCoIB introduces per-connection Reader threads (Section III-D),
		// so it has no such bottleneck.
		s.readerSem = newEsema(e, s.opts.Readers)
	}
	e.Spawn("rpc-listener", s.listenLoop)
	for i := 0; i < s.opts.Handlers; i++ {
		e.Spawn(fmt.Sprintf("rpc-handler-%d", i), s.handlerLoop)
	}
	e.Spawn("rpc-responder", s.responderLoop)
	return nil
}

// Addr returns the bound listener address.
func (s *Server) Addr() string { return s.ln.Addr() }

// Stop closes the listener, all connections, and the worker queues.
func (s *Server) Stop() {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return
	}
	s.running = false
	ln := s.ln
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.callQ.Close()
	s.respQ.Close()
}

// serverCall is one inbound invocation moving through the queues and, from
// the handler on, its response: the Reader fills the request half, a Handler
// (or sendControl) serializes the response half, the Responder sends it and
// gives the record back for a later call.
type serverCall struct {
	id       int32
	md       *methodDef    // the server's unknown record when no method serves the call
	deadline time.Duration // absolute propagated deadline (0 = none)
	param    wire.Writable
	errStr   string // pre-invoke failure (unknown method, bad payload)
	conn     transport.Conn

	// span is the server.call span joined onto the client's wire-propagated
	// trace context (nil for untraced calls); enqueuedAt stamps call-queue
	// admission so the handler can emit the server.queue wait span.
	span       *tracing.Span
	enqueuedAt time.Duration

	data   []byte           // baseline response: serialized heap buffer view
	stream RDMAOutputStream // RPCoIB response: registered buffer to send + release
}

// newCall returns a zeroed call record.
func (s *Server) newCall() *serverCall {
	if call := s.free.get(); call != nil {
		return call
	}
	return new(serverCall)
}

func (s *Server) listenLoop(e exec.Env) {
	for {
		conn, err := s.ln.Accept(e)
		if err != nil {
			return
		}
		s.mu.Lock()
		if !s.running {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns = append(s.conns, conn)
		s.mu.Unlock()
		s.m.connections.Inc()
		e.Spawn("rpc-reader:"+conn.RemoteAddr(), func(re exec.Env) {
			s.readerLoop(re, conn)
			s.m.connections.Dec()
		})
	}
}

// readerLoop is the paper's Reader thread: it polls one connection,
// deserializes each call (Listing 2), and pushes it to the call queue.
func (s *Server) readerLoop(e exec.Env, conn transport.Conn) {
	cost := s.cost()
	baseline := s.opts.Mode == ModeBaseline
	timed := s.m.reg != nil || s.opts.Trace != nil // the Reader's window has a reader
	in := new(wire.DataInput)                      // this thread's decoder, reset per request
	for {
		data, release, err := conn.Recv(e)
		if err != nil {
			return
		}
		n := len(data)
		s.m.callsReceived.Inc()
		s.m.bytesIn.Add(int64(n))
		if s.readerSem != nil {
			s.readerSem.acquire(e)
		}
		t0 := stamp(e, timed)
		var allocDur time.Duration
		if baseline {
			// Listing 2: lenBuffer = ByteBuffer.allocate(4); data =
			// ByteBuffer.allocate(len); copy from the native IO layer.
			s.work(e, cost.Syscall)
			a0 := e.Now()
			s.work(e, cost.Alloc(4)+cost.Alloc(n))
			allocDur = e.Now() - a0
			s.work(e, cost.HeapNative(n))
		}
		s.work(e, cost.RPCOverhead)
		in.Reset(data)
		if baseline {
			in.ReadInt32() // frame length prefix
		}
		id, deadline, tw, protocol, method := decodeRequestHeader(in)
		call := s.newCall()
		call.id, call.md, call.deadline, call.conn = id, s.unknown, deadline, conn
		if tw.trace != 0 {
			// Join the client's trace: the server.call span parents onto the
			// client attempt span carried in the header. Untraced calls
			// (trace 0) create no server-side spans, so the client's sampling
			// decision propagates.
			call.span = s.opts.Trace.Start("server.call", "server",
				tracing.SpanContext{Trace: tw.trace, Span: tw.span}, t0)
			if call.span != nil {
				call.span.SetAttr("protocol", string(protocol))
				call.span.SetAttr("method", string(method))
			}
		}
		if md := s.protocols[string(protocol)][string(method)]; md != nil {
			call.md = md
			call.param = md.newParam()
			call.param.ReadFields(in)
			if err := in.Err(); err != nil {
				call.errStr = fmt.Sprintf("bad request for %s.%s: %v", protocol, method, err)
			}
		} else {
			call.errStr = fmt.Sprintf("unknown method %s.%s", protocol, method)
		}
		s.work(e, cost.Serialize(in.Ops())+cost.Copy(n))
		in.Reset(nil) // a parked decoder must not pin the frame it last read
		release()
		procDur := stamp(e, timed) - t0
		var wireDur time.Duration
		call.md.serialize.ObserveDuration(procDur)
		if baseline {
			call.md.alloc.ObserveDuration(allocDur)
		}
		if wt, ok := conn.(transport.WireTimer); ok {
			// Figure 1's measurement spans the channelReadFully loop, which
			// drains the message at wire speed before processing begins, so
			// its receive time is the serialize plus the transport stage.
			wireDur = wt.WireTime(n)
			call.md.transport.ObserveDuration(wireDur)
		}
		if call.span != nil {
			// The paper's alloc+deserialize stage: the Reader's processing
			// window, with the Figure-1 allocation share and the inbound wire
			// occupancy as annotations.
			s.opts.Trace.Child(call.span, "server.recv", "server", t0, procDur,
				"alloc_ns", strconv.FormatInt(int64(allocDur), 10),
				"wire_ns", strconv.FormatInt(int64(wireDur), 10),
				"bytes", strconv.Itoa(n))
		}
		s.work(e, cost.ThreadHandoff)
		if call.deadline > 0 && e.Now() >= call.deadline {
			// The call's propagated deadline already passed (it may have sat
			// behind a stalled CQ): drop it before dispatch so no handler
			// slot burns on an answer the client stopped waiting for.
			s.Stats.CallsExpired.Add(1)
			s.m.callsExpired.Inc()
			call.span.SetAttr("status", "expired")
			ok := s.sendControl(e, call, statusExpired)
			if s.readerSem != nil {
				s.readerSem.release()
			}
			if !ok {
				return
			}
			continue
		}
		if call.span != nil {
			call.enqueuedAt = e.Now()
		}
		var ok bool
		if s.opts.ShedOverload {
			if s.opts.Overloaded != nil && s.opts.Overloaded() {
				// The server declared itself overloaded out-of-band (e.g. a
				// registered-memory budget exhausted): shed at admission even
				// with queue room, so the client backs off until pressure —
				// not just queue depth — subsides.
				ok = false
			} else {
				ok = s.callQ.TryPut(call)
			}
			if !ok {
				// Admission control (ipc.server.max.queue.size): a full call
				// queue sheds the call with a retriable "busy" carrying the
				// server's suggested backoff instead of blocking the reader.
				s.Stats.CallsShed.Add(1)
				s.m.callsShed.Inc()
				call.span.SetAttr("status", "busy")
				ok = s.sendControl(e, call, statusBusy)
				if s.readerSem != nil {
					s.readerSem.release()
				}
				if !ok {
					return
				}
				continue
			}
		} else {
			ok = s.callQ.Put(e, call)
		}
		if s.readerSem != nil {
			s.readerSem.release()
		}
		if !ok {
			return
		}
		s.m.callQueueDepth.Inc()
	}
}

// sendControl serializes a handler-free control response (busy, expired) and
// hands it to the Responder. It reports false when the server is stopping.
func (s *Server) sendControl(e exec.Env, call *serverCall, status byte) bool {
	cost := s.cost()
	var out wire.DataOutput
	if s.opts.Mode == ModeRPCoIB {
		st := &call.stream
		st.Reset(s.opts.Pool, call.md.respKey)
		s.work(e, cost.PoolGet)
		out.Reset(st)
		writeControlBody(&out, call.id, status, s.opts.BusyBackoff)
		s.work(e, cost.Serialize(out.Ops())+cost.Copy(st.Len())+s.regetCost(st))
	} else {
		d := wire.NewDataOutputBufferSize(wire.ServerInitialBufferSize)
		out.Reset(d)
		writeControlBody(&out, call.id, status, s.opts.BusyBackoff)
		s.work(e, cost.Serialize(out.Ops())+cost.Copy(d.Len())+s.bufferCost(d.TakeStats()))
		call.data = d.Data()
	}
	if !s.respQ.Put(e, call) {
		return false
	}
	s.m.responderBacklog.Inc()
	return true
}

func writeControlBody(out *wire.DataOutput, id int32, status byte, backoff time.Duration) {
	out.WriteInt32(id)
	out.WriteU8(status)
	if status == statusBusy {
		out.WriteVLong(int64(backoff))
	}
}

// handlerLoop drains the call queue, invokes the target function, and
// serializes the response (into a fresh 10 KB buffer in baseline mode, into
// a pooled registered buffer keyed by call kind in RPCoIB mode).
func (s *Server) handlerLoop(e exec.Env) {
	cost := s.cost()
	out := new(wire.DataOutput) // this thread's encoder, reset per response
	for {
		v, ok := s.callQ.Get(e)
		if !ok {
			return
		}
		call := v.(*serverCall)
		s.m.callQueueDepth.Dec()
		if call.span != nil {
			// Admission-queue wait: enqueue by the Reader to dequeue by this
			// handler — the paper's queueing stage.
			s.opts.Trace.Child(call.span, "server.queue", "server",
				call.enqueuedAt, e.Now()-call.enqueuedAt)
		}
		if call.deadline > 0 && e.Now() >= call.deadline {
			// Expired while queued: skip the handler entirely.
			s.Stats.CallsExpired.Add(1)
			s.m.callsExpired.Inc()
			call.span.SetAttr("status", "expired")
			if !s.sendControl(e, call, statusExpired) {
				return
			}
			continue
		}
		s.m.handlersBusy.Inc()
		handleStart := stamp(e, call.md.handle != nil || call.span != nil)
		s.work(e, cost.Dispatch)
		var value wire.Writable
		var callErr error
		if call.errStr != "" {
			callErr = &RemoteError{Msg: call.errStr}
		} else {
			value, callErr = s.invoke(e, call)
		}
		s.Stats.CallsHandled.Add(1)
		s.m.callsHandled.Inc()
		if callErr != nil {
			s.m.callErrors.Inc()
		}

		if s.opts.Mode == ModeRPCoIB {
			st := &call.stream
			st.Reset(s.opts.Pool, call.md.respKey)
			s.work(e, cost.PoolGet)
			out.Reset(st)
			writeResponseBody(out, call.id, value, callErr)
			s.work(e, cost.Serialize(out.Ops())+cost.Copy(st.Len())+s.regetCost(st))
		} else {
			// Default Hadoop: each handler allocates a fresh 10 KB buffer
			// per call (Section II-A).
			d := wire.NewDataOutputBufferSize(wire.ServerInitialBufferSize)
			out.Reset(d)
			writeResponseBody(out, call.id, value, callErr)
			s.work(e, cost.Serialize(out.Ops())+cost.Copy(d.Len())+s.bufferCost(d.TakeStats()))
			call.data = d.Data()
		}
		out.Reset(nil)   // a parked encoder must not pin the response it last wrote
		call.param = nil // a response waiting in respQ must not pin the request it answers
		observeSince(call.md.handle, e, handleStart)
		if call.span != nil {
			if callErr != nil {
				call.span.SetAttr("status", "error")
			}
			// Handler execution plus response serialization — the same
			// window the stageHandle histogram observes.
			s.opts.Trace.Child(call.span, "server.handler", "server",
				handleStart, e.Now()-handleStart)
		}
		s.m.handlersBusy.Dec()
		s.work(e, cost.ThreadHandoff)
		if !s.respQ.Put(e, call) {
			return
		}
		s.m.responderBacklog.Inc()
	}
}

// invoke runs the method function, converting a panic into an error
// response (as Hadoop marshals server-side exceptions back to the caller)
// instead of taking the handler thread down.
func (s *Server) invoke(e exec.Env, call *serverCall) (value wire.Writable, callErr error) {
	defer func() {
		if r := recover(); r != nil {
			value = nil
			callErr = &RemoteError{Msg: fmt.Sprintf("%s.%s: server error: %v", call.md.protocol, call.md.method, r)}
		}
	}()
	he := e
	if call.deadline > 0 || call.span != nil {
		henv := handlerEnv{Env: e, deadline: call.deadline}
		if call.span != nil {
			henv.sc = call.span.Context()
		}
		he = henv
	}
	return call.md.fn(he, call.param)
}

// handlerEnv wraps the handler's Env with the call's absolute deadline and
// trace context, so method implementations can read their remaining budget
// and any RPCs they issue downstream (DataNode pipeline hops, region-server
// fan-out) parent onto the inbound server.call span.
type handlerEnv struct {
	exec.Env
	deadline time.Duration
	sc       tracing.SpanContext
}

// TraceContext exposes the inbound call's span as the ambient trace context
// (tracing.ContextOf reads it through the interface).
func (he handlerEnv) TraceContext() tracing.SpanContext { return he.sc }

// BaseEnv exposes the wrapped Env so simulator glue (cluster.ProcOf) can
// recover the sim process beneath decorator envs.
func (he handlerEnv) BaseEnv() exec.Env { return he.Env }

// RemainingBudget reports how much of the propagated call deadline is left
// for the handler running under e. ok is false when the call carried no
// deadline (or e is not a handler env); a non-positive duration with ok true
// means the budget is already exhausted.
func RemainingBudget(e exec.Env) (time.Duration, bool) {
	if he, ok := e.(handlerEnv); ok && he.deadline > 0 {
		return he.deadline - e.Now(), true
	}
	return 0, false
}

func writeResponseBody(out *wire.DataOutput, id int32, value wire.Writable, callErr error) {
	out.WriteInt32(id)
	if callErr != nil {
		out.WriteU8(statusError)
		out.WriteText(callErr.Error())
		return
	}
	out.WriteU8(statusSuccess)
	if value != nil {
		value.Write(out)
	}
}

// responderLoop is the paper's Responder thread: it sends every queued
// response back on its originating connection, then recycles the record. It
// looks one response ahead, and a send whose successor goes to the same
// connection says so (more), so TCP writes the run at once (DESIGN.md S36).
// The look-ahead takes what the next Get would have, and a simulated TryGet
// of the unbounded queue wakes no one, so no simulated event moves.
func (s *Server) responderLoop(e exec.Env) {
	v, ok := s.respQ.Get(e)
	for ok {
		r := v.(*serverCall)
		next, queued := s.respQ.TryGet()
		s.m.responderBacklog.Dec()
		s.respond(e, r, queued && next.(*serverCall).conn == r.conn)
		*r = serverCall{}
		s.free.put(r)
		if queued {
			v = next
		} else {
			v, ok = s.respQ.Get(e)
		}
	}
}

// respond sends r's response; more is SendPooled's hint that the Responder
// sends another on the same connection next.
func (s *Server) respond(e exec.Env, r *serverCall, more bool) {
	cost := s.cost()
	respondStart := stamp(e, r.md.respond != nil || r.span != nil)
	var n int
	if s.opts.Mode == ModeRPCoIB {
		n = r.stream.Len()
		s.work(e, cost.RPCOverhead)
		// The CQ is shared across connections: back-to-back sends from
		// the responder reap the previous completion synchronously.
		if cost.SendReap > 0 {
			if s.lastReap > 0 && e.Now()-s.lastReap < cost.ReapIdleGap {
				s.work(e, cost.SendReap)
			}
			s.lastReap = e.Now()
		}
		_ = transport.SendPooled(e, r.conn, &r.stream, more)
	} else {
		n = len(r.data)
		frame := make([]byte, 4+n)
		binary.BigEndian.PutUint32(frame, uint32(n))
		copy(frame[4:], r.data)
		s.work(e, cost.Copy(4+n)+cost.HeapNative(4+n)+cost.Syscall+cost.RPCOverhead)
		_ = r.conn.Send(e, frame)
	}
	s.m.bytesOut.Add(int64(n))
	observeSince(r.md.respond, e, respondStart)
	s.closeCallSpan(e, r, respondStart)
}

// closeCallSpan emits the server.reply stage (the Responder's send window)
// and ends the server.call span — the response has left the server.
func (s *Server) closeCallSpan(e exec.Env, r *serverCall, respondStart time.Duration) {
	if r.span == nil {
		return
	}
	end := e.Now()
	s.opts.Trace.Child(r.span, "server.reply", "server", respondStart, end-respondStart)
	r.span.EndAt(end)
}
