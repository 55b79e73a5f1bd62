package core

import (
	"encoding/binary"
	"errors"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rpcoib/internal/exec"
	"rpcoib/internal/tracing"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// ErrTimeout reports that a call exceeded the client's timeout.
var ErrTimeout = errors.New("rpc: call timed out")

// ErrClosed reports a connection torn down with calls in flight.
var ErrClosed = errors.New("rpc: connection closed")

// ErrDeadlineExceeded reports a call whose propagated deadline passed before
// a response arrived. The server may have dropped it undispatched
// (statusExpired) or the wait may have expired locally; either way no more
// work is done on it anywhere.
var ErrDeadlineExceeded = errors.New("rpc: call deadline exceeded")

// ErrServerTooBusy reports a call shed by the server's admission control
// (full call queue). It is retriable; the TooBusyError carrying it suggests
// how long to back off.
var ErrServerTooBusy = errors.New("rpc: server too busy")

// TooBusyError is the client-side face of a shed call: it matches
// ErrServerTooBusy under errors.Is and carries the server-suggested backoff
// that CallPolicy honors before the next attempt.
type TooBusyError struct{ Backoff time.Duration }

// Error implements error.
func (e *TooBusyError) Error() string {
	return "rpc: server too busy (retry after " + e.Backoff.String() + ")"
}

// Unwrap makes errors.Is(err, ErrServerTooBusy) work.
func (e *TooBusyError) Unwrap() error { return ErrServerTooBusy }

// RemoteError carries a server-side failure back to the caller.
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return "rpc: remote error: " + e.Msg }

// ClientStats counts client activity. Calls counts call attempts issued and
// Resolved counts futures that reached an outcome (success or failure); the
// two match once every future has been waited, which is the no-leaked-future
// invariant fault-injection runs assert at quiescence.
type ClientStats struct {
	Calls    atomic.Int64
	Resolved atomic.Int64
	Errors   atomic.Int64
}

// Client issues RPC calls. One Client multiplexes any number of caller
// threads over cached per-server connections, exactly like Hadoop's
// RPC.getProxy machinery: callers serialize and send under a per-connection
// lock; a dedicated Connection thread receives and dispatches responses.
type Client struct {
	engine
	net     transport.Network
	timeout time.Duration

	mu       sync.Mutex
	connMu   *emutex
	conns    map[connKey]*Connection
	breakers map[string]*breaker
	railSets map[string]*railSet // per peer, multi-rail networks only
	idSeq    atomic.Int32
	m        clientMetrics
	kinds    kindCache

	// slots are the reply slots synchronous Calls have finished with, at most
	// one per caller that was ever in a Call at once.
	slots freeList[Future]

	// Stats counts issued calls and failures.
	Stats ClientStats
}

// connKey names one cached connection: the peer address, which transport
// flavor reaches it, and — on multi-rail networks — which rail carries it.
// Primary and fallback connections to the same peer coexist, so a half-open
// probe on the primary never tears down the fallback the other callers are
// still using (and vice versa); likewise connections on different rails
// coexist, which is what lets the selector spread load and keep a healthy
// rail's connection warm while probing a healed one.
type connKey struct {
	addr     string
	fallback bool
	rail     int // always 0 on single-rail networks
}

// NewClient creates a client over net with the given options.
func NewClient(net transport.Network, opts Options) *Client {
	opts = opts.withDefaults()
	if opts.Pool != nil {
		opts.Pool.Instrument(opts.Metrics, mClientPoolPrefix)
	}
	return &Client{
		engine:  engine{opts: opts},
		net:     net,
		timeout: opts.CallTimeout,
		conns:   map[connKey]*Connection{},
		m:       newClientMetrics(opts.Metrics),
	}
}

// Connection is the client side of one transport connection plus its
// pending-call table and receiver thread.
type Connection struct {
	client    *Client
	tc        transport.Conn
	fallback  bool     // riding the network's fallback transport
	br        *breaker // non-nil when failover guards this peer
	rail      int      // rail carrying this connection (multi-rail networks)
	rs        *railSet // non-nil on multi-rail networks (primary conns only)
	sendMu    *emutex
	mu        sync.Mutex
	calls     map[int32]*Future
	streamBuf []byte // persistent BufferedOutputStream analog (baseline)
	lastSend  time.Duration
	lastUsed  time.Duration // last call issue, for idle reaping
	closeErr  error
	// closed is written under mu, so the pending table and the flag change
	// together, and read without it on the issue path.
	closed atomic.Bool

	// The send side's encoder and registered-buffer stream belong to whoever
	// holds sendMu: they are reset per request, never reallocated.
	out    wire.DataOutput
	stream RDMAOutputStream
}

func (conn *Connection) closeError() error {
	conn.mu.Lock()
	defer conn.mu.Unlock()
	return conn.closeErr
}

// connection returns (establishing on demand) the connection to addr. With
// failover armed, the peer's circuit breaker chooses between the primary
// transport and the network's fallback; each flavor is cached independently.
func (c *Client) connection(e exec.Env, addr string) (*Connection, error) {
	c.mu.Lock()
	if c.connMu == nil {
		c.connMu = newEmutex(e)
	}
	mu := c.connMu
	c.mu.Unlock()

	// The emutex may be held across the blocking Dial; a sync.Mutex must
	// not be (it would wedge the cooperative scheduler).
	mu.lock(e)
	defer mu.unlock()

	var br *breaker
	fd, hasFallback := c.net.(transport.FallbackDialer)
	if c.opts.Failover && hasFallback {
		br = c.breaker(addr)
	}
	key := connKey{addr: addr}
	if br != nil {
		key.fallback = br.route(e.Now())
	}
	// Rail selection on the primary path of a multi-rail network: the
	// selector places this connection by health, affinity, and load, and may
	// nominate it as the half-open probe of a cooled-down rail. railSet is
	// nil on single-rail networks, keeping the historical path untouched.
	var rs *railSet
	var rd transport.RailDialer
	if !key.fallback {
		if rs = c.railSet(addr); rs != nil {
			rd = c.net.(transport.RailDialer)
			key.rail, _ = rs.pick(e.Now(), rd.RailUp)
		}
	}
	c.reapIdle(e, key)
	c.mu.Lock()
	conn := c.conns[key]
	c.mu.Unlock()
	if conn != nil && !conn.closed.Load() {
		return conn, nil
	}
	if conn != nil {
		// A cached connection died and is being replaced.
		c.m.retries.Inc()
	}
	var tc transport.Conn
	var err error
	switch {
	case key.fallback:
		tc, err = fd.DialFallback(e, addr)
	case rs != nil:
		tc, err = rd.DialRail(e, addr, key.rail)
	default:
		tc, err = c.net.Dial(e, addr)
	}
	if err != nil {
		if !key.fallback {
			primaryFailure(rs, br, key.rail, e.Now())
		}
		return nil, err
	}
	if key.fallback {
		c.m.failovers.Inc()
	}
	conn = &Connection{client: c, tc: tc, fallback: key.fallback, br: br,
		rail: key.rail, rs: rs,
		sendMu: newEmutex(e), calls: map[int32]*Future{}, lastUsed: e.Now()}
	c.mu.Lock()
	c.conns[key] = conn
	c.mu.Unlock()
	c.m.connections.Inc()
	e.Spawn("rpc-conn-recv:"+addr, conn.receiveLoop)
	return conn, nil
}

// reapIdle closes connections that have sat past MaxIdleTime with no calls
// in flight — Hadoop's ipc.client.connection.maxidletime, done lazily on
// client activity rather than by a background thread so a finished
// simulation can drain. keep is the connection about to be used. Keys are
// visited in sorted order so the teardown sequence is deterministic under
// simulation regardless of map iteration order. Idle teardown is
// administrative: it never feeds the circuit breaker.
func (c *Client) reapIdle(e exec.Env, keep connKey) {
	maxIdle := c.opts.MaxIdleTime
	if maxIdle <= 0 {
		return
	}
	now := e.Now()
	c.mu.Lock()
	var idle []*Connection
	keys := make([]connKey, 0, len(c.conns))
	for k := range c.conns {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].addr != keys[j].addr {
			return keys[i].addr < keys[j].addr
		}
		if keys[i].fallback != keys[j].fallback {
			return !keys[i].fallback
		}
		return keys[i].rail < keys[j].rail
	})
	for _, k := range keys {
		if k == keep {
			continue
		}
		conn := c.conns[k]
		conn.mu.Lock()
		expired := !conn.closed.Load() && len(conn.calls) == 0 && now-conn.lastUsed >= maxIdle
		conn.mu.Unlock()
		if expired {
			delete(c.conns, k)
			idle = append(idle, conn)
		}
	}
	c.mu.Unlock()
	for _, conn := range idle {
		conn.fail(ErrClosed)
	}
}

// addCall registers f as the pending call id and records the activity for
// the idle reaper.
func (conn *Connection) addCall(now time.Duration, id int32, f *Future) {
	conn.mu.Lock()
	conn.lastUsed = now
	conn.calls[id] = f
	conn.mu.Unlock()
	conn.client.m.outstanding.Inc()
	if conn.rs != nil && !conn.fallback {
		conn.rs.acquire(conn.rail)
	}
}

func (conn *Connection) takeCall(id int32) *Future {
	conn.mu.Lock()
	f := conn.calls[id]
	delete(conn.calls, id)
	conn.mu.Unlock()
	if f != nil {
		conn.client.m.outstanding.Dec()
		if conn.rs != nil && !conn.fallback {
			conn.rs.release(conn.rail)
		}
	}
	return f
}

// organicFail is fail for failures the transport produced (receive errors,
// send errors) rather than administrative teardown: a primary connection
// charges primaryFailure once before tearing down. now is the caller's
// virtual time, for the cooldown clocks.
func (conn *Connection) organicFail(now time.Duration, err error) {
	if !conn.closed.Load() && !conn.fallback {
		primaryFailure(conn.rs, conn.br, conn.rail, now)
	}
	conn.fail(err)
}

// fail tears the connection down and fails every pending call.
func (conn *Connection) fail(err error) {
	conn.mu.Lock()
	if conn.closed.Load() {
		conn.mu.Unlock()
		return
	}
	conn.closed.Store(true)
	conn.closeErr = err
	pending := conn.calls
	conn.calls = map[int32]*Future{}
	conn.mu.Unlock()
	conn.client.m.connections.Dec()
	conn.client.m.outstanding.Add(-int64(len(pending)))
	if conn.rs != nil && !conn.fallback {
		for range pending {
			conn.rs.release(conn.rail)
		}
	}
	conn.tc.Close()
	// Closing a reply queue wakes its waiter: wake them in call order, not
	// map order, so a failure with several calls in flight replays the same.
	ids := make([]int32, 0, len(pending))
	for id := range pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		pending[id].replyQ.Close()
	}
}

// Call invokes protocol.method(param) on the server at addr, deserializing
// the result into reply (which may be nil for void-like methods whose value
// the caller ignores). It blocks the calling thread until the response
// arrives, a timeout fires, or the connection fails. When the client's
// Options carry a retrying Policy it is applied here, uniformly for every
// synchronous caller.
func (c *Client) Call(e exec.Env, addr, protocol, method string, param, reply wire.Writable) error {
	if p := c.opts.Policy; p.MaxAttempts > 1 || p.Deadline > 0 {
		return c.CallWith(e, p, addr, protocol, method, param, reply)
	}
	f := c.issue(e, addr, protocol, method, param, reply, c.timeout, 0)
	err := f.Wait(e)
	c.recycle(f)
	return err
}

// CallAsync starts protocol.method(param) on the server at addr and returns
// immediately with a Future; the caller overlaps its own work with the round
// trip and collects the outcome with Wait. reply is filled by the receiver
// thread before the future resolves, so the caller must not touch it until
// Wait/TryWait reports completion.
func (c *Client) CallAsync(e exec.Env, addr, protocol, method string, param, reply wire.Writable) *Future {
	return c.issue(e, addr, protocol, method, param, reply, c.timeout, 0)
}

// issue performs the send half of one call attempt — connection lookup,
// serialization, wire send — and registers the pending-call state. Issue
// failures come back as already-resolved futures so callers have exactly one
// error path. deadline, when non-zero, is the absolute virtual time the call
// must complete by; it rides the request header so the server can drop the
// call undispatched once it has expired.
func (c *Client) issue(e exec.Env, addr, protocol, method string, param, reply wire.Writable, timeout, deadline time.Duration) *Future {
	kind := c.kind(protocol, method)
	c.Stats.Calls.Add(1)
	c.m.calls.Inc()
	kind.issued.Inc()
	callStart := e.Now()
	tr := c.opts.Trace
	span := tr.Start("client.call", "client", tracing.ContextOf(e), callStart)
	if span != nil {
		span.SetAttr("protocol", protocol)
		span.SetAttr("method", method)
		span.SetAttr("peer", addr)
	}
	conn, err := c.connection(e, addr)
	if err != nil {
		return c.failedFutureSpan(e, span, kind, err)
	}
	if span != nil && conn.fallback {
		span.SetAttr("transport", "fallback")
	}
	if conn.rs != nil && !conn.fallback {
		conn.rs.countCall(conn.rail)
	}
	id := c.idSeq.Add(1)
	f := c.newFuture(e)
	f.conn, f.id, f.kind = conn, id, kind
	f.start, f.timeout, f.deadline = callStart, timeout, deadline
	f.reply, f.span = reply, span
	conn.addCall(callStart, id, f)

	conn.sendMu.lock(e)
	if conn.closed.Load() {
		conn.sendMu.unlock()
		conn.takeCall(id)
		return c.failedFutureSpan(e, span, kind, ErrClosed)
	}
	sendStart := stamp(e, span != nil)
	tw := traceWireOf(span)
	timed := span != nil || kind.msgBytes != nil // the send windows have a reader
	var st sent
	if c.opts.Mode == ModeRPCoIB {
		st, err = c.sendRPCoIB(e, conn, id, deadline, tw, kind, param, timed)
	} else {
		st, err = c.sendBaseline(e, conn, id, deadline, tw, kind, param, timed)
	}
	conn.sendMu.unlock()
	if err != nil {
		conn.takeCall(id)
		conn.organicFail(e.Now(), err)
		return c.failedFutureSpan(e, span, kind, err)
	}
	if span != nil {
		// The serialize and send windows are the ones Table I's stage
		// histograms observe, re-emitted as causal child spans.
		tr.Child(span, "client.serialize", "client", sendStart, st.serialize)
		tr.Child(span, "client.send", "client", sendStart+st.serialize, st.send,
			"bytes", strconv.Itoa(st.bytes))
	}
	c.m.bytesOut.Add(int64(st.bytes))
	kind.observe(st)
	return f
}

// sendBaseline is the paper's Listing 1: serialize into a fresh 32-byte
// DataOutputBuffer (Algorithm 1 growth), copy onto the connection's stream
// buffer behind a 4-byte length, copy heap-to-native, syscall, send. The
// serialize and send windows are measured when timed.
func (c *Client) sendBaseline(e exec.Env, conn *Connection, id int32, deadline time.Duration, tw traceWire, kind *clientKind, param wire.Writable, timed bool) (sent, error) {
	cost := c.cost()
	t0 := stamp(e, timed)
	d := wire.NewDataOutputBuffer()
	out := &conn.out
	out.Reset(d)
	encodeRequestHeader(out, id, deadline, tw, kind)
	if param != nil {
		param.Write(out)
	}
	st := d.TakeStats()
	c.work(e, cost.Serialize(out.Ops())+cost.Copy(d.Len())+c.bufferCost(st))
	out.Reset(nil) // the connection's encoder must not pin this call's buffer
	serialize := stamp(e, timed) - t0

	t1 := stamp(e, timed)
	n := d.Len()
	if cap(conn.streamBuf) < 4+n {
		// The BufferedOutputStream's backing array grows rarely and
		// persists across calls; its growth is not part of the per-call
		// bottleneck, so it is not charged.
		conn.streamBuf = make([]byte, 4+n)
	}
	frame := conn.streamBuf[:4+n]
	binary.BigEndian.PutUint32(frame, uint32(n))
	copy(frame[4:], d.Data())
	c.work(e, cost.Copy(4+n))
	native := append([]byte(nil), frame...) // the heap-to-native crossing
	c.work(e, cost.HeapNative(4+n)+cost.Syscall+cost.RPCOverhead)
	err := conn.tc.Send(e, native)
	return sent{serialize: serialize, send: stamp(e, timed) - t1, bytes: n, adjustments: st.Adjustments}, err
}

// poolKey builds the shadow-pool history key for a call kind.
func poolKey(protocol, method string) string { return protocol + "+" + method }

// kindCache holds the client's per-call-kind records, keyed by the struct so
// the hot path neither concatenates protocol+"+"+method nor builds a label.
type kindCache struct {
	mu sync.RWMutex
	m  map[CallKind]*clientKind
}

// kind returns the record of <protocol, method>, resolving it on first use.
func (c *Client) kind(protocol, method string) *clientKind {
	k := CallKind{protocol, method}
	kc := &c.kinds
	kc.mu.RLock()
	ck := kc.m[k]
	kc.mu.RUnlock()
	if ck != nil {
		return ck
	}
	kc.mu.Lock()
	defer kc.mu.Unlock()
	if kc.m == nil {
		kc.m = map[CallKind]*clientKind{}
	}
	if ck = kc.m[k]; ck == nil {
		ck = c.m.newKind(k)
		kc.m[k] = ck
	}
	return ck
}

// sendRPCoIB serializes straight into a history-sized registered buffer and
// hands it to the transport as a pooled message (DESIGN.md S33). The
// serialize and send windows are measured when timed.
func (c *Client) sendRPCoIB(e exec.Env, conn *Connection, id int32, deadline time.Duration, tw traceWire, kind *clientKind, param wire.Writable, timed bool) (sent, error) {
	cost := c.cost()
	t0 := stamp(e, timed)
	s := &conn.stream
	s.Reset(c.opts.Pool, kind.poolKey)
	c.work(e, cost.PoolGet)
	out := &conn.out
	out.Reset(s)
	encodeRequestHeader(out, id, deadline, tw, kind)
	if param != nil {
		param.Write(out)
	}
	c.work(e, cost.Serialize(out.Ops())+cost.Copy(s.Len())+c.regetCost(s))
	serialize := stamp(e, timed) - t0

	t1 := stamp(e, timed)
	n := s.Len()
	c.work(e, cost.RPCOverhead)
	if cost.SendReap > 0 {
		if conn.lastSend > 0 && e.Now()-conn.lastSend < cost.ReapIdleGap {
			c.work(e, cost.SendReap)
		}
		conn.lastSend = e.Now()
	}
	// more is false: sendMu already serializes the callers, so no caller
	// knows of another frame behind its own.
	err := transport.SendPooled(e, conn.tc, s, false)
	return sent{serialize: serialize, send: stamp(e, timed) - t1, bytes: n, adjustments: int64(s.Regets())}, err
}

// regetCost prices the doubling re-gets a cold history record causes.
func (g *engine) regetCost(s *RDMAOutputStream) time.Duration {
	cost := g.cost()
	if s.Regets() == 0 {
		return 0
	}
	d := time.Duration(s.Regets()) * (cost.PoolGet + cost.CopyBase)
	d += time.Duration(int64(cost.CopyPerKB) * s.CopiedBytes() / 1024)
	return d
}

// receiveLoop is the Connection thread: it reads every response on the
// connection, deserializes it into the waiting caller's reply, and wakes the
// caller.
func (conn *Connection) receiveLoop(e exec.Env) {
	c := conn.client
	cost := c.cost()
	baseline := c.opts.Mode == ModeBaseline
	in := new(wire.DataInput) // this thread's decoder, reset per response
	for {
		data, release, err := conn.tc.Recv(e)
		if err != nil {
			conn.organicFail(e.Now(), err)
			return
		}
		n := len(data)
		if baseline {
			// Listing 2 on the client: ByteBuffer.allocate(4) for the
			// length, ByteBuffer.allocate(len) for the body, native-to-heap
			// copy, then deserialize.
			c.work(e, cost.Syscall+cost.Alloc(4)+cost.Alloc(n)+cost.HeapNative(n))
		}
		c.work(e, cost.RPCOverhead)
		in.Reset(data)
		if baseline {
			in.ReadInt32() // frame length
		}
		id := in.ReadInt32()
		status := in.ReadU8()
		f := conn.takeCall(id)
		if f != nil {
			switch status {
			case statusSuccess:
				if f.reply != nil {
					f.reply.ReadFields(in)
				}
				if err := in.Err(); err != nil {
					f.outErr = err
				}
			case statusBusy:
				c.m.busyRejections.Inc()
				f.outErr = &TooBusyError{Backoff: time.Duration(in.ReadVLong())}
			case statusExpired:
				f.outErr = ErrDeadlineExceeded
			case statusError:
				f.outErr = &RemoteError{Msg: in.ReadText()}
			default:
				// Unknown status byte from a newer peer: surface it rather
				// than silently decoding garbage as an error text.
				f.outErr = &RemoteError{Msg: "unknown response status"}
			}
		}
		c.work(e, cost.Serialize(in.Ops())+cost.Copy(n))
		in.Reset(nil) // a parked decoder must not pin the frame it last read
		release()
		if f != nil {
			c.work(e, cost.ThreadHandoff)
			// Completion is stamped here, not at Wait, so RTT accounting
			// reflects the wire round trip even when the caller parks the
			// future and collects it later. The outcome fields are published
			// by the queue hand-off; nothing is boxed through the queue. The
			// hand-off is this thread's last touch of f: the waiter that
			// consumes it may hand the slot to its next call at once.
			f.outAt = e.Now()
			f.replyQ.TryPut(nil)
		}
	}
}

// Close tears down every cached connection (administratively: the circuit
// breakers are not charged).
func (c *Client) Close() {
	c.mu.Lock()
	conns := make([]*Connection, 0, len(c.conns))
	for _, conn := range c.conns {
		conns = append(conns, conn)
	}
	c.conns = map[connKey]*Connection{}
	c.mu.Unlock()
	for _, conn := range conns {
		conn.fail(ErrClosed)
	}
}
