// Package transport defines the message-transport contract the RPC engine
// is written against, with two families of implementations:
//
//   - a real TCP transport (this package), used by the runnable examples and
//     the real-mode benchmarks;
//   - simulated socket and verbs transports (internal/cluster glue over
//     internal/netsim and internal/ibverbs), used by the paper experiments.
//
// Connections carry whole messages; the RPC layer does its own framing
// inside the payload exactly as Hadoop RPC does (4-byte length + data).
package transport

import (
	"time"

	"rpcoib/internal/bufpool"
	"rpcoib/internal/exec"
)

// Conn is a reliable, ordered, message-oriented connection.
type Conn interface {
	// Send transmits one message. It borrows data: the caller may reuse or
	// release the slice as soon as Send returns, so an implementation that
	// delivers it later (a simulated socket queueing to its peer) takes its
	// own copy, and one that writes it out before returning (TCP) takes none.
	Send(e exec.Env, data []byte) error
	// Recv blocks for the next message. release must be called exactly once
	// when data is no longer needed: zero-copy transports repost the
	// underlying registered buffer, TCP receives the frames that follow into
	// the same per-connection buffer, whatever their size. data is invalid
	// after release — the next frame overwrites it, and a `poison` build
	// fills it with 0xDB at once — so copy out what must outlive it. A
	// caller that calls Recv again before release keeps its view intact but
	// costs the connection a new buffer.
	Recv(e exec.Env) (data []byte, release func(), err error)
	// Close tears the connection down; blocked Recvs fail.
	Close()
	// RemoteAddr names the peer.
	RemoteAddr() string
}

// Pooled is a message serialized into a pooled buffer: its first n bytes
// are the message, and Release returns the buffer to its pool.
type Pooled interface {
	Buffer() (b *bufpool.Buffer, n int)
	Release()
}

// PooledSender is implemented by transports with a cheaper way to send a
// pooled message than Send: the verbs path posts the registered buffer with
// no copy, TCP gives it back before the frame's last bytes. SendPooled calls
// m.Release exactly once, whatever the outcome. Release may run while the
// connection's sends are held back, so it must not send on that connection.
//
// more means what Linux's MSG_MORE does: the caller holds another frame for
// this connection and sends it at once, so the transport may hold this one
// back to go out with it (TCP does, in one write). A frame held back may be
// lost with the connection without an error: the caller learns of the
// failure from a later send. A transport that sends each frame as it comes
// ignores more.
type PooledSender interface {
	SendPooled(e exec.Env, m Pooled, more bool) error
}

// SendPooled sends m and releases it exactly once: the way the conn chooses
// where it is a PooledSender, otherwise as a plain Send of the message
// followed by Release (a simulated socket takes its own copy, and a
// decorator that wraps only Conn times its Send). more is the PooledSender
// hint; the plain Send ignores it.
func SendPooled(e exec.Env, c Conn, m Pooled, more bool) error {
	if ps, ok := c.(PooledSender); ok {
		return ps.SendPooled(e, m, more)
	}
	b, n := m.Buffer()
	err := c.Send(e, b.Data[:n])
	m.Release()
	return err
}

// Listener accepts inbound connections.
type Listener interface {
	Accept(e exec.Env) (Conn, error)
	Close()
	Addr() string
}

// Network creates listeners and dials peers. Implementations are bound to a
// local identity (a simulated node, or the local host for TCP).
type Network interface {
	Listen(e exec.Env, port int) (Listener, error)
	Dial(e exec.Env, addr string) (Conn, error)
	// Kind names the transport for reporting ("1GigE", "IPoIB", "IB", "tcp").
	Kind() string
}

// FallbackDialer is implemented by networks that can reach the same peer
// over a secondary transport — the RPCoIB network falls back to the IPoIB
// sockets rail the paper keeps as its baseline. The client's circuit breaker
// uses it to keep making progress while the primary (verbs) path is broken,
// and to probe the primary again once the cooldown elapses.
type FallbackDialer interface {
	DialFallback(e exec.Env, addr string) (Conn, error)
}

// RailDialer is implemented by networks whose primary transport spans
// several physical rails to the same peer — multi-rail IB hosts with a rail
// per HCA port. The RPC client's rail selector uses it to place connections
// by affinity and load, to fail over rail-to-rail on organic verbs errors
// before widening to the FallbackDialer path, and to probe a downed rail
// half-open once its cooldown passes. A plain Network (or Rails() == 1)
// keeps the historical single-path behavior.
type RailDialer interface {
	// Rails is the rail count (>= 1). Rail indices are 0..Rails()-1.
	Rails() int
	// DialRail connects over exactly one rail, never failing over
	// internally, so the caller attributes the outcome to that rail.
	DialRail(e exec.Env, addr string, rail int) (Conn, error)
	// PreferredRail is the topology's affinity rail for traffic to addr
	// (rack locality). The selector starts here and balances away only on
	// load or failure.
	PreferredRail(addr string) int
	// RailUp reports the locally observable link state of the rail's port
	// (IBV_PORT_ACTIVE). A false rail is skipped without burning a connect
	// timeout; true does not guarantee the far side is reachable.
	RailUp(rail int) bool
}

// SizedSender is implemented by simulated transports that can bill wire
// time for a virtual payload larger than the real bytes carried — how the
// bulk data paths (HDFS blocks, shuffle segments) move gigabytes without
// materializing them in host memory. Receivers learn the virtual size from
// their own framing headers.
type SizedSender interface {
	SendSized(e exec.Env, data []byte, size int) error
}

// SendSized sends data billing size virtual bytes when the conn supports it,
// falling back to a plain Send otherwise (real TCP in the examples, where
// the virtual size is just bookkeeping).
func SendSized(e exec.Env, c Conn, data []byte, size int) error {
	if ss, ok := c.(SizedSender); ok {
		return ss.SendSized(e, data, size)
	}
	return c.Send(e, data)
}

// WireTimer is implemented by simulated transports that can report how long
// an n-byte message occupies the wire. The RPC server's profiler uses it to
// account the channelReadFully drain time inside "call receive time", as the
// paper's Figure 1 measurement does.
type WireTimer interface {
	WireTime(n int) time.Duration
}

// NopRelease is the release function non-pooled transports hand out.
func NopRelease() {}
