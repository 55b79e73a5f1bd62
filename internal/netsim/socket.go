package netsim

import (
	"errors"
	"fmt"
	"time"

	"rpcoib/internal/sim"
)

// ErrClosed reports use of a closed connection or listener.
var ErrClosed = errors.New("netsim: closed")

// ErrConnRefused reports a dial to a port nobody listens on.
var ErrConnRefused = errors.New("netsim: connection refused")

// handshakeBytes models the TCP SYN/SYN-ACK frames exchanged on connect.
const handshakeBytes = 64

// ConnectTimeout bounds the connect handshake: if the SYN or SYN-ACK is lost
// to a partition or an injected fault, Dial fails instead of wedging its
// caller forever (the analog of Hadoop's ipc 20 s connect timeout). Without
// it, a client whose re-dial raced a partition held its connection lock until
// the end of the simulation, silently dropping every later call to that
// server. It is the fabric default; SetConnectTimeout overrides it per
// fabric (simulated clusters default much lower so fault tests don't burn
// wall-clock-scale virtual time waiting out dead dials).
const ConnectTimeout = 20 * time.Second

// ErrConnTimeout reports a connect handshake that never completed.
var ErrConnTimeout = errors.New("netsim: connect timed out")

// Listener accepts socket connections on (node, port).
type Listener struct {
	f       *Fabric
	node    int
	port    int
	backlog *sim.Queue
	closed  bool
}

// Listen binds a listener. It fails if the port is taken.
func (f *Fabric) Listen(node, port int) (*Listener, error) {
	key := Addr(node, port)
	if _, taken := f.listeners[key]; taken {
		return nil, fmt.Errorf("netsim: address %s in use", key)
	}
	l := &Listener{f: f, node: node, port: port, backlog: f.s.NewQueue(0)}
	f.listeners[key] = l
	return l, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return Addr(l.node, l.port) }

// Accept blocks until a peer connects, returning the server-side conn.
func (l *Listener) Accept(p *sim.Proc) (*SocketConn, error) {
	v, ok := l.backlog.Get(p)
	if !ok {
		return nil, ErrClosed
	}
	return v.(*SocketConn), nil
}

// Close stops accepting; pending Accepts fail.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.f.listeners, Addr(l.node, l.port))
	l.backlog.Close()
}

// SocketConn is one direction-pair of a TCP-like stream carrying discrete
// messages (the RPC layer frames its own payloads). Protocol-stack CPU is
// charged to the caller on both Send and Recv.
type SocketConn struct {
	f          *Fabric
	localNode  int
	remoteNode int
	remoteAddr string
	in         *sim.Queue
	peer       *SocketConn
	closed     bool
}

// Dial connects from srcNode to addr ("nodeN:port"), blocking p for the
// handshake round trip.
func (f *Fabric) Dial(p *sim.Proc, srcNode int, addr string) (*SocketConn, error) {
	l, ok := f.listeners[addr]
	if !ok || l.closed {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
	if f.down[srcNode] || f.down[l.node] {
		return nil, fmt.Errorf("netsim: host unreachable: %s", addr)
	}
	f.connSeq++
	clientAddr := Addr(srcNode, 50000+f.connSeq)
	client := &SocketConn{f: f, localNode: srcNode, remoteNode: l.node,
		remoteAddr: addr, in: f.s.NewQueue(0)}
	server := &SocketConn{f: f, localNode: l.node, remoteNode: srcNode,
		remoteAddr: clientAddr, in: f.s.NewQueue(0)}
	client.peer, server.peer = server, client

	done := f.s.NewQueue(1)
	f.Transfer(srcNode, l.node, handshakeBytes, func() {
		if !l.closed {
			l.backlog.TryPutUnbounded(server)
		}
		f.Transfer(l.node, srcNode, handshakeBytes, func() {
			done.TryPutUnbounded(struct{}{})
		})
	})
	_, ok, timedOut := done.GetTimeout(p, f.ConnectTimeout())
	if timedOut {
		return nil, fmt.Errorf("%w: %s", ErrConnTimeout, addr)
	}
	if !ok {
		return nil, ErrClosed
	}
	return client, nil
}

// RemoteAddr returns the peer's address.
func (c *SocketConn) RemoteAddr() string { return c.remoteAddr }

// Send transmits one message. The caller is charged send-side stack CPU and
// blocked until the NIC accepts the message (an infinitely deep socket
// buffer would hide incast backpressure the experiments depend on).
func (c *SocketConn) Send(p *sim.Proc, data []byte) error {
	return c.SendSized(p, data, len(data))
}

// SendSized transmits data but bills wire time and stack CPU for size bytes
// (size >= len(data)). Bulk data paths (HDFS blocks, shuffle segments) send
// small real headers with large virtual payloads so that simulating a
// 128 GB job does not move 128 GB through host memory; all timing and
// contention behave as if the full payload crossed the wire.
func (c *SocketConn) SendSized(p *sim.Proc, data []byte, size int) error {
	return c.SendFrame(p, data, size, nil)
}

// SendFrame is SendSized for a payload that belongs to owner: the socket
// holds data until the peer's RecvFrame hands it, with owner, to the
// receiver. A message lost to a closed peer is dropped with its owner.
func (c *SocketConn) SendFrame(p *sim.Proc, data []byte, size int, owner any) error {
	if c.closed {
		return ErrClosed
	}
	if size < len(data) {
		size = len(data)
	}
	c.f.ChargeCPU(p, c.localNode, c.f.params.StackCPU(size))
	c.f.Transfer(c.localNode, c.remoteNode, size, c.f.newMsg(c.peer, data, size, owner).arrived)
	return nil
}

// sizedMsg carries a real payload plus its virtual wire size from a send to
// the matching receive: it is the transfer's delivery callback and then the
// element queued on the receiving conn. Records are recycled through the
// fabric's free list.
type sizedMsg struct {
	to      *SocketConn
	data    []byte
	size    int
	owner   any
	arrived func() // m.arrive
}

func (f *Fabric) newMsg(to *SocketConn, data []byte, size int, owner any) *sizedMsg {
	m := takeFree(&f.freeMsgs)
	if m == nil {
		m = &sizedMsg{}
		m.arrived = m.arrive
	}
	m.to, m.data, m.size, m.owner = to, data, size, owner
	return m
}

// arrive queues the message on the receiving conn, or drops it when that
// side has closed. Kernel context.
func (m *sizedMsg) arrive() {
	if m.to.closed || !m.to.in.TryPutUnbounded(m) {
		m.to.f.recycle(m)
	}
}

func (f *Fabric) recycle(m *sizedMsg) {
	m.to, m.data, m.owner = nil, nil, nil
	f.freeMsgs = append(f.freeMsgs, m)
}

// Recv blocks until a message arrives and charges receive-side stack CPU.
func (c *SocketConn) Recv(p *sim.Proc) ([]byte, error) {
	data, _, err := c.RecvFrame(p)
	return data, err
}

// RecvFrame is Recv that also returns the owner the payload was sent with
// (nil for Send and SendSized).
func (c *SocketConn) RecvFrame(p *sim.Proc) ([]byte, any, error) {
	v, ok := c.in.Get(p)
	if !ok {
		return nil, nil, ErrClosed
	}
	m := v.(*sizedMsg)
	data, size, owner := m.data, m.size, m.owner
	c.f.recycle(m)
	c.f.ChargeCPU(p, c.localNode, c.f.params.StackCPU(size))
	return data, owner, nil
}

// WireTime reports how long an n-byte message occupies the wire (transfer
// plus latency), for receive-time profiling.
func (c *SocketConn) WireTime(n int) time.Duration {
	return c.f.params.Latency + c.f.params.TransferTime(n)
}

// Close tears down both directions after notifying the peer in-band.
func (c *SocketConn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.in.Close()
	peer := c.peer
	c.f.Transfer(c.localNode, c.remoteNode, handshakeBytes, func() {
		if !peer.closed {
			peer.closed = true
			peer.in.Close()
		}
	})
}
