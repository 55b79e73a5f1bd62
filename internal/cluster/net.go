package cluster

import (
	"errors"
	"time"

	"rpcoib/internal/bufpool"
	"rpcoib/internal/exec"
	"rpcoib/internal/ibverbs"
	"rpcoib/internal/netsim"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/sim"
	"rpcoib/internal/transport"
)

// verbsEP is the endpoint surface ibConn rides: either a dedicated
// ibverbs.EndPoint (the paper's QP-per-connection design) or a logical
// ibverbs.MuxEndpoint stream sharing a bounded physical QP set
// (Config.QPMuxPerPeer, DESIGN.md S23).
type verbsEP interface {
	SendSized(p *sim.Proc, b *bufpool.Buffer, n, size int) error
	Recv(p *sim.Proc) ([]byte, func(), error)
	WireTime(n int) time.Duration
	Close()
	RemoteAddr() string
}

// SocketNet returns a node-bound transport.Network over one of the TCP-like
// fabrics (1GigE, 10GigE, or IPoIB).
func (c *Cluster) SocketNet(kind perfmodel.LinkKind, node int) transport.Network {
	if kind == perfmodel.NativeIB {
		panic("cluster: use RPCoIBNet for the native IB transport")
	}
	c.Node(node) // validate
	return &sockNet{c: c, fabric: c.fabrics[kind], node: node, kind: kind.String()}
}

type sockNet struct {
	c      *Cluster
	fabric *netsim.Fabric
	node   int
	kind   string
}

func (n *sockNet) Kind() string { return n.kind }

func (n *sockNet) Listen(_ exec.Env, port int) (transport.Listener, error) {
	l, err := n.fabric.Listen(n.node, port)
	if err != nil {
		return nil, err
	}
	return &sockListener{l: l}, nil
}

func (n *sockNet) Dial(e exec.Env, addr string) (transport.Conn, error) {
	conn, err := n.fabric.Dial(ProcOf(e), n.node, addr)
	if err != nil {
		return nil, err
	}
	return &sockConn{c: conn}, nil
}

type sockListener struct{ l *netsim.Listener }

func (l *sockListener) Accept(e exec.Env) (transport.Conn, error) {
	conn, err := l.l.Accept(ProcOf(e))
	if err != nil {
		return nil, err
	}
	return &sockConn{c: conn}, nil
}

func (l *sockListener) Close()       { l.l.Close() }
func (l *sockListener) Addr() string { return l.l.Addr() }

type sockConn struct{ c *netsim.SocketConn }

var _ transport.SizedSender = (*sockConn)(nil)

// Send and SendSized copy data: transport.Conn.Send only borrows the slice,
// but the simulated socket queues what it is given to the peer and delivers
// it after the wire delay, by which time the sender has reused the buffer.
func (c *sockConn) Send(e exec.Env, data []byte) error {
	return c.SendSized(e, data, len(data))
}

func (c *sockConn) SendSized(e exec.Env, data []byte, size int) error {
	return c.c.SendSized(ProcOf(e), append([]byte(nil), data...), size)
}

func (c *sockConn) Recv(e exec.Env) ([]byte, func(), error) {
	data, err := c.c.Recv(ProcOf(e))
	if err != nil {
		return nil, nil, err
	}
	return data, transport.NopRelease, nil
}

func (c *sockConn) WireTime(n int) time.Duration { return c.c.WireTime(n) }

func (c *sockConn) Close()             { c.c.Close() }
func (c *sockConn) RemoteAddr() string { return c.c.RemoteAddr() }

// RPCoIBNet returns the native-IB transport for node. Connection setup
// follows the paper's bootstrap: the client dials the server's socket
// address (over IPoIB), exchanges endpoint information there, and then all
// communication flows over verbs. The returned conns implement
// transport.PooledSender for zero-copy sends from registered buffers.
func (c *Cluster) RPCoIBNet(node int) transport.Network {
	c.Node(node)
	return &ibNet{c: c, node: node}
}

// epInfoBytes sizes the QP/LID/rkey exchange blob.
var epInfoBytes = make([]byte, 72)

// fallbackHello is the bootstrap-channel greeting a client sends when it
// wants the IPoIB socket itself as the transport (circuit-breaker failover)
// rather than a verbs endpoint exchange. Its length differs from
// epInfoBytes, which is how the listener tells the two apart.
var fallbackHello = []byte("RPCOIB-FALLBACK1")

var errListenerClosed = errors.New("cluster: listener closed")

type ibNet struct {
	c    *Cluster
	node int
}

func (n *ibNet) Kind() string { return "RPCoIB" }

// Rails implements transport.RailDialer: the number of independent IB rails
// this node can dial over.
func (n *ibNet) Rails() int { return n.c.IBRails() }

// RailUp implements transport.RailDialer: whether the node's local port on
// the rail reports active — the IBV_PORT_ACTIVE state a real multi-rail
// dialer consults before posting to an HCA. A rail outage downs every port
// on the rail, so this is the locally observable face of it; a remote-side
// or switch failure is not visible here and is discovered by dialing.
func (n *ibNet) RailUp(rail int) bool {
	return !n.c.IBRailFabric(rail).NodeDown(n.node)
}

// PreferredRail implements transport.RailDialer: the topology's affinity
// rail for traffic from this node to addr (rack-local flows ride the rack's
// home rail). Unparseable addresses get rail 0.
func (n *ibNet) PreferredRail(addr string) int {
	dst, _, err := netsim.ParseAddr(addr)
	if err != nil {
		return 0
	}
	return n.c.Topology().PreferredRail(n.node, dst)
}

func (n *ibNet) Listen(e exec.Env, port int) (transport.Listener, error) {
	sockLn, err := n.c.fabrics[perfmodel.IPoIB].Listen(n.node, port)
	if err != nil {
		return nil, err
	}
	l := &ibListener{c: n.c, sockLn: sockLn, ready: e.NewQueue(0)}
	// One verbs listener (and accept loop) per rail: a dial on rail i lands
	// on rail i's EPListener, so the server side needs no rail negotiation.
	for rail := 0; rail < n.c.IBRails(); rail++ {
		ibLn, err := n.c.ibnets[rail].Listen(n.node, port)
		if err != nil {
			sockLn.Close()
			for _, prev := range l.ibLns {
				prev.Close()
			}
			return nil, err
		}
		l.ibLns = append(l.ibLns, ibLn)
		var muxLn *ibverbs.MuxListener
		if n.c.ibmuxes[rail] != nil {
			muxLn = n.c.ibmuxes[rail].NewListener(ibLn)
		}
		l.muxLns = append(l.muxLns, muxLn)
	}
	e.Spawn("rpcoib-bootstrap:"+sockLn.Addr(), l.bootstrapLoop)
	for rail := range l.ibLns {
		r := rail
		e.Spawn("rpcoib-accept:"+sockLn.Addr(), func(ae exec.Env) { l.ibAcceptLoop(ae, r) })
	}
	return l, nil
}

// DialFallback opens a plain IPoIB socket connection to the RPCoIB listener
// at addr, announced by the fallbackHello greeting on the bootstrap channel.
// The circuit breaker in internal/core uses it to keep calls flowing while
// the verbs path is down. Implements transport.FallbackDialer.
func (n *ibNet) DialFallback(e exec.Env, addr string) (transport.Conn, error) {
	p := ProcOf(e)
	sc, err := n.c.fabrics[perfmodel.IPoIB].Dial(p, n.node, addr)
	if err != nil {
		return nil, err
	}
	if err := sc.Send(p, fallbackHello); err != nil {
		sc.Close()
		return nil, err
	}
	if _, err := sc.Recv(p); err != nil { // server ack
		sc.Close()
		return nil, err
	}
	return &sockConn{c: sc}, nil
}

var _ transport.FallbackDialer = (*ibNet)(nil)

// DialRail implements transport.RailDialer: the full RPCoIB bootstrap
// (endpoint exchange over IPoIB, then the verbs handshake) pinned to exactly
// one rail. It never fails over internally — a dead rail is the caller's
// signal — so the rail selector in internal/core gets clean per-rail failure
// attribution.
func (n *ibNet) DialRail(e exec.Env, addr string, rail int) (transport.Conn, error) {
	n.c.IBRailFabric(rail) // bounds check
	p := ProcOf(e)
	sc, err := n.c.fabrics[perfmodel.IPoIB].Dial(p, n.node, addr)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	if err := sc.Send(p, epInfoBytes); err != nil {
		return nil, err
	}
	if _, err := sc.Recv(p); err != nil { // server's endpoint info / ack
		return nil, err
	}
	var ep verbsEP
	if mux := n.c.ibmuxes[rail]; mux != nil {
		// Muxed path: attach a logical stream; only the first QPMuxPerPeer
		// dials to this address pay the verbs QP handshake.
		ep, err = mux.Dial(p, n.node, addr)
	} else {
		ep, err = n.c.ibnets[rail].Dial(p, n.node, addr)
	}
	if err != nil {
		return nil, err
	}
	return &ibConn{c: n.c, ep: ep, dev: n.c.ibnets[rail].Device(n.node)}, nil
}

var _ transport.RailDialer = (*ibNet)(nil)

// Dial connects over the first reachable rail: the topology-preferred rail
// first, then the rest in ascending order, skipping rails whose local port
// is down (a dead-rail dial would burn a full connect timeout). Raw data
// paths (the HDFS block pipeline, shuffle fetches) get rail survivability
// from this loop; the RPC layer instead drives DialRail through its per-peer
// rail selector for affinity, health memory, and failover metrics.
func (n *ibNet) Dial(e exec.Env, addr string) (transport.Conn, error) {
	rails := n.railOrder(addr)
	var lastErr error
	for _, rail := range rails {
		c, err := n.DialRail(e, addr, rail)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// railOrder returns the dial preference order for addr: the preferred rail,
// then the others ascending, with dead-local-port rails moved to the back
// (still tried last, in case every port is down and the caller wants the
// true error).
func (n *ibNet) railOrder(addr string) []int {
	rails := n.Rails()
	if rails == 1 {
		return []int{0}
	}
	pref := n.PreferredRail(addr)
	up := make([]int, 0, rails)
	down := make([]int, 0, rails)
	add := func(r int) {
		if n.RailUp(r) {
			up = append(up, r)
		} else {
			down = append(down, r)
		}
	}
	add(pref)
	for r := 0; r < rails; r++ {
		if r != pref {
			add(r)
		}
	}
	return append(up, down...)
}

type ibListener struct {
	c      *Cluster
	sockLn *netsim.Listener
	ibLns  []*ibverbs.EPListener  // one verbs listener per rail
	muxLns []*ibverbs.MuxListener // per rail, non-nil entries when muxing is on
	ready  exec.Queue             // accepted transport.Conns (verbs and fallback sockets)
}

// bootstrapLoop accepts connections on the IPoIB bootstrap channel. Each one
// is either a verbs endpoint exchange (epInfoBytes greeting; the socket is
// closed once the exchange completes and the verbs endpoint arrives through
// ibAcceptLoop) or a fallback transport request (fallbackHello greeting; the
// socket itself becomes the connection). Handshakes run in their own procs
// so a slow or dead client cannot block other accepts.
func (l *ibListener) bootstrapLoop(e exec.Env) {
	for {
		sc, err := l.sockLn.Accept(ProcOf(e))
		if err != nil {
			return
		}
		e.Spawn("rpcoib-handshake:"+sc.RemoteAddr(), func(he exec.Env) {
			l.handshake(he, sc)
		})
	}
}

func (l *ibListener) handshake(e exec.Env, sc *netsim.SocketConn) {
	p := ProcOf(e)
	hello, err := sc.Recv(p)
	if err != nil {
		sc.Close()
		return
	}
	if len(hello) == len(fallbackHello) {
		// Fallback transport: ack and surface the socket as the connection.
		if err := sc.Send(p, fallbackHello); err != nil {
			sc.Close()
			return
		}
		if !l.ready.TryPut(&sockConn{c: sc}) {
			sc.Close()
		}
		return
	}
	// Verbs endpoint exchange: reply with our endpoint info and drop the
	// bootstrap socket; the endpoint itself arrives via ibAcceptLoop.
	_ = sc.Send(p, epInfoBytes)
	sc.Close()
}

func (l *ibListener) ibAcceptLoop(e exec.Env, rail int) {
	p := ProcOf(e)
	ibLn := l.ibLns[rail]
	muxLn := l.muxLns[rail]
	for {
		var ep verbsEP
		var err error
		if muxLn != nil {
			ep, err = muxLn.Accept(p)
		} else {
			ep, err = ibLn.Accept(p)
		}
		if err != nil {
			return
		}
		if !l.ready.TryPut(&ibConn{c: l.c, ep: ep, dev: ibLn.Device()}) {
			ep.Close()
		}
	}
}

func (l *ibListener) Accept(e exec.Env) (transport.Conn, error) {
	v, ok := l.ready.Get(e)
	if !ok {
		return nil, errListenerClosed
	}
	return v.(transport.Conn), nil
}

func (l *ibListener) Close() {
	l.sockLn.Close()
	for _, ibLn := range l.ibLns {
		ibLn.Close()
	}
	l.ready.Close()
}

func (l *ibListener) Addr() string { return l.sockLn.Addr() }

// ibConn adapts a verbs endpoint — dedicated or muxed — to transport.Conn
// (+ PooledSender).
type ibConn struct {
	c   *Cluster
	ep  verbsEP
	dev *ibverbs.Device
}

var _ transport.PooledSender = (*ibConn)(nil)
var _ transport.SizedSender = (*ibConn)(nil)

// SendSized stages the (small) real bytes through a registered buffer and
// bills the virtual size to the verbs transport.
func (c *ibConn) SendSized(e exec.Env, data []byte, size int) error {
	b := c.dev.RecvPool().Get(len(data))
	copy(b.Data, data)
	err := c.ep.SendSized(ProcOf(e), b, len(data), size)
	c.dev.RecvPool().Put(b)
	return err
}

// SendPooled posts the message's registered buffer with zero copies, then
// releases it. It ignores more: every message is its own post, as the model
// bills it, so a hint changes no simulated time.
func (c *ibConn) SendPooled(e exec.Env, m transport.Pooled, _ bool) error {
	b, n := m.Buffer()
	err := c.ep.SendSized(ProcOf(e), b, n, n)
	m.Release()
	return err
}

// Send is the non-pooled fallback (bootstrap/control payloads): it stages
// data through a registered buffer, paying one copy — exactly the cost the
// pooled path avoids.
func (c *ibConn) Send(e exec.Env, data []byte) error {
	e.Work(c.c.Costs.Copy(len(data)))
	return c.SendSized(e, data, len(data))
}

func (c *ibConn) Recv(e exec.Env) ([]byte, func(), error) {
	return c.ep.Recv(ProcOf(e))
}

func (c *ibConn) WireTime(n int) time.Duration { return c.ep.WireTime(n) }

func (c *ibConn) Close()             { c.ep.Close() }
func (c *ibConn) RemoteAddr() string { return c.ep.RemoteAddr() }
