// Package ibverbs simulates the InfiniBand verbs layer RPCoIB is built on:
// per-node devices (HCAs) with pools of pre-posted, pre-registered receive
// buffers, connected endpoint pairs (queue pairs), two-sided send/recv for
// eager messages and one-sided RDMA-write rendezvous for large ones, with
// the eager/RDMA crossover as a tunable threshold — exactly the knobs the
// paper's Section III-D describes.
//
// Discipline matters more than mechanism here: a buffer must come from a
// registered pool to travel at verbs cost; sending unregistered memory pays
// the on-the-fly registration penalty the two-level buffer pool exists to
// avoid. Receivers get views into the device's pre-posted buffers and must
// release them, just as verbs consumers repost their receive WRs.
package ibverbs

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"rpcoib/internal/bufpool"
	"rpcoib/internal/netsim"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/sim"
	"rpcoib/internal/tracing"
)

// ErrClosed reports use of a torn-down endpoint.
var ErrClosed = errors.New("ibverbs: endpoint closed")

// eagerHeader and ctrlBytes model the verbs/transport headers on the wire.
const (
	eagerHeader = 32
	ctrlBytes   = 48
)

// InlineMax is the largest payload the HCA absorbs into the send WQE itself
// (the max_inline_data analog): such sends skip the DMA read of the source
// buffer. They are a subset of eager sends and counted separately.
const InlineMax = 220

// Stats counts verbs traffic on one device.
type Stats struct {
	EagerSends     int64
	RDMASends      int64
	InlineSends    int64 // eager sends small enough to inline into the WQE
	EagerBytes     int64
	RDMABytes      int64
	UnregisteredTx int64 // sends that paid on-the-fly registration
	CQPolls        int64 // completion-queue polls performed by Recv
}

// Network is the verbs connection manager over one native-IB fabric: it
// opens per-node devices lazily and resolves listener addresses for Dial.
type Network struct {
	fabric    *netsim.Fabric
	costs     *perfmodel.CPUCosts
	threshold int
	devices   map[int]*Device
	listeners map[string]*EPListener
	srqDepth  int
	srqPerEP  int
	m         netInstruments
	tr        *tracing.Tracer
}

// SetSRQ configures a shared receive queue (depth WQEs, perEPCredit per
// endpoint) on every device — already-open and future ones. Devices keep
// their individual budgets out of this path; use Device.ConfigureSRQ to cap
// one server's registered bytes.
func (n *Network) SetSRQ(depth, perEPCredit int) {
	n.srqDepth, n.srqPerEP = depth, perEPCredit
	for _, d := range n.devices {
		if d.srq == nil {
			d.ConfigureSRQ(depth, perEPCredit, nil)
		}
	}
}

// NewNetwork creates a verbs network over fabric. threshold <= 0 selects
// perfmodel.DefaultRDMAThreshold.
func NewNetwork(fabric *netsim.Fabric, costs *perfmodel.CPUCosts, threshold int) *Network {
	if threshold <= 0 {
		threshold = perfmodel.DefaultRDMAThreshold
	}
	return &Network{
		fabric:    fabric,
		costs:     costs,
		threshold: threshold,
		devices:   map[int]*Device{},
		listeners: map[string]*EPListener{},
	}
}

// Device returns (opening if needed) the HCA of node.
func (n *Network) Device(node int) *Device {
	d, ok := n.devices[node]
	if !ok {
		d = &Device{fabric: n.fabric, node: node, costs: n.costs,
			threshold: n.threshold, recvPool: bufpool.NewNativePool(0), m: n.m, tr: n.tr}
		if n.srqDepth > 0 {
			d.ConfigureSRQ(n.srqDepth, n.srqPerEP, nil)
		}
		n.devices[node] = d
	}
	return d
}

// Devices returns every opened device in node order (fault-injection
// invariant checks walk their receive pools after a run).
func (n *Network) Devices() []*Device {
	nodes := make([]int, 0, len(n.devices))
	for node := range n.devices {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	out := make([]*Device, len(nodes))
	for i, node := range nodes {
		out[i] = n.devices[node]
	}
	return out
}

// Device models one node's HCA: it owns the pre-registered receive pool
// shared by all endpoints on the node (an SRQ-style arrangement).
type Device struct {
	fabric     *netsim.Fabric
	node       int
	costs      *perfmodel.CPUCosts
	threshold  int
	recvPool   *bufpool.NativePool
	srq        *SRQ // optional shared-receive-queue WQE accounting (S23)
	stats      Stats
	m          netInstruments
	tr         *tracing.Tracer
	stallUntil time.Duration
	freeMsgs   []*recvMsg
}

// ConfigureSRQ attaches a shared receive queue to the device: depth posted
// WQEs shared by every endpoint, at most perEPCredit held by any one
// endpoint. Arriving messages that find the queue (or their endpoint's
// credit) exhausted are RNR-delayed by SRQRNRDelay, exactly like a sender's
// rnr_timer retry. When budget is non-nil the server's registered-byte cap
// is mirrored onto the receive pool, so oversized registrations degrade
// through the pool's denied/unregistered slow path instead of growing.
func (d *Device) ConfigureSRQ(depth, perEPCredit int, budget *MemoryBudget) {
	d.srq = NewSRQ(depth, perEPCredit, 0, budget)
	if budget != nil && budget.Cap() > 0 {
		d.recvPool.SetRegisteredLimit(budget.Cap())
	}
}

// SRQ returns the device's shared receive queue, nil when unconfigured.
func (d *Device) SRQ() *SRQ { return d.srq }

// reclaim returns one reception's buffer to the device pool and reposts its
// SRQ WQE — the single exit for every delivery path (consumer release,
// teardown, delivery to a closed endpoint, loss). The record itself goes back
// on the device's free list, so nothing may touch msg afterwards.
func (d *Device) reclaim(msg *recvMsg) {
	if msg.buf == nil {
		panic("ibverbs: reception released twice")
	}
	d.recvPool.Put(msg.buf)
	d.m.postedRecvs.Dec()
	if msg.cr != nil {
		d.srq.Release(msg.cr)
	}
	msg.buf, msg.cr, msg.to, msg.from = nil, nil, nil, nil
	d.freeMsgs = append(d.freeMsgs, msg)
}

// Node returns the device's node id.
func (d *Device) Node() int { return d.node }

// RecvPool exposes the device's registered receive pool.
func (d *Device) RecvPool() *bufpool.NativePool { return d.recvPool }

// StatsSnapshot returns a copy of the device counters.
func (d *Device) StatsSnapshot() Stats { return d.stats }

// StallCQ freezes completion-queue reaping on this device until the given
// virtual time: completions that arrive earlier are not returned by Recv
// until the stall lifts, modeling a descheduled polling thread or a
// completion-channel backlog. Later calls can only extend the stall.
func (d *Device) StallCQ(until time.Duration) {
	if until > d.stallUntil {
		d.stallUntil = until
	}
}

// recvMsg is one reception, from the send that fills its pre-posted buffer to
// the consumer's release: the fabric's delivery and loss callbacks, the
// element queued on the receiving endpoint and the release handed to the
// consumer are all this one record. Records are recycled through the
// receiving device's free list with their callbacks bound once, so a message
// costs no closure and no boxing.
type recvMsg struct {
	buf    *bufpool.Buffer
	n      int
	wire   int        // virtual wire size (>= n for bulk sends)
	eager  bool       // two-sided delivery into a bounce buffer (copy on receive)
	stream uint64     // logical stream id on a muxed QP (0 = unmuxed)
	ctrl   byte       // muxData or muxClose
	cr     *SRQCredit // shared-receive-queue WQE held by this reception

	to, from *EndPoint     // receiving and sending ends
	seq      int           // position in the sender's posting order
	rnr      time.Duration // RNR retry delay the arrival pays

	arrived   func() // m.arrive: the last byte is at the receiver
	delivered func() // m.deliver: arrival after the RNR delay
	granted   func() // m.writePayload: the rendezvous control message landed
	lost      func() // m.lose
	release   func() // m.reclaim: the consumer is done with the buffer
}

// newRecv takes a reception record for the next message from ep to its peer:
// it assigns the message's place in the posting order and claims the peer's
// shared-receive-queue WQE, as the send path always has before anything else.
func (ep *EndPoint) newRecv() *recvMsg {
	d := ep.peer.dev
	var m *recvMsg
	if k := len(d.freeMsgs); k > 0 {
		m, d.freeMsgs[k-1] = d.freeMsgs[k-1], nil
		d.freeMsgs = d.freeMsgs[:k-1]
	} else {
		m = &recvMsg{}
		m.arrived, m.delivered, m.granted = m.arrive, m.deliver, m.writePayload
		m.lost, m.release = m.lose, m.reclaim
	}
	m.to, m.from = ep.peer, ep
	m.seq = ep.sendSeq
	ep.sendSeq++
	m.cr, m.rnr = ep.peer.srqConsume()
	return m
}

// post snapshots data into one of the receiving device's pre-posted buffers
// (NIC DMA, no CPU charge): the data leaves through the HCA now.
func (m *recvMsg) post(data []byte) {
	d := m.to.dev
	m.buf, m.n = d.recvPool.Get(len(data)), len(data)
	d.m.postedRecvs.Inc()
	copy(m.buf.Data, data)
}

// arrive honors an RNR retry delay: the retransmitted message lands rnr
// later, and the seq-ordered reorder buffer restores posting order around it.
func (m *recvMsg) arrive() {
	if m.rnr <= 0 {
		m.deliver()
		return
	}
	m.to.dev.fabric.Sim().After(m.rnr, m.delivered)
}

func (m *recvMsg) deliver() { m.to.deliver(m) }

// writePayload is the second leg of a rendezvous: the one-sided write of the
// payload once the control message has landed.
func (m *recvMsg) writePayload() {
	dev := m.from.dev
	dev.fabric.TransferLossy(dev.node, m.to.dev.node, m.wire, m.arrived, m.lost)
}

// lose reclaims the pre-posted receive buffer and faults the queue pair. A
// lost message would otherwise wedge the peer's in-order reorder buffer
// forever, which is exactly how a reliable QP behaves — it goes to the error
// state instead.
func (m *recvMsg) lose() {
	from := m.from
	m.to.dev.reclaim(m)
	from.fault()
}

func (m *recvMsg) reclaim() { m.to.dev.reclaim(m) }

// EPListener accepts endpoint connections (the QP exchange the paper
// bootstraps over the socket address).
type EPListener struct {
	net     *Network
	dev     *Device
	port    int
	backlog *sim.Queue
	closed  bool
}

// Listen binds an endpoint listener on node.
func (n *Network) Listen(node, port int) (*EPListener, error) {
	key := netsim.Addr(node, port)
	if _, taken := n.listeners[key]; taken {
		return nil, fmt.Errorf("ibverbs: address %s in use", key)
	}
	l := &EPListener{net: n, dev: n.Device(node), port: port,
		backlog: n.fabric.Sim().NewQueue(0)}
	n.listeners[key] = l
	return l, nil
}

// Addr returns the listener's dialable address.
func (l *EPListener) Addr() string { return netsim.Addr(l.dev.node, l.port) }

// Device returns the HCA the listener is bound to.
func (l *EPListener) Device() *Device { return l.dev }

// Accept blocks until a peer connects.
func (l *EPListener) Accept(p *sim.Proc) (*EndPoint, error) {
	v, ok := l.backlog.Get(p)
	if !ok {
		return nil, ErrClosed
	}
	return v.(*EndPoint), nil
}

// Close stops accepting. Endpoints a dialer already queued but no Accept
// ever collected are faulted — both ends — so the dialer's first use fails
// fast (and its reconnect machinery takes over) instead of wedging against a
// half-open QP, and every buffered reception returns to the device pool.
// Queue close order is deterministic: the backlog drains in dial order.
func (l *EPListener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.net.listeners, l.Addr())
	for {
		v, ok := l.backlog.TryGet()
		if !ok {
			break
		}
		v.(*EndPoint).fault()
	}
	l.backlog.Close()
}

// EndPoint is one end of a connected queue pair. Like a real QP, it
// delivers messages in posting order: rendezvous payloads take one extra
// fabric trip, so a reorder buffer holds any eager message that overtakes an
// earlier large send.
type EndPoint struct {
	dev    *Device
	peer   *EndPoint
	recvQ  *sim.Queue
	closed bool
	remote string
	cr     *SRQCredit // this end's account against the device SRQ, if any

	sendSeq int              // sequence assigned at Send on this end
	nextSeq int              // next sequence to release to recvQ
	pending map[int]*recvMsg // arrived out of order
}

// srqConsume claims a shared-receive-queue WQE for a message arriving at
// this endpoint, returning the credit to release on reclaim and the RNR
// retry delay the sender pays when the queue or credit was exhausted.
// Called from the sender's context — the sender observes the receiver's
// posted-WQE state exactly as a real HCA does through RNR NAKs.
func (ep *EndPoint) srqConsume() (*SRQCredit, time.Duration) {
	srq := ep.dev.srq
	if srq == nil || ep.closed {
		return nil, 0
	}
	if ep.cr == nil {
		ep.cr = srq.Attach()
	}
	return ep.cr, srq.Consume(ep.cr)
}

// teardown closes this end locally and reclaims every buffered reception —
// queued or parked in the reorder buffer — back to the device pool, so no
// registered buffer is stranded by a failure. Pending entries are released
// in sequence order to keep the pool's free-list state deterministic.
func (ep *EndPoint) teardown() {
	if ep.closed {
		return
	}
	ep.closed = true
	for {
		v, ok := ep.recvQ.TryGet()
		if !ok {
			break
		}
		ep.dev.reclaim(v.(*recvMsg))
	}
	if len(ep.pending) > 0 {
		seqs := make([]int, 0, len(ep.pending))
		for s := range ep.pending {
			seqs = append(seqs, s)
		}
		sort.Ints(seqs)
		for _, s := range seqs {
			ep.dev.reclaim(ep.pending[s])
		}
		ep.pending = nil
	}
	ep.recvQ.Close()
	if ep.cr != nil {
		ep.dev.srq.Detach(ep.cr)
		ep.cr = nil
	}
}

// fault transitions the queue pair to the error state: an RC QP that
// exhausts its retransmission budget on a lost message fails, and since the
// fabric that would carry a goodbye just failed too, both ends close without
// in-band notification. The RPC layer's reconnect machinery takes over.
func (ep *EndPoint) fault() {
	ep.teardown()
	ep.peer.teardown()
}

// deliver releases msg (and any consecutively buffered successors) to the
// receive queue, preserving send order. Runs in kernel context.
func (ep *EndPoint) deliver(msg *recvMsg) {
	if ep.closed {
		ep.dev.reclaim(msg)
		return
	}
	if msg.seq != ep.nextSeq {
		// Overtook an earlier rendezvous or RNR-delayed send: park it.
		if ep.pending == nil {
			ep.pending = map[int]*recvMsg{}
		}
		ep.pending[msg.seq] = msg
		return
	}
	for {
		ep.nextSeq++
		ep.recvQ.TryPutUnbounded(msg)
		next, ok := ep.pending[ep.nextSeq]
		if !ok {
			return
		}
		delete(ep.pending, ep.nextSeq)
		msg = next
	}
}

// Dial connects srcNode to a listening address. The QP handshake costs one
// fabric round trip (the socket-based endpoint-information exchange is
// performed by the RPC layer before calling Dial, as in the paper).
func (n *Network) Dial(p *sim.Proc, srcNode int, addr string) (*EndPoint, error) {
	l, ok := n.listeners[addr]
	if !ok || l.closed {
		return nil, fmt.Errorf("ibverbs: no listener at %s", addr)
	}
	d := n.Device(srcNode)
	s := d.fabric.Sim()
	local := &EndPoint{dev: d, recvQ: s.NewQueue(0), remote: l.Addr()}
	remote := &EndPoint{dev: l.dev, recvQ: s.NewQueue(0), remote: netsim.Addr(d.node, 0)}
	local.peer, remote.peer = remote, local
	done := s.NewQueue(1)
	d.fabric.Transfer(d.node, l.dev.node, ctrlBytes, func() {
		if !l.closed {
			l.backlog.TryPutUnbounded(remote)
		} else {
			// The listener closed while the request was on the wire: no one
			// will ever Accept this endpoint, so fault both ends now instead
			// of letting the dialer hold a QP whose peer is unowned.
			remote.fault()
		}
		d.fabric.Transfer(l.dev.node, d.node, ctrlBytes, func() {
			done.TryPutUnbounded(struct{}{})
		})
	})
	_, ok, timedOut := done.GetTimeout(p, d.fabric.ConnectTimeout())
	if timedOut {
		// A handshake frame was lost (partition or injected fault): fail the
		// dial rather than wedging the caller forever.
		local.teardown()
		remote.teardown()
		return nil, fmt.Errorf("ibverbs: connect timed out: %s", addr)
	}
	if !ok {
		return nil, ErrClosed
	}
	if local.closed {
		// Connected, then immediately faulted (listener teardown raced the
		// handshake ack). Surface the failure at dial time.
		return nil, ErrClosed
	}
	return local, nil
}

// RemoteAddr identifies the peer.
func (ep *EndPoint) RemoteAddr() string { return ep.remote }

// Send transmits the first n bytes of b to the peer. Small messages go
// eager (two-sided send into a pre-posted peer buffer); messages above the
// device threshold use an RDMA-write rendezvous: a control message carries
// the size, the peer pins a target buffer, and the payload moves with no
// receiver CPU involvement.
//
// The caller may reuse b as soon as Send returns (the simulated HCA has
// consumed the data, mirroring a completed local send WQE).
func (ep *EndPoint) Send(p *sim.Proc, b *bufpool.Buffer, n int) error {
	return ep.SendSized(p, b, n, n)
}

// SendSized transmits the first n real bytes of b while billing wire time
// and the eager/RDMA decision for size virtual bytes (bulk data paths send
// headers with virtual payloads; see netsim.SocketConn.SendSized).
func (ep *EndPoint) SendSized(p *sim.Proc, b *bufpool.Buffer, n, size int) error {
	return ep.sendMsg(p, b, n, size, 0, muxData, 0)
}

// sendMsg is the common send path: stream/ctrl tag the message for a muxed
// QP (hdr bills the stream-id framing as extra wire bytes, the same way
// eagerHeader bills the verbs header), and when the receiving device has an
// SRQ the message consumes one shared WQE — arriving SRQRNRDelay late if the
// queue or the endpoint's credit was exhausted, exactly like a sender
// retrying on an RNR NAK. The in-order reorder buffer on the receive side
// keeps delivery sequence intact even when only some messages are delayed.
func (ep *EndPoint) sendMsg(p *sim.Proc, b *bufpool.Buffer, n, size int, stream uint64, ctrl byte, hdr int) error {
	if ep.closed {
		return ErrClosed
	}
	if n > len(b.Data) {
		return fmt.Errorf("ibverbs: send length %d exceeds buffer cap %d", n, len(b.Data))
	}
	if size < n {
		size = n
	}
	dev := ep.dev
	if !b.Registered() {
		// Slow path the pool exists to avoid: register on the fly.
		dev.stats.UnregisteredTx++
		dev.m.unregisteredTx.Inc()
		if dev.tr != nil {
			dev.traceUnregisteredTx(p.Now(), n)
		}
		dev.fabric.ChargeCPU(p, dev.node, dev.costs.Register(n))
	}
	dev.fabric.ChargeCPU(p, dev.node, dev.costs.VerbsPost)
	peer := ep.peer
	msg := ep.newRecv()
	msg.wire, msg.stream, msg.ctrl = size, stream, ctrl
	msg.eager = size <= dev.threshold
	if msg.eager {
		dev.stats.EagerSends++
		dev.m.eagerSends.Inc()
		dev.stats.EagerBytes += int64(size)
		dev.m.eagerBytes.Add(int64(size))
		if size <= InlineMax {
			dev.stats.InlineSends++
			dev.m.inlineSends.Inc()
		}
		msg.post(b.Data[:n])
		dev.fabric.TransferLossy(dev.node, peer.dev.node, size+eagerHeader+hdr, msg.arrived, msg.lost)
		return nil
	}
	dev.stats.RDMASends++
	dev.m.rdmaSends.Inc()
	dev.stats.RDMABytes += int64(size)
	dev.m.rdmaBytes.Add(int64(size))
	dev.fabric.ChargeCPU(p, dev.node, dev.costs.VerbsPost) // the later RDMA-write post
	msg.post(b.Data[:n])
	// Rendezvous: control message first, then the one-sided payload write.
	dev.fabric.TransferLossy(dev.node, peer.dev.node, ctrlBytes+hdr, msg.granted, msg.lost)
	return nil
}

// Recv blocks until a message completes, returning a view of the registered
// receive buffer. release reposts the buffer; it must be called exactly once
// when the consumer is done with data.
func (ep *EndPoint) Recv(p *sim.Proc) (data []byte, release func(), err error) {
	data, release, _, _, err = ep.RecvMsg(p)
	return data, release, err
}

// RecvMsg is Recv plus the mux framing: the logical stream id and control
// kind carried by the message (zero for unmuxed endpoints). The demux pump
// of a muxed QP consumes completions here and routes them per stream.
func (ep *EndPoint) RecvMsg(p *sim.Proc) (data []byte, release func(), stream uint64, ctrl byte, err error) {
	v, ok := ep.recvQ.Get(p)
	if !ok {
		return nil, nil, 0, 0, ErrClosed
	}
	msg := v.(*recvMsg)
	dev := ep.dev
	if wait := dev.stallUntil - p.Now(); wait > 0 {
		// An injected CQ stall: the completion is in the queue but the
		// polling side does not see it until the stall lifts.
		p.Sleep(wait)
	}
	dev.stats.CQPolls++
	dev.m.cqPolls.Inc()
	cost := dev.costs.CQPoll
	if msg.eager {
		// Two-sided receives land in a pre-posted bounce buffer and must be
		// copied out; RDMA writes placed the data directly (the reason the
		// threshold exists). The copy is billed on the virtual size.
		cost += dev.costs.Copy(msg.wire)
	}
	dev.fabric.ChargeCPU(p, dev.node, cost)
	return msg.buf.Data[:msg.n], msg.release, msg.stream, msg.ctrl, nil
}

// WireTime reports the fabric occupancy of an n-byte message.
func (ep *EndPoint) WireTime(n int) time.Duration {
	p := ep.dev.fabric.Params()
	return p.Latency + p.TransferTime(n)
}

// Close tears down both ends after an in-band notification. Receptions the
// consumer never collected return to the device pool.
func (ep *EndPoint) Close() {
	if ep.closed {
		return
	}
	peer := ep.peer
	ep.teardown()
	// If the goodbye is lost (partition, injected drop) the peer QP still
	// dies — immediately, as its next send would fault it anyway.
	ep.dev.fabric.TransferLossy(ep.dev.node, peer.dev.node, ctrlBytes, peer.teardown, peer.teardown)
}
