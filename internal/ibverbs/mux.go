// QP multiplexing (DESIGN.md S23): many logical connections share a bounded
// set of physical queue pairs per peer, in the spirit of RDMAvisor's shared
// RDMA resources (PAPERS.md). Each message on a muxed QP carries a logical
// stream id in its framing — billed as muxHeader extra wire bytes, the same
// way eagerHeader bills the verbs header — and a demux pump proc per
// physical QP routes completions to per-stream receive queues. Opening a
// logical connection to a peer that already has QP capacity is therefore
// free of fabric round trips: only the first perPeer dials pay the QP
// handshake, after which attach is pure bookkeeping.
//
// The pump owns the physical QP's completion queue (a dedicated progress
// thread, as in Ibdxnet's msgrc transport), so CQ-poll CPU is billed to the
// pump's context; logical consumers just dequeue routed completions.
package ibverbs

import (
	"fmt"
	"sort"
	"time"

	"rpcoib/internal/bufpool"
	"rpcoib/internal/metrics"
	"rpcoib/internal/sim"
)

// muxHeader bills the logical stream id carried in the wire framing of every
// message on a muxed QP.
const muxHeader = 8

// Control kinds carried in recvMsg.ctrl on muxed QPs.
const (
	muxData  byte = 0
	muxClose byte = 1
)

// sendCtrl posts an in-order, zero-payload control message on the physical
// QP (stream close notifications). Like EndPoint.Close it runs without a
// proc — no CPU charge, just the wire — but unlike Close it rides the normal
// sequence space so it cannot overtake in-flight data on the same QP.
func (ep *EndPoint) sendCtrl(stream uint64, ctrl byte) {
	if ep.closed {
		return
	}
	dev := ep.dev
	msg := ep.newRecv()
	msg.wire, msg.eager, msg.stream, msg.ctrl = 0, true, stream, ctrl
	msg.post(nil)
	dev.fabric.TransferLossy(dev.node, ep.peer.dev.node, ctrlBytes+muxHeader, msg.arrived, msg.lost)
}

// Mux multiplexes logical endpoints over at most perPeer physical QPs per
// (source node, destination address) pair. All state changes happen in the
// single simulation kernel, so gauge updates are single-writer.
type Mux struct {
	net     *Network
	perPeer int
	groups  map[muxKey]*muxGroup

	qps     int // physical QP sides open (each QP counts once per side)
	peak    int
	streams int

	gCap     *metrics.Gauge
	gQPs     *metrics.Gauge
	gPeak    *metrics.Gauge
	gStreams *metrics.Gauge
	cOpened  *metrics.Counter
	cClosed  *metrics.Counter
}

type muxKey struct {
	node int
	addr string
}

// muxGroup is one dialer's bounded QP set toward one listener address.
type muxGroup struct {
	key   muxKey
	pipes []*muxPipe
}

// muxPipe is one side of a physical QP carrying many logical streams.
type muxPipe struct {
	mux     *Mux
	group   *muxGroup // nil on the accepting side
	ep      *EndPoint
	streams map[uint64]*MuxEndpoint
	load    int
	dead    bool
	next    uint64 // stream id allocator (dialing side only)
}

// NewMux creates a multiplexer over net with at most perPeer physical QPs
// per (source node, destination address) pair (min 1).
func NewMux(net *Network, perPeer int) *Mux {
	if perPeer < 1 {
		perPeer = 1
	}
	return &Mux{net: net, perPeer: perPeer, groups: map[muxKey]*muxGroup{}}
}

// QPs returns the physical QP sides currently open across all groups and
// listeners (a connected QP between two instrumented nodes counts twice,
// once per side).
func (m *Mux) QPs() int { return m.qps }

// Streams returns the logical endpoints currently attached.
func (m *Mux) Streams() int { return m.streams }

// Instrument mirrors the multiplexer into r (rpc_ib_qp_mux_* family, shared
// with the standalone QPMux accounting table).
func (m *Mux) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	m.gCap = r.Gauge(mQPMuxCap)
	m.gQPs = r.Gauge(mQPMuxQPs)
	m.gPeak = r.Gauge(mQPMuxQPsPeak)
	m.gStreams = r.Gauge(mQPMuxStreams)
	m.cOpened = r.Counter(mQPMuxStreamsOpened)
	m.cClosed = r.Counter(mQPMuxStreamsClosed)
	m.gCap.Set(int64(m.perPeer))
	m.gQPs.Set(int64(m.qps))
	m.gStreams.Set(int64(m.streams))
}

func (m *Mux) qpOpened() {
	m.qps++
	if m.qps > m.peak {
		m.peak = m.qps
		m.gPeak.Set(int64(m.peak))
	}
	m.gQPs.Set(int64(m.qps))
}

func (m *Mux) qpClosed() {
	m.qps--
	m.gQPs.Set(int64(m.qps))
}

func (m *Mux) streamOpened() {
	m.streams++
	m.gStreams.Set(int64(m.streams))
	m.cOpened.Inc()
}

func (m *Mux) streamClosed() {
	m.streams--
	m.gStreams.Set(int64(m.streams))
	m.cClosed.Inc()
}

// Dial opens a logical endpoint from srcNode to a listening address wrapped
// by a MuxListener. While the peer group is under its QP cap each dial opens
// a fresh physical QP (one verbs handshake); at the cap, new streams attach
// to the least-loaded existing QP — lowest index on ties, so placement is
// deterministic — with no fabric traffic at all.
func (m *Mux) Dial(p *sim.Proc, srcNode int, addr string) (*MuxEndpoint, error) {
	key := muxKey{node: srcNode, addr: addr}
	g := m.groups[key]
	if g == nil {
		g = &muxGroup{key: key}
		m.groups[key] = g
	}
	var pipe *muxPipe
	if len(g.pipes) < m.perPeer {
		ep, err := m.net.Dial(p, srcNode, addr)
		if err != nil {
			return nil, err
		}
		pipe = &muxPipe{mux: m, group: g, ep: ep, streams: map[uint64]*MuxEndpoint{}}
		g.pipes = append(g.pipes, pipe)
		m.qpOpened()
		m.spawnPump(pipe, nil)
	} else {
		pipe = g.pipes[0]
		for _, cand := range g.pipes[1:] {
			if cand.load < pipe.load {
				pipe = cand
			}
		}
	}
	pipe.next++
	return pipe.attach(pipe.next), nil
}

// attach creates the logical endpoint for stream on pipe (either side).
func (pipe *muxPipe) attach(stream uint64) *MuxEndpoint {
	me := &MuxEndpoint{
		pipe:   pipe,
		stream: stream,
		recvQ:  pipe.ep.dev.fabric.Sim().NewQueue(0),
		remote: fmt.Sprintf("%s/s%d", pipe.ep.RemoteAddr(), stream),
	}
	pipe.streams[stream] = me
	pipe.load++
	pipe.mux.streamOpened()
	return me
}

// spawnPump starts the demux progress proc for one physical QP side. onNew
// (accepting side only) receives logical endpoints opened by the peer.
func (m *Mux) spawnPump(pipe *muxPipe, onNew func(*MuxEndpoint)) {
	s := pipe.ep.dev.fabric.Sim()
	s.Spawn(fmt.Sprintf("ib-mux-pump:%d->%s", pipe.ep.dev.node, pipe.ep.RemoteAddr()),
		func(p *sim.Proc) { m.pump(p, pipe, onNew) })
}

// pump drains the physical QP's completions and routes them per stream.
func (m *Mux) pump(p *sim.Proc, pipe *muxPipe, onNew func(*MuxEndpoint)) {
	for {
		data, release, stream, ctrl, err := pipe.ep.RecvMsg(p)
		if err != nil {
			m.pipeFault(pipe)
			return
		}
		me := pipe.streams[stream]
		if ctrl == muxClose {
			release()
			if me != nil {
				me.detach(false)
			}
			continue
		}
		if me == nil {
			if onNew == nil {
				// Data for a stream this dialing side already closed: the
				// peer sent before our close notification arrived. Drop it.
				release()
				continue
			}
			me = pipe.attach(stream)
			onNew(me)
		}
		me.recvQ.TryPutUnbounded(muxRecv{data: data, release: release})
	}
}

// pipeFault tears down every logical stream of a dead physical QP (in
// stream-id order, deterministically) and drops the QP from its group.
func (m *Mux) pipeFault(pipe *muxPipe) {
	if pipe.dead {
		return
	}
	pipe.dead = true
	ids := make([]uint64, 0, len(pipe.streams))
	for id := range pipe.streams {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		pipe.streams[id].detach(false)
	}
	if g := pipe.group; g != nil {
		for i, cand := range g.pipes {
			if cand == pipe {
				g.pipes = append(g.pipes[:i], g.pipes[i+1:]...)
				break
			}
		}
	}
	m.qpClosed()
}

// MuxListener surfaces the logical endpoints peers open over muxed QPs
// accepted from an EPListener.
type MuxListener struct {
	mux   *Mux
	l     *EPListener
	ready *sim.Queue // *MuxEndpoint
}

// NewListener wraps l: every accepted physical QP gets a demux pump, and
// each logical stream a peer opens surfaces through Accept.
func (m *Mux) NewListener(l *EPListener) *MuxListener {
	s := l.net.fabric.Sim()
	ml := &MuxListener{mux: m, l: l, ready: s.NewQueue(0)}
	s.Spawn("ib-mux-accept:"+l.Addr(), ml.acceptLoop)
	return ml
}

func (ml *MuxListener) acceptLoop(p *sim.Proc) {
	for {
		ep, err := ml.l.Accept(p)
		if err != nil {
			ml.ready.Close()
			return
		}
		pipe := &muxPipe{mux: ml.mux, ep: ep, streams: map[uint64]*MuxEndpoint{}}
		ml.mux.qpOpened()
		ml.mux.spawnPump(pipe, func(me *MuxEndpoint) {
			ml.ready.TryPutUnbounded(me)
		})
	}
}

// Accept blocks until a peer opens a logical stream.
func (ml *MuxListener) Accept(p *sim.Proc) (*MuxEndpoint, error) {
	v, ok := ml.ready.Get(p)
	if !ok {
		return nil, ErrClosed
	}
	return v.(*MuxEndpoint), nil
}

// Addr returns the wrapped listener's address.
func (ml *MuxListener) Addr() string { return ml.l.Addr() }

// Close closes the wrapped listener; the accept loop then closes ready.
func (ml *MuxListener) Close() { ml.l.Close() }

// muxRecv is one routed completion held in a logical receive queue. The
// release still points at the physical QP's device pool.
type muxRecv struct {
	data    []byte
	release func()
}

// MuxEndpoint is one logical connection riding a muxed physical QP. It
// mirrors the EndPoint API the transport layer uses, so it can treat both
// alike.
type MuxEndpoint struct {
	pipe   *muxPipe
	stream uint64
	recvQ  *sim.Queue // muxRecv
	closed bool
	remote string
}

// RemoteAddr identifies the peer listener plus the logical stream.
func (me *MuxEndpoint) RemoteAddr() string { return me.remote }

// SendSized is EndPoint.SendSized on the logical stream: the stream id rides
// the framing as muxHeader extra wire bytes.
func (me *MuxEndpoint) SendSized(p *sim.Proc, b *bufpool.Buffer, n, size int) error {
	if me.closed || me.pipe.dead {
		return ErrClosed
	}
	return me.pipe.ep.sendMsg(p, b, n, size, me.stream, muxData, muxHeader)
}

// Recv blocks until a completion is routed to this stream. release must be
// called exactly once, as with EndPoint.Recv.
func (me *MuxEndpoint) Recv(p *sim.Proc) (data []byte, release func(), err error) {
	v, ok := me.recvQ.Get(p)
	if !ok {
		return nil, nil, ErrClosed
	}
	r := v.(muxRecv)
	return r.data, r.release, nil
}

// WireTime reports fabric occupancy of an n-byte message on the stream.
func (me *MuxEndpoint) WireTime(n int) time.Duration {
	return me.pipe.ep.WireTime(n + muxHeader)
}

// Close detaches the stream and notifies the peer in-band. The physical QP
// stays up for the other streams riding it.
func (me *MuxEndpoint) Close() { me.detach(true) }

// detach removes the stream from its pipe, reclaiming any routed-but-unread
// completions. When sendClose is set the peer is told (in sequence order, so
// the notification cannot overtake earlier data).
func (me *MuxEndpoint) detach(sendClose bool) {
	if me.closed {
		return
	}
	me.closed = true
	for {
		v, ok := me.recvQ.TryGet()
		if !ok {
			break
		}
		v.(muxRecv).release()
	}
	me.recvQ.Close()
	delete(me.pipe.streams, me.stream)
	me.pipe.load--
	me.pipe.mux.streamClosed()
	if sendClose && !me.pipe.dead {
		me.pipe.ep.sendCtrl(me.stream, muxClose)
	}
}
