// Package netsim models the cluster interconnect at message granularity:
// per-node NICs with store-and-forward/cut-through timing, per-link latency
// and bandwidth from the frozen perfmodel tables, and TCP-like socket
// connections with protocol-stack CPU charged against the owning node's
// cores. It supplies the raw Transfer primitive that both the socket layer
// here and the verbs layer (internal/ibverbs) are built on.
package netsim

import (
	"fmt"
	"time"

	"rpcoib/internal/perfmodel"
	"rpcoib/internal/sim"
)

// CPUFunc resolves a node id to the resource modeling its CPU cores, so
// protocol-stack work contends with application work. A nil CPUFunc (or nil
// result) disables CPU accounting for that node.
type CPUFunc func(node int) *sim.Resource

// Fabric is one interconnect instance (all nodes share one link-parameter
// set, matching the paper's homogeneous clusters). A simulation typically
// creates several fabrics — e.g. an IPoIB fabric and a native-IB fabric over
// the same nodes — mirroring the multi-rail hosts of Cluster B.
type Fabric struct {
	s         *sim.Sim
	params    perfmodel.LinkParams
	cpuOf     CPUFunc
	nics      map[int]*nic
	listeners map[string]*Listener
	connSeq   int
	down      map[int]bool
	linkDown  map[linkKey]bool
	held      map[linkKey][]heldXfer
	egress    map[int]time.Duration
	hook      FaultHook
	connTO    time.Duration
	freeXfers []*xfer
	freeMsgs  []*sizedMsg

	// Delivered counts messages and bytes that completed transfer.
	Delivered      int64
	DeliveredBytes int64
}

// FaultOutcome is a FaultHook's verdict on one inter-node transfer.
type FaultOutcome struct {
	// Drop loses the message: the loss callback (if any) runs instead of
	// delivery, as for a partitioned endpoint.
	Drop bool
	// Duplicate makes the frame occupy the wire twice. It is still delivered
	// once: every transport above this layer is reliable (TCP, RC queue
	// pairs) and discards the duplicate after it has burned bandwidth.
	Duplicate bool
	// Delay postpones delivery past the modeled wire time.
	Delay time.Duration
}

// FaultHook inspects every inter-node transfer before it is scheduled.
// Loopback traffic is never offered to the hook. Implementations must be
// deterministic for reproducible simulations (draw randomness from a seeded
// source consumed only here).
type FaultHook interface {
	OnTransfer(src, dst, size int) FaultOutcome
}

// linkKey names an undirected node pair.
type linkKey struct{ a, b int }

func linkOf(src, dst int) linkKey {
	if src < dst {
		return linkKey{src, dst}
	}
	return linkKey{dst, src}
}

// heldXfer is a transfer parked on a downed link, re-dispatched on heal.
type heldXfer struct {
	src, dst, size int
	deliver        func()
	lost           func()
}

// xfer is one transfer on its way to delivery. Records are recycled through
// the fabric's free list, each with its completion callback bound once, so a
// transfer schedules a kernel event without building a closure.
type xfer struct {
	f       *Fabric
	size    int
	deliver func()
	done    func() // x.complete
}

// takeFree pops a recycled record off a free list; nil when it is empty.
func takeFree[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	r := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return r
}

func (f *Fabric) newXfer(size int, deliver func()) *xfer {
	x := takeFree(&f.freeXfers)
	if x == nil {
		x = &xfer{f: f}
		x.done = x.complete
	}
	x.size, x.deliver = size, deliver
	return x
}

// complete runs in kernel context when the last byte arrives. The record is
// free again before deliver runs, so a delivery that sends reuses it.
func (x *xfer) complete() {
	f, deliver := x.f, x.deliver
	f.Delivered++
	f.DeliveredBytes += int64(x.size)
	x.deliver = nil
	f.freeXfers = append(f.freeXfers, x)
	deliver()
}

type nic struct {
	txFree time.Duration
	rxFree time.Duration
}

// NewFabric creates a fabric over the given link parameters.
func NewFabric(s *sim.Sim, params perfmodel.LinkParams, cpuOf CPUFunc) *Fabric {
	return &Fabric{
		s:         s,
		params:    params,
		cpuOf:     cpuOf,
		nics:      map[int]*nic{},
		listeners: map[string]*Listener{},
		down:      map[int]bool{},
		linkDown:  map[linkKey]bool{},
		held:      map[linkKey][]heldXfer{},
		egress:    map[int]time.Duration{},
	}
}

// Params returns the fabric's link parameters.
func (f *Fabric) Params() perfmodel.LinkParams { return f.params }

// Sim returns the owning simulator.
func (f *Fabric) Sim() *sim.Sim { return f.s }

func (f *Fabric) nic(node int) *nic {
	n, ok := f.nics[node]
	if !ok {
		n = &nic{}
		f.nics[node] = n
	}
	return n
}

// ChargeCPU makes p occupy a core of node for d. It is exported for the
// layers built on the fabric (sockets here, verbs in internal/ibverbs).
func (f *Fabric) ChargeCPU(p *sim.Proc, node int, d time.Duration) {
	if d <= 0 {
		return
	}
	if f.cpuOf != nil {
		if cpu := f.cpuOf(node); cpu != nil {
			cpu.Use(p, d)
			return
		}
	}
	// No core model for this node: the work still takes time.
	p.Sleep(d)
}

// Transfer moves size bytes from src to dst and runs deliver (in kernel
// context) when the last byte arrives. Timing: the sender NIC serializes
// outgoing messages FIFO at link bandwidth; reception is cut-through —
// it begins one latency after transmission begins but a receiver NIC also
// handles one message at a time, so incast congestion queues at the
// receiver.
func (f *Fabric) Transfer(src, dst, size int, deliver func()) {
	f.TransferLossy(src, dst, size, deliver, nil)
}

// TransferLossy is Transfer with an explicit loss callback: when the message
// cannot be delivered (a partitioned endpoint or an injected drop), lost runs
// instead of deliver, so a sender holding resources for the in-flight message
// (a pre-posted receive buffer, QP state) can reclaim them — the analog of a
// send work request completing in error. lost may be nil for senders with
// nothing to reclaim (plain socket frames).
func (f *Fabric) TransferLossy(src, dst, size int, deliver, lost func()) {
	if f.down[src] || f.down[dst] {
		// Partitioned host: frames are lost; timeouts upstack detect the
		// failure, as on a real fabric.
		if lost != nil {
			lost()
		}
		return
	}
	now := f.s.Now()
	if src == dst {
		// Loopback: no NIC involvement, a fixed small kernel hop. Injected
		// faults model the interconnect and never apply here.
		f.s.At(now+loopbackLatency, f.newXfer(size, deliver).done)
		return
	}
	if k := linkOf(src, dst); f.linkDown[k] {
		// A downed link pauses traffic rather than dropping it: reliable
		// transports ride out a short flap via retransmission, so the
		// message is re-dispatched when the link heals.
		f.held[k] = append(f.held[k], heldXfer{src, dst, size, deliver, lost})
		return
	}
	delay := f.egress[src]
	dup := false
	if f.hook != nil {
		o := f.hook.OnTransfer(src, dst, size)
		if o.Drop {
			if lost != nil {
				lost()
			}
			return
		}
		delay, dup = delay+o.Delay, o.Duplicate
	}
	tx, rx := f.nic(src), f.nic(dst)
	dur := f.params.TransferTime(size)
	txStart := maxDur(now, tx.txFree)
	tx.txFree = txStart + dur
	rxStart := maxDur(txStart+f.params.Latency, rx.rxFree)
	rxDone := rxStart + dur
	rx.rxFree = rxDone
	f.s.At(rxDone+delay, f.newXfer(size, deliver).done)
	if dup {
		// The duplicate burns wire time on both NICs but is not delivered.
		txStart := maxDur(now, tx.txFree)
		tx.txFree = txStart + dur
		rxStart := maxDur(txStart+f.params.Latency, rx.rxFree)
		rx.rxFree = rxStart + dur
	}
}

// loopbackLatency is the same-host delivery latency (localhost sockets).
const loopbackLatency = 8 * time.Microsecond

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// SetNodeDown partitions (or heals) a node: all traffic to and from it is
// dropped, and new dials fail fast. Used for failure-injection tests.
func (f *Fabric) SetNodeDown(node int, down bool) { f.down[node] = down }

// NodeDown reports whether a node is partitioned.
func (f *Fabric) NodeDown(node int) bool { return f.down[node] }

// SetLinkDown fails (or heals) the a<->b link in both directions. Unlike a
// node partition, traffic attempted while the link is down is held and
// re-dispatched on heal — the view a reliable transport has of a short flap.
// Re-dispatched messages pass the normal checks again, so one that meanwhile
// lost an endpoint to a partition is dropped (its loss callback runs).
func (f *Fabric) SetLinkDown(a, b int, down bool) {
	k := linkOf(a, b)
	if down {
		f.linkDown[k] = true
		return
	}
	if !f.linkDown[k] {
		return
	}
	delete(f.linkDown, k)
	held := f.held[k]
	delete(f.held, k)
	for _, h := range held {
		f.TransferLossy(h.src, h.dst, h.size, h.deliver, h.lost)
	}
}

// SetEgressDelay adds (or, with 0, clears) a fixed delivery delay on every
// inter-node transfer sent *from* node on this fabric — an asymmetric
// degradation, as from a marginal cable or a retraining link: the node's
// inbound traffic is unaffected, its outbound traffic arrives late. The
// delay postpones delivery, not wire occupancy, so it does not congest the
// NIC model. Loopback traffic is never delayed.
func (f *Fabric) SetEgressDelay(node int, d time.Duration) {
	if d <= 0 {
		delete(f.egress, node)
		return
	}
	f.egress[node] = d
}

// SetFaultHook installs (nil clears) the fault-injection hook consulted on
// every inter-node transfer.
func (f *Fabric) SetFaultHook(h FaultHook) { f.hook = h }

// SetConnectTimeout overrides how long a connect handshake may block before
// Dial fails (0 restores the package default). The verbs bootstrap on the
// same fabric honors it too.
func (f *Fabric) SetConnectTimeout(d time.Duration) { f.connTO = d }

// ConnectTimeout returns the fabric's effective connect timeout.
func (f *Fabric) ConnectTimeout() time.Duration {
	if f.connTO > 0 {
		return f.connTO
	}
	return ConnectTimeout
}

// Addr formats a node/port pair as a dialable address.
func Addr(node, port int) string { return fmt.Sprintf("node%d:%d", node, port) }

// ParseAddr parses an address produced by Addr.
func ParseAddr(addr string) (node, port int, err error) {
	if _, err := fmt.Sscanf(addr, "node%d:%d", &node, &port); err != nil {
		return 0, 0, fmt.Errorf("netsim: bad address %q: %w", addr, err)
	}
	return node, port, nil
}
