package ibverbs

import (
	"testing"
	"time"

	"rpcoib/internal/metrics"
	"rpcoib/internal/netsim"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/sim"
)

func TestMemoryBudgetAccounting(t *testing.T) {
	b := NewMemoryBudget(1024)
	if !b.TryReserve(512) || !b.TryReserve(512) {
		t.Fatal("reservations within cap must succeed")
	}
	if b.TryReserve(1) {
		t.Fatal("reservation past cap must fail")
	}
	if !b.Exhausted() || b.Denied() != 1 || b.Used() != 1024 {
		t.Fatalf("exhausted=%v denied=%d used=%d", b.Exhausted(), b.Denied(), b.Used())
	}
	b.Release(512)
	if b.Exhausted() || !b.TryReserve(256) {
		t.Fatal("release must free headroom")
	}
	b.SetCap(256)
	if b.TryReserve(1) {
		t.Fatal("shrinking the cap below usage must deny new reservations")
	}
	unbounded := NewMemoryBudget(0)
	if !unbounded.TryReserve(1<<40) || unbounded.Exhausted() {
		t.Fatal("cap 0 means unbounded")
	}
}

func TestMemoryBudgetDoubleRelease(t *testing.T) {
	strict := NewMemoryBudget(1024)
	if !strict.TryReserve(64) {
		t.Fatal("reserve must succeed")
	}
	strict.Release(64)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("strict budget must panic on release below zero")
			}
		}()
		strict.Release(64)
	}()

	lenient := NewMemoryBudget(1024)
	lenient.SetStrict(false)
	reg := metrics.New()
	lenient.Instrument(reg)
	if !lenient.TryReserve(64) {
		t.Fatal("reserve must succeed")
	}
	lenient.Release(64)
	lenient.Release(64) // clamped, metered, survivable
	if lenient.Used() != 0 {
		t.Fatalf("used = %d after clamped double release, want 0", lenient.Used())
	}
	if lenient.DoubleReleases() != 1 {
		t.Fatalf("DoubleReleases = %d, want 1", lenient.DoubleReleases())
	}
	if v := reg.Counter(mBudgetDoubleRel).Value(); v != 1 {
		t.Fatalf("%s = %d, want 1", mBudgetDoubleRel, v)
	}
	// Accounting stays sane afterwards: the clamp did not eat headroom.
	if !lenient.TryReserve(1024) {
		t.Fatal("full cap must be reservable after the clamp")
	}
}

func TestSRQReservedAndClose(t *testing.T) {
	b := NewMemoryBudget(256 * 256)
	q := NewSRQ(1024, 0, 256, b)
	if q.Reserved() != 256*256 || b.Used() != 256*256 {
		t.Fatalf("reserved=%d budget used=%d", q.Reserved(), b.Used())
	}
	q.Close()
	if q.Reserved() != 0 || b.Used() != 0 {
		t.Fatalf("after Close reserved=%d used=%d, want 0,0", q.Reserved(), b.Used())
	}
	q.Close() // idempotent: the second Close must not double-release (strict would panic)

	// A budget too small for even one WQE grants nothing: the floor queue is
	// usable but records zero reserved bytes, so Close releases nothing.
	tinyBudget := NewMemoryBudget(100)
	tiny := NewSRQ(8, 0, 1024, tinyBudget)
	if tiny.Depth() != 1 || tiny.Reserved() != 0 {
		t.Fatalf("tiny depth=%d reserved=%d, want 1,0", tiny.Depth(), tiny.Reserved())
	}
	tiny.Close()
	if tinyBudget.Used() != 0 {
		t.Fatalf("tiny budget used=%d after Close, want 0", tinyBudget.Used())
	}
}

func TestSRQConsumeModes(t *testing.T) {
	q := NewSRQ(2, 1, 256, nil)
	a, b := q.Attach(), q.Attach()
	if !q.TryConsume(a) {
		t.Fatal("first consume must succeed")
	}
	if q.TryConsume(a) {
		t.Fatal("credit cap 1: second consume on the same account must refuse")
	}
	if !q.TryConsume(b) {
		t.Fatal("another account still has queue room")
	}
	if q.TryConsume(nil) {
		t.Fatal("queue full: consume must refuse")
	}
	if q.Posted() != 2 || q.PostedPeak() != 2 {
		t.Fatalf("posted=%d peak=%d", q.Posted(), q.PostedPeak())
	}
	// The hardware form never refuses; it charges the RNR retry delay and
	// lets posted overdraw transiently.
	if d := q.Consume(nil); d != SRQRNRDelay {
		t.Fatalf("overdraw delay = %v, want %v", d, SRQRNRDelay)
	}
	if q.Posted() != 3 || q.PostedPeak() != 3 {
		t.Fatalf("after overdraw posted=%d peak=%d", q.Posted(), q.PostedPeak())
	}
	q.Release(nil)
	q.Release(a)
	q.Release(b)
	if q.Posted() != 0 || a.Held() != 0 {
		t.Fatalf("posted=%d held=%d after releases", q.Posted(), a.Held())
	}
	// Credits survive Detach: an in-flight receive of an evicted session can
	// still release safely.
	if !q.TryConsume(a) {
		t.Fatal("consume after drain must succeed")
	}
	q.Detach(a)
	q.Release(a)
	if q.Posted() != 0 {
		t.Fatalf("posted=%d after detached release", q.Posted())
	}
}

func TestSRQBudgetClampsDepth(t *testing.T) {
	b := NewMemoryBudget(256 * 256) // room for a quarter of the asked depth
	q := NewSRQ(1024, 0, 256, b)
	if q.Depth() != 256 {
		t.Fatalf("depth = %d, want 256 (halved until the budget fits)", q.Depth())
	}
	if q.RegisteredBytes() != 256*256 || b.Used() != 256*256 {
		t.Fatalf("registered=%d budget used=%d", q.RegisteredBytes(), b.Used())
	}
	// Even a budget too small for one WQE yields a usable single-entry queue.
	tiny := NewSRQ(8, 0, 1024, NewMemoryBudget(100))
	if tiny.Depth() != 1 {
		t.Fatalf("tiny depth = %d, want the floor of 1", tiny.Depth())
	}
}

func TestQPMuxAssignment(t *testing.T) {
	m := NewQPMux(2)
	q0, new0 := m.Attach()
	q1, new1 := m.Attach()
	if q0 != 0 || !new0 || q1 != 1 || !new1 {
		t.Fatalf("first attaches under cap must open QPs 0 and 1; got %d/%v %d/%v", q0, new0, q1, new1)
	}
	// At the cap: least-loaded, lowest index on ties.
	q2, new2 := m.Attach()
	if q2 != 0 || new2 {
		t.Fatalf("third attach = qp %d (new=%v), want existing qp 0", q2, new2)
	}
	if m.QPs() != 2 || m.QPsPeak() != 2 || m.Streams() != 3 {
		t.Fatalf("qps=%d peak=%d streams=%d", m.QPs(), m.QPsPeak(), m.Streams())
	}
	m.Detach(q0)
	m.Detach(q2) // qp 0 empties; the physical QP stays open for reuse
	if m.QPs() != 2 || m.Streams() != 1 {
		t.Fatalf("after detaches qps=%d streams=%d", m.QPs(), m.Streams())
	}
	q3, new3 := m.Attach()
	if q3 != 0 || new3 {
		t.Fatalf("reattach = qp %d (new=%v), want the drained slot 0 reused", q3, new3)
	}
}

// TestDeviceSRQOverdrawRNR drives a device-level SRQ past its depth: sends
// keep landing (the RNR retry form), posted peaks above depth, and once the
// receiver drains everything the queue reposts back to zero with the device
// pool balanced.
func TestDeviceSRQOverdrawRNR(t *testing.T) {
	s := sim.New(1)
	fabric := netsim.NewFabric(s, perfmodel.Link(perfmodel.NativeIB), nil)
	net := NewNetwork(fabric, perfmodel.DefaultCPU(), 0)
	net.SetSRQ(2, 0)
	ln, err := net.Listen(0, 18515)
	if err != nil {
		t.Fatal(err)
	}
	var server *EndPoint
	s.Spawn("accept", func(p *sim.Proc) {
		server, _ = ln.Accept(p)
	})
	s.Spawn("driver", func(p *sim.Proc) {
		client, err := net.Dial(p, 1, ln.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		p.Yield()
		const n = 6
		for i := 0; i < n; i++ {
			b := client.dev.recvPool.Get(8)
			b.Data[0] = byte(i)
			if err := client.Send(p, b, 8); err != nil {
				t.Error(err)
				return
			}
			client.dev.recvPool.Put(b)
		}
		srq := server.dev.SRQ()
		if srq.PostedPeak() <= srq.Depth() {
			t.Errorf("posted peak %d never overdrew depth %d", srq.PostedPeak(), srq.Depth())
		}
		for i := 0; i < n; i++ {
			data, release, err := server.Recv(p)
			if err != nil {
				t.Error(err)
				return
			}
			if data[0] != byte(i) {
				t.Errorf("msg %d tagged %d: RNR retries must not reorder", i, data[0])
			}
			release()
		}
		if srq.Posted() != 0 {
			t.Errorf("posted=%d after full drain", srq.Posted())
		}
		client.Close()
	})
	s.Run()
	st := net.Device(0).RecvPool().StatsSnapshot()
	if st.Gets != st.Puts {
		t.Fatalf("server pool gets=%d puts=%d", st.Gets, st.Puts)
	}
}

// muxEcho wires a Mux listener whose accepted streams echo one message back,
// then runs fn on the dialing side.
func muxEcho(t *testing.T, perPeer int, fn func(p *sim.Proc, s *sim.Sim, m *Mux, addr string)) *Mux {
	t.Helper()
	s := sim.New(1)
	fabric := netsim.NewFabric(s, perfmodel.Link(perfmodel.NativeIB), nil)
	net := NewNetwork(fabric, perfmodel.DefaultCPU(), 0)
	m := NewMux(net, perPeer)
	ln, err := net.Listen(0, 18515)
	if err != nil {
		t.Fatal(err)
	}
	ml := m.NewListener(ln)
	s.Spawn("echo-accept", func(p *sim.Proc) {
		for {
			me, err := ml.Accept(p)
			if err != nil {
				return
			}
			s.Spawn("echo:"+me.RemoteAddr(), func(ep *sim.Proc) {
				for {
					data, release, err := me.Recv(ep)
					if err != nil {
						return
					}
					n := len(data)
					b := net.Device(0).RecvPool().Get(n)
					copy(b.Data, data)
					release()
					if err := me.SendSized(ep, b, n, n); err != nil {
						net.Device(0).RecvPool().Put(b)
						return
					}
					net.Device(0).RecvPool().Put(b)
				}
			})
		}
	})
	s.Spawn("driver", func(p *sim.Proc) { fn(p, s, m, ln.Addr()) })
	s.Run()
	return m
}

// TestMuxSharesPhysicalQPs opens more logical streams than the per-peer QP
// cap and proves they all work over the bounded QP set, that closing one
// stream leaves its QP-mates running, and that every registered buffer goes
// home.
func TestMuxSharesPhysicalQPs(t *testing.T) {
	const perPeer, nStreams = 2, 5
	var net *Network
	m := muxEcho(t, perPeer, func(p *sim.Proc, s *sim.Sim, m *Mux, addr string) {
		net = m.net
		eps := make([]*MuxEndpoint, nStreams)
		for i := range eps {
			ep, err := m.Dial(p, 1, addr)
			if err != nil {
				t.Error(err)
				return
			}
			eps[i] = ep
		}
		// Both sides of each physical QP count once: perPeer on the dialer,
		// perPeer accepted.
		if m.QPs() != 2*perPeer {
			t.Errorf("qps=%d, want %d", m.QPs(), 2*perPeer)
		}
		echo := func(ep *MuxEndpoint, tag byte) {
			b := net.Device(1).RecvPool().Get(8)
			b.Data[0] = tag
			if err := ep.SendSized(p, b, 8, 8); err != nil {
				t.Error(err)
				return
			}
			net.Device(1).RecvPool().Put(b)
			data, release, err := ep.Recv(p)
			if err != nil {
				t.Error(err)
				return
			}
			if data[0] != tag {
				t.Errorf("stream %s echoed tag %d, want %d", ep.RemoteAddr(), data[0], tag)
			}
			release()
		}
		for i, ep := range eps {
			echo(ep, byte(i))
		}
		// Closing one stream must not disturb the others on the same QP.
		eps[0].Close()
		if _, _, err := eps[0].Recv(p); err == nil {
			t.Error("recv on a closed stream must fail")
		}
		for i, ep := range eps[1:] {
			echo(ep, byte(0x40+i))
		}
		for _, ep := range eps[1:] {
			ep.Close()
		}
		p.Sleep(time.Millisecond) // let close notifications land
	})
	if m.Streams() != 0 {
		t.Fatalf("streams=%d after closing everything", m.Streams())
	}
	for node := 0; node <= 1; node++ {
		st := net.Device(node).RecvPool().StatsSnapshot()
		if st.Gets != st.Puts {
			t.Fatalf("node %d pool gets=%d puts=%d", node, st.Gets, st.Puts)
		}
	}
}

// TestEPListenerCloseFaultsQueuedDials is the S23 regression test for the
// listener teardown path: endpoints a dialer queued but nobody accepted must
// fault fast on Close (not wedge), a dial in flight across the close must
// fail cleanly, and no registered buffer may leak.
func TestEPListenerCloseFaultsQueuedDials(t *testing.T) {
	s := sim.New(1)
	fabric := netsim.NewFabric(s, perfmodel.Link(perfmodel.NativeIB), nil)
	net := NewNetwork(fabric, perfmodel.DefaultCPU(), 0)
	ln, err := net.Listen(0, 18515)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("driver", func(p *sim.Proc) {
		// Three dials complete their handshake but are never accepted.
		eps := make([]*EndPoint, 3)
		for i := range eps {
			ep, err := net.Dial(p, 1, ln.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			eps[i] = ep
		}
		// A send queued before the close: its reception must be reclaimed.
		b := net.Device(1).RecvPool().Get(8)
		if err := eps[0].Send(p, b, 8); err != nil {
			t.Error(err)
			return
		}
		net.Device(1).RecvPool().Put(b)
		p.Sleep(time.Millisecond) // let the send land in the queued endpoint
		ln.Close()
		for i, ep := range eps {
			if _, _, err := ep.Recv(p); err == nil {
				t.Errorf("dial %d: recv after listener close must fail fast", i)
			}
			sb := net.Device(1).RecvPool().Get(8)
			if err := ep.SendSized(p, sb, 8, 8); err == nil {
				t.Errorf("dial %d: send after listener close must fail", i)
			}
			net.Device(1).RecvPool().Put(sb)
		}
		// Closed listeners refuse new dials outright.
		if _, err := net.Dial(p, 1, ln.Addr()); err == nil {
			t.Error("dial to a closed listener must fail")
		}
	})
	s.Run()
	for node := 0; node <= 1; node++ {
		st := net.Device(node).RecvPool().StatsSnapshot()
		if st.Gets != st.Puts {
			t.Fatalf("node %d pool gets=%d puts=%d (stranded reception?)", node, st.Gets, st.Puts)
		}
	}
}

// TestDialRacingListenerClose closes the listener while the connect request
// is still on the wire: the dial must fail (ErrClosed via the arrival-side
// fault) instead of handing back a QP no one owns.
func TestDialRacingListenerClose(t *testing.T) {
	s := sim.New(1)
	fabric := netsim.NewFabric(s, perfmodel.Link(perfmodel.NativeIB), nil)
	net := NewNetwork(fabric, perfmodel.DefaultCPU(), 0)
	ln, err := net.Listen(0, 18515)
	if err != nil {
		t.Fatal(err)
	}
	dialed := make(chan error, 1)
	s.Spawn("dialer", func(p *sim.Proc) {
		_, err := net.Dial(p, 1, ln.Addr())
		dialed <- err
	})
	s.Spawn("closer", func(p *sim.Proc) {
		p.Sleep(100 * time.Nanosecond) // before the connect request can arrive
		ln.Close()
	})
	s.Run()
	if err := <-dialed; err == nil {
		t.Fatal("dial racing listener close must fail")
	}
	for node := 0; node <= 1; node++ {
		st := net.Device(node).RecvPool().StatsSnapshot()
		if st.Gets != st.Puts {
			t.Fatalf("node %d pool gets=%d puts=%d", node, st.Gets, st.Puts)
		}
	}
}
