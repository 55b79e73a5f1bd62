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
