package cluster

import (
	"testing"
	"time"

	"rpcoib/internal/bufpool"
	"rpcoib/internal/exec"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/transport"
)

func TestPresets(t *testing.T) {
	a := ClusterA(0)
	if a.Nodes != 65 || a.CoresPerNode != 8 {
		t.Fatalf("cluster A: %+v", a)
	}
	b := ClusterB()
	if b.Nodes != 9 {
		t.Fatalf("cluster B: %+v", b)
	}
}

func TestWorkContendsForCores(t *testing.T) {
	c := New(Config{Nodes: 1, CoresPerNode: 2, Seed: 1})
	var finish []time.Duration
	for i := 0; i < 4; i++ {
		c.SpawnOn(0, "w", func(e exec.Env) {
			e.Work(10 * time.Millisecond)
			finish = append(finish, e.Now())
		})
	}
	c.Run()
	if len(finish) != 4 {
		t.Fatalf("finish=%v", finish)
	}
	// 4 x 10ms of CPU on 2 cores takes 20ms.
	if finish[3] != 20*time.Millisecond {
		t.Fatalf("last finished at %v, want 20ms", finish[3])
	}
}

func TestWorkOnDifferentNodesIsIndependent(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 1, Seed: 1})
	var f0, f1 time.Duration
	c.SpawnOn(0, "w0", func(e exec.Env) { e.Work(10 * time.Millisecond); f0 = e.Now() })
	c.SpawnOn(1, "w1", func(e exec.Env) { e.Work(10 * time.Millisecond); f1 = e.Now() })
	c.Run()
	if f0 != 10*time.Millisecond || f1 != 10*time.Millisecond {
		t.Fatalf("f0=%v f1=%v", f0, f1)
	}
}

func TestDiskSerializesAndCounts(t *testing.T) {
	cfg := Config{Nodes: 1, Seed: 1, DiskReadBW: 100e6, DiskWriteBW: 100e6, DiskSeek: time.Millisecond}
	c := New(cfg)
	var done time.Duration
	c.SpawnOn(0, "a", func(e exec.Env) {
		se := e.(*SimEnv)
		se.node.Disk.Write(se.p, 100_000_000) // 1s + 1ms seek
	})
	c.SpawnOn(0, "b", func(e exec.Env) {
		se := e.(*SimEnv)
		se.node.Disk.Read(se.p, 100_000_000)
		done = e.Now()
	})
	c.Run()
	want := 2*time.Second + 2*time.Millisecond
	if done != want {
		t.Fatalf("done=%v want=%v", done, want)
	}
	d := c.Node(0).Disk
	if d.BytesRead != 100_000_000 || d.BytesWritten != 100_000_000 {
		t.Fatalf("disk counters %d %d", d.BytesRead, d.BytesWritten)
	}
}

func TestSocketNetEcho(t *testing.T) {
	c := New(Config{Nodes: 2, Seed: 1})
	var reply string
	serverNet := c.SocketNet(perfmodel.IPoIB, 0)
	clientNet := c.SocketNet(perfmodel.IPoIB, 1)
	c.SpawnOn(0, "server", func(e exec.Env) {
		ln, err := serverNet.Listen(e, 9000)
		if err != nil {
			t.Error(err)
			return
		}
		conn, err := ln.Accept(e)
		if err != nil {
			t.Error(err)
			return
		}
		data, release, err := conn.Recv(e)
		if err != nil {
			t.Error(err)
			return
		}
		conn.Send(e, append([]byte("re:"), data...))
		release()
	})
	c.SpawnOn(1, "client", func(e exec.Env) {
		e.Sleep(time.Millisecond) // let the server listen
		conn, err := clientNet.Dial(e, "node0:9000")
		if err != nil {
			t.Error(err)
			return
		}
		conn.Send(e, []byte("hi"))
		data, release, err := conn.Recv(e)
		if err != nil {
			t.Error(err)
			return
		}
		reply = string(data)
		release()
	})
	c.Run()
	if reply != "re:hi" {
		t.Fatalf("reply=%q", reply)
	}
}

// poolMsg is the first n bytes of a native-pool buffer, put back on release.
type poolMsg struct {
	pool *bufpool.NativePool
	b    *bufpool.Buffer
	n    int
}

func (m *poolMsg) Buffer() (*bufpool.Buffer, int) { return m.b, m.n }
func (m *poolMsg) Release()                       { m.pool.Put(m.b) }

func TestRPCoIBNetBootstrapAndZeroCopy(t *testing.T) {
	c := New(Config{Nodes: 2, Seed: 1})
	var got []byte
	var kind string
	c.SpawnOn(0, "server", func(e exec.Env) {
		ln, err := c.RPCoIBNet(0).Listen(e, 9000)
		if err != nil {
			t.Error(err)
			return
		}
		conn, err := ln.Accept(e)
		if err != nil {
			t.Error(err)
			return
		}
		data, release, err := conn.Recv(e)
		if err != nil {
			t.Error(err)
			return
		}
		got = append([]byte(nil), data...)
		release()
		conn.Send(e, []byte("ok"))
	})
	c.SpawnOn(1, "client", func(e exec.Env) {
		e.Sleep(time.Millisecond)
		net := c.RPCoIBNet(1)
		kind = net.Kind()
		conn, err := net.Dial(e, "node0:9000")
		if err != nil {
			t.Error(err)
			return
		}
		ps, ok := conn.(transport.PooledSender)
		if !ok {
			t.Error("IB conn must implement PooledSender")
			return
		}
		pool := bufpool.NewNativePool(0)
		m := &poolMsg{pool: pool, b: pool.Get(64), n: 17}
		copy(m.b.Data, "zero-copy payload")
		if err := ps.SendPooled(e, m, false); err != nil {
			t.Error(err)
			return
		}
		if _, release, err := conn.Recv(e); err != nil {
			t.Error(err)
		} else {
			release()
		}
	})
	c.Run()
	if string(got) != "zero-copy payload" {
		t.Fatalf("got=%q", got)
	}
	if kind != "RPCoIB" {
		t.Fatalf("kind=%q", kind)
	}
}

func TestIBFasterThanIPoIBSmallMessages(t *testing.T) {
	// One-way small-message time over verbs must beat IPoIB sockets — the
	// core premise of the paper.
	measure := func(useIB bool) time.Duration {
		c := New(Config{Nodes: 2, Seed: 1})
		var elapsed time.Duration
		c.SpawnOn(0, "server", func(e exec.Env) {
			var ln transport.Listener
			var err error
			if useIB {
				ln, err = c.RPCoIBNet(0).Listen(e, 9000)
			} else {
				ln, err = c.SocketNet(perfmodel.IPoIB, 0).Listen(e, 9000)
			}
			if err != nil {
				t.Error(err)
				return
			}
			conn, err := ln.Accept(e)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				data, release, err := conn.Recv(e)
				if err != nil {
					return
				}
				conn.Send(e, data[:1])
				release()
			}
		})
		c.SpawnOn(1, "client", func(e exec.Env) {
			e.Sleep(time.Millisecond)
			var conn transport.Conn
			var err error
			if useIB {
				conn, err = c.RPCoIBNet(1).Dial(e, "node0:9000")
			} else {
				conn, err = c.SocketNet(perfmodel.IPoIB, 1).Dial(e, "node0:9000")
			}
			if err != nil {
				t.Error(err)
				return
			}
			start := e.Now()
			const iters = 100
			for i := 0; i < iters; i++ {
				conn.Send(e, []byte{1, 2, 3, 4})
				_, release, err := conn.Recv(e)
				if err != nil {
					t.Error(err)
					return
				}
				release()
			}
			elapsed = (e.Now() - start) / iters
			conn.Close()
		})
		c.Run()
		return elapsed
	}
	ib, ipoib := measure(true), measure(false)
	if ib >= ipoib {
		t.Fatalf("IB RTT %v not faster than IPoIB RTT %v", ib, ipoib)
	}
	if ipoib < 3*ib {
		t.Logf("note: IB %v vs IPoIB %v (ratio %.1fx)", ib, ipoib, float64(ipoib)/float64(ib))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() time.Duration {
		c := New(Config{Nodes: 4, Seed: 99})
		for n := 0; n < 4; n++ {
			n := n
			c.SpawnOn(n, "w", func(e exec.Env) {
				for i := 0; i < 10; i++ {
					e.Work(time.Duration(e.Rand().Intn(1000)) * time.Microsecond)
					e.Sleep(time.Duration(n) * time.Microsecond)
				}
			})
		}
		return c.Run()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}
