package sim

import (
	"testing"
	"time"
)

// Kernel rungs of the per-layer ladder (ROADMAP needle 1). Each builds one
// Sim, runs b.N operations inside it and reports ns and allocations per
// operation; set-up is outside the timer.

// BenchmarkSleep is one process sleeping b.N times: schedule, pop and resume
// with nobody else runnable — the shape of an uncontended Resource.Use.
func BenchmarkSleep(b *testing.B) {
	s := New(1)
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkQueueHandoff is the benchmark ladder's ping-pong (sim.handoff_ns):
// two processes exchanging a value through two queues, two blocking
// hand-offs per iteration.
func BenchmarkQueueHandoff(b *testing.B) {
	s := New(1)
	ping, pong := s.NewQueue(0), s.NewQueue(0)
	s.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Put(p, p)
			pong.Get(p)
		}
		ping.Close()
	})
	s.Spawn("pong", func(p *Proc) {
		for {
			v, ok := ping.Get(p)
			if !ok {
				return
			}
			pong.Put(p, v)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkAtCallback is the ladder's sim.event_ns: b.N kernel callbacks at
// distinct instants through one closure, so only the kernel's own cost shows.
func BenchmarkAtCallback(b *testing.B) {
	s := New(1)
	fired := 0
	fn := func() { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i), fn)
	}
	s.Run()
	if fired != b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}

// BenchmarkResourceUse is four processes sharing a two-unit resource, so half
// of the acquisitions wait: the shape of SimEnv.Work on a busy node.
func BenchmarkResourceUse(b *testing.B) {
	s := New(1)
	cpu := s.NewResource(2)
	for w := 0; w < 4; w++ {
		w := w
		s.Spawn("worker", func(p *Proc) {
			for i := w; i < b.N; i += 4 {
				cpu.Use(p, time.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkSpawn is a process's whole life b.N times over: a parent spawns a
// child, the child runs and exits, the parent sleeps past it. The child's
// coroutine is the previous child's, parked at its exit, so a spawn costs
// the Proc and its start event, not a new coroutine.
func BenchmarkSpawn(b *testing.B) {
	s := New(1)
	ran := 0
	child := func(p *Proc) { ran++ }
	s.Spawn("parent", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			s.Spawn("child", child)
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	if ran != b.N {
		b.Fatalf("%d of %d children ran", ran, b.N)
	}
}
