package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// orderLog folds every (now, proc id, step, value) a script observes into one
// SHA-256, so two kernels agree on the digest only if they ran every step of
// every process and callback in the same order at the same virtual time.
type orderLog struct {
	h hash.Hash
	n int
}

func newOrderLog() *orderLog { return &orderLog{h: sha256.New()} }

func (l *orderLog) add(now time.Duration, id int, step string, v int64) {
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(now))
	binary.LittleEndian.PutUint64(b[8:], uint64(id))
	binary.LittleEndian.PutUint64(b[16:], uint64(v))
	l.h.Write(b[:])
	l.h.Write([]byte(step))
	l.n++
}

func (l *orderLog) digest() string { return hex.EncodeToString(l.h.Sum(nil)) }

// kernelOrderScript drives every kernel primitive from one seed. All waits
// are whole microseconds drawn from a small range, so same-instant wakes,
// deliveries racing timeouts on one instant and FIFO ties are the common
// case, and every choice is drawn from the simulator's own source, so one
// reordered event changes everything after it.
func kernelOrderScript(seed int64) (digest string, steps int, end time.Duration, live int) {
	const us = time.Microsecond
	s := New(seed)
	l := newOrderLog()
	rng := s.Rand()
	bounded := s.NewQueue(2)
	unbounded := s.NewQueue(0)
	rendezvous := s.NewQueue(1)
	cpu := s.NewResource(2)
	wide := s.NewResource(4)
	nextVal := int64(0)
	val := func() int64 { nextVal++; return nextVal }
	asInt := func(v any) int64 {
		if v == nil {
			return -1
		}
		return v.(int64)
	}

	var worker func(rounds int, depth int) func(p *Proc)
	worker = func(rounds, depth int) func(p *Proc) {
		return func(p *Proc) {
			l.add(p.Now(), p.id, "start", int64(depth))
			for i := 0; i < rounds; i++ {
				switch op := rng.Intn(14); op {
				case 0:
					p.Sleep(0)
					l.add(p.Now(), p.id, "sleep0", 0)
				case 1:
					p.Yield()
					l.add(p.Now(), p.id, "yield", 0)
				case 2:
					d := time.Duration(rng.Intn(4)) * us
					p.Sleep(d)
					l.add(p.Now(), p.id, "sleep", int64(d))
				case 3:
					ok := bounded.Put(p, val())
					l.add(p.Now(), p.id, "put-bounded", b2i(ok))
				case 4:
					v, ok, to := bounded.GetTimeout(p, time.Duration(rng.Intn(4))*us)
					l.add(p.Now(), p.id, "gett-bounded", asInt(v)*4+b2i(ok)*2+b2i(to))
				case 5:
					ok := unbounded.Put(p, val())
					l.add(p.Now(), p.id, "put-unbounded", b2i(ok))
				case 6:
					v, ok, to := unbounded.GetTimeout(p, time.Duration(1+rng.Intn(3))*us)
					l.add(p.Now(), p.id, "gett-unbounded", asInt(v)*4+b2i(ok)*2+b2i(to))
				case 7:
					cpu.Use(p, time.Duration(rng.Intn(3))*us)
					l.add(p.Now(), p.id, "use", 0)
				case 8:
					n := int64(1 + rng.Intn(4))
					wide.Acquire(p, n)
					l.add(p.Now(), p.id, "acquired", n)
					p.Sleep(time.Duration(rng.Intn(3)) * us)
					wide.Release(n)
					l.add(p.Now(), p.id, "released", n)
				case 9:
					if depth < 3 {
						c := s.Spawn("child", worker(1+rng.Intn(4), depth+1))
						l.add(p.Now(), p.id, "spawn", int64(c.id))
					}
				case 10:
					// A callback that feeds a queue and spawns at a later
					// instant, from process context.
					d := time.Duration(rng.Intn(3)) * us
					v := val()
					s.After(d, func() {
						ok := unbounded.TryPutUnbounded(v)
						l.add(s.Now(), 0, "cb-put", v*2+b2i(ok))
					})
				case 11:
					ok := rendezvous.TryPut(val())
					l.add(p.Now(), p.id, "tryput", b2i(ok))
					v, got := rendezvous.TryGet()
					l.add(p.Now(), p.id, "tryget", asInt(v)*2+b2i(got))
				case 12:
					// Delivery and timeout on one instant: the peer sleeps
					// exactly the timeout, then puts. Yielding first lets the
					// peer's wake be scheduled ahead of the timeout, so the
					// delivery wins and the timeout pops as a stale no-op;
					// otherwise the timeout wins and the put finds no getter.
					d := time.Duration(1+rng.Intn(2)) * us
					q := s.NewQueue(0)
					s.Spawn("racer", func(c *Proc) {
						c.Sleep(d)
						q.Put(c, val())
						l.add(c.Now(), c.id, "race-put", 0)
					})
					if rng.Intn(2) == 0 {
						p.Yield()
					}
					v, ok, to := q.GetTimeout(p, d)
					l.add(p.Now(), p.id, "race-get", asInt(v)*4+b2i(ok)*2+b2i(to))
				case 13:
					v, ok := rendezvous.Get(p)
					l.add(p.Now(), p.id, "get-rdv", asInt(v)*2+b2i(ok))
				}
			}
			l.add(p.Now(), p.id, "exit", 0)
		}
	}

	for i := 0; i < 12; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), worker(150, 0))
	}
	// A feeder keeps the blocking Get on the rendezvous queue live, and a
	// timed-out getter loop on a queue nobody feeds stands in for the HBase
	// master's stop queue.
	s.Spawn("feeder", func(p *Proc) {
		for i := 0; i < 300; i++ {
			p.Sleep(time.Duration(1+rng.Intn(2)) * us)
			ok := rendezvous.Put(p, val())
			l.add(p.Now(), p.id, "feed", b2i(ok))
		}
	})
	idle := s.NewQueue(0)
	s.Spawn("reporter", func(p *Proc) {
		for {
			_, ok, to := idle.GetTimeout(p, 3*us)
			l.add(p.Now(), p.id, "report", b2i(ok)*2+b2i(to))
			if !to {
				return
			}
		}
	})

	// The driver advances in slices, alternating the inclusive and the
	// exclusive horizon, and schedules from kernel context between them.
	for i := 1; i <= 80; i++ {
		at := time.Duration(i) * 5 * us
		var now time.Duration
		if i%3 == 0 {
			now = s.RunBefore(at)
		} else {
			now = s.RunUntil(at)
		}
		l.add(now, -1, "slice", int64(i))
		v := val()
		s.At(at+time.Duration(rng.Intn(7))*us, func() {
			ok := bounded.TryPut(v)
			l.add(s.Now(), 0, "drv-cb", v*2+b2i(ok))
			s.Spawn("cb-child", worker(2, 3))
		})
		if i%8 == 0 {
			s.Spawn("late", worker(10, 1))
		}
	}
	// Shutdown: closing the queues lets every blocked process finish.
	s.After(400*us, func() {
		l.add(s.Now(), 0, "close", 0)
		bounded.Close()
		unbounded.Close()
		rendezvous.Close()
		idle.Close()
	})
	end = s.Run()
	l.add(end, -1, "end", int64(s.Live()))
	return l.digest(), l.n, end, s.Live()
}

// waitingGetters counts the processes linked as getters, live or not.
func (q *Queue) waitingGetters() int { return q.getters.n }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// The digest, step count and final time below were recorded at commit
// ab4731c, on the container/heap + closure + kernel-bounce kernel, before
// the hand-off rewrite (ISSUE 22): the rewrite must pop every event, the
// no-op stale timeouts included, in the same (at, seq) order.
const (
	kernelOrderDigest = "52d6f1d933e1891cd85ae3d142f1d8adb6fce87ef74fcd7ac3cf6abba5c4ea64"
	kernelOrderSteps  = 4358
	kernelOrderEnd    = 1090 * time.Microsecond
)

func TestKernelOrderIdentity(t *testing.T) {
	digest, steps, end, live := kernelOrderScript(20221)
	if live != 0 {
		t.Errorf("%d processes still alive after Run", live)
	}
	if digest != kernelOrderDigest || steps != kernelOrderSteps || end != kernelOrderEnd {
		t.Fatalf("kernel order moved:\n got  %s (%d steps, end %v)\n want %s (%d steps, end %v)",
			digest, steps, end, kernelOrderDigest, kernelOrderSteps, kernelOrderEnd)
	}
	if again, _, _, _ := kernelOrderScript(20221); again != digest {
		t.Fatalf("script is not repeatable: %s then %s", digest, again)
	}
	if other, _, _, _ := kernelOrderScript(20222); other == digest {
		t.Fatal("digest does not depend on the seed")
	}
}

// A process woken by another process (no kernel bounce in between) that then
// panics must surface from RunUntil exactly as a kernel-resumed one does.
func TestProcPanicPropagatesFromHandOff(t *testing.T) {
	s := New(1)
	q := s.NewQueue(0)
	s.Spawn("victim", func(p *Proc) {
		q.Get(p)
		panic("boom")
	})
	s.Spawn("waker", func(p *Proc) {
		p.Sleep(3 * time.Microsecond)
		q.Put(p, 1)
		p.Sleep(time.Millisecond) // blocks: the next event is the victim's wake
		t.Error("waker ran past the panic")
	})
	defer func() {
		r := recover()
		want := "sim: process panic at t=3µs in victim: boom"
		if r != want {
			t.Fatalf("recovered %v, want %q", r, want)
		}
		if s.Now() != 3*time.Microsecond {
			t.Fatalf("now = %v after panic, want 3µs", s.Now())
		}
	}()
	s.RunUntil(time.Second)
	t.Fatal("RunUntil returned")
}

// A horizon reached while processes are handing control to each other
// returns to the driver at exactly the horizon, and the next slice continues
// the chain in order.
func TestHorizonMidChain(t *testing.T) {
	s := New(1)
	var order []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("p%d", i)
		s.Spawn(name, func(p *Proc) {
			for k := 0; k < 4; k++ {
				p.Sleep(2 * time.Microsecond)
				order = append(order, fmt.Sprintf("%s@%v", name, p.Now()))
			}
		})
	}
	if now := s.RunUntil(3 * time.Microsecond); now != 3*time.Microsecond || s.Now() != now {
		t.Fatalf("RunUntil(3µs) = %v, Now() = %v", now, s.Now())
	}
	if got, want := strings.Join(order, " "), "p0@2µs p1@2µs p2@2µs"; got != want {
		t.Fatalf("first slice ran %q, want %q", got, want)
	}
	if now := s.RunUntil(4 * time.Microsecond); now != 4*time.Microsecond {
		t.Fatalf("RunUntil(4µs) = %v", now)
	}
	if got, want := strings.Join(order[3:], " "), "p0@4µs p1@4µs p2@4µs"; got != want {
		t.Fatalf("second slice ran %q, want %q", got, want)
	}
	if end := s.Run(); end != 8*time.Microsecond {
		t.Fatalf("Run() = %v, want 8µs", end)
	}
	if len(order) != 12 || s.Live() != 0 {
		t.Fatalf("%d steps, %d live", len(order), s.Live())
	}
}

// RunBefore leaves events at the window edge and does not move the clock to
// it, whoever — driver or process — reaches the edge.
func TestRunBeforeLeavesWindowEdge(t *testing.T) {
	s := New(1)
	var fired []string
	s.Spawn("p", func(p *Proc) {
		p.Sleep(2 * time.Microsecond)
		fired = append(fired, "p2")
		p.Sleep(3 * time.Microsecond) // wakes at 5µs: the edge
		fired = append(fired, "p5")
	})
	s.At(5*time.Microsecond, func() { fired = append(fired, "cb5") })
	if now := s.RunBefore(5 * time.Microsecond); now != 2*time.Microsecond {
		t.Fatalf("RunBefore(5µs) = %v, want 2µs (the last event run)", now)
	}
	if got := strings.Join(fired, " "); got != "p2" {
		t.Fatalf("ran %q before the edge, want p2", got)
	}
	if at, ok := s.NextEventTime(); !ok || at != 5*time.Microsecond {
		t.Fatalf("next event at %v (%v), want 5µs", at, ok)
	}
	s.RunBefore(5*time.Microsecond + 1)
	if got := strings.Join(fired, " "); got != "p2 cb5 p5" {
		t.Fatalf("ran %q, want the callback (scheduled first) before the wake", got)
	}
}

// Every process coroutine is gone once a Sim has drained, however the
// process ended its life: by itself, handed to by a peer, or last in a chain.
func TestNoGoroutineOutlivesDrainedSim(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	q := s.NewQueue(1)
	for i := 0; i < 50; i++ {
		s.Spawn("producer", func(p *Proc) {
			for k := 0; k < 20; k++ {
				q.Put(p, k)
				p.Sleep(time.Microsecond)
			}
		})
		s.Spawn("consumer", func(p *Proc) {
			for k := 0; k < 20; k++ {
				q.GetTimeout(p, time.Millisecond)
			}
		})
	}
	for at := 10 * time.Microsecond; s.Live() > 0; at += 10 * time.Microsecond {
		s.RunUntil(at)
	}
	s.Run()
	if s.Live() != 0 {
		t.Fatalf("Live() = %d after Run", s.Live())
	}
	checkGoroutines(t, before, "a drained Sim")
}

// checkGoroutines fails t if more than before goroutines are still running
// once exiting ones have had two seconds to be reaped.
func checkGoroutines(t *testing.T, before int, after string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched() // exiting goroutines need a moment to be reaped
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before, %d after %s", before, n, after)
	}
}

// A GetTimeout that times out must not stay linked in the queue: the HBase
// master polls an idle stop queue once per report for the life of a run.
func TestGetTimeoutLeavesNoGetter(t *testing.T) {
	s := New(1)
	q := s.NewQueue(0)
	const polls = 10000
	var m0, m1 runtime.MemStats
	s.Spawn("poller", func(p *Proc) {
		for i := 0; i < polls; i++ {
			if i == polls/10 {
				runtime.GC()
				runtime.ReadMemStats(&m0)
			}
			if _, _, timedOut := q.GetTimeout(p, time.Millisecond); !timedOut {
				t.Error("idle queue delivered")
				return
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
	})
	s.Run()
	if n := q.waitingGetters(); n != 0 {
		t.Errorf("%d getters still queued after %d timed-out gets", n, polls)
	}
	if grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grew > 64<<10 {
		t.Errorf("heap grew %d B over %d timed-out gets on an idle queue", grew, polls-polls/10)
	}
}

// A timeout record must stay free of pointers, or the collector scans the
// timeout heap again: it holds one record per delivered call for the length
// of a call timeout, hundreds of thousands in a Fig 5 run.
func TestTimeoutRecordHasNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Func, reflect.Map,
			reflect.Chan, reflect.Slice, reflect.String, reflect.Interface:
			t.Errorf("%s is a %s", path, typ.Kind())
		}
	}
	walk("timeout", reflect.TypeOf(timeout{}))
	if size := unsafe.Sizeof(timeout{}); size != 24 {
		t.Errorf("timeout record is %d bytes, want 24", size)
	}
}

// A stale timeout names a slot that may since have passed to another
// process: it must not expire that process's own timed wait.
func TestStaleTimeoutSparesSlotReuser(t *testing.T) {
	const us = time.Microsecond
	s := New(1)
	qa, qb := s.NewQueue(0), s.NewQueue(0)
	a := s.Spawn("a", func(p *Proc) {
		if _, _, timedOut := qa.GetTimeout(p, 100*us); timedOut {
			t.Error("a timed out, want the delivery at 10µs")
		}
	})
	s.At(10*us, func() { qa.TryPut(1) })
	var b *Proc
	bTimedOut := time.Duration(-1)
	s.At(20*us, func() {
		b = s.Spawn("b", func(p *Proc) {
			if _, _, timedOut := qb.GetTimeout(p, 200*us); timedOut {
				bTimedOut = p.Now()
			}
		})
	})
	end := s.Run()
	if b.slot != a.slot {
		t.Fatalf("b got slot %d, a had %d: the test needs b to reuse a's slot", b.slot, a.slot)
	}
	if bTimedOut != 220*us {
		t.Fatalf("b timed out at %v, want 220µs (a's stale timeout is due at 100µs)", bTimedOut)
	}
	if end != 220*us || s.Live() != 0 {
		t.Fatalf("Run() = %v with %d live, want 220µs and none", end, s.Live())
	}
}
