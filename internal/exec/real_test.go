package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRealQueueFIFO(t *testing.T) {
	e := NewRealEnv(1)
	q := e.NewQueue(0)
	for i := 0; i < 100; i++ {
		q.Put(e, i)
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Get(e)
		if !ok || v.(int) != i {
			t.Fatalf("get %d = %v,%v", i, v, ok)
		}
	}
}

func TestRealQueueConcurrent(t *testing.T) {
	e := NewRealEnv(1)
	q := e.NewQueue(4)
	const producers, perProducer = 8, 200
	var sum int64
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 1; j <= perProducer; j++ {
				q.Put(e, j)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < producers*perProducer; i++ {
			v, ok := q.Get(e)
			if !ok {
				t.Error("unexpected close")
				return
			}
			atomic.AddInt64(&sum, int64(v.(int)))
		}
		close(done)
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer timed out")
	}
	want := int64(producers * perProducer * (perProducer + 1) / 2)
	if sum != want {
		t.Fatalf("sum=%d want=%d", sum, want)
	}
}

func TestRealQueueGetTimeout(t *testing.T) {
	e := NewRealEnv(1)
	q := e.NewQueue(0)
	start := time.Now()
	_, _, timedOut := q.GetTimeout(e, 30*time.Millisecond)
	if !timedOut {
		t.Fatal("expected timeout")
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("timed out too early")
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		q.Put(e, "v")
	}()
	v, ok, timedOut := q.GetTimeout(e, time.Second)
	if timedOut || !ok || v.(string) != "v" {
		t.Fatalf("v=%v ok=%v timedOut=%v", v, ok, timedOut)
	}
}

func TestRealQueueCloseWakesGetters(t *testing.T) {
	e := NewRealEnv(1)
	q := e.NewQueue(0)
	done := make(chan bool, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, ok := q.Get(e)
			done <- ok
		}()
	}
	time.Sleep(10 * time.Millisecond)
	q.Close()
	for i := 0; i < 3; i++ {
		select {
		case ok := <-done:
			if ok {
				t.Fatal("expected ok=false on closed queue")
			}
		case <-time.After(time.Second):
			t.Fatal("getter not woken by Close")
		}
	}
}

func TestRealQueueBoundedBlocks(t *testing.T) {
	e := NewRealEnv(1)
	q := e.NewQueue(1)
	q.Put(e, 1)
	if q.TryPut(2) {
		t.Fatal("TryPut should fail on full queue")
	}
	unblocked := make(chan struct{})
	go func() {
		q.Put(e, 2)
		close(unblocked)
	}()
	select {
	case <-unblocked:
		t.Fatal("Put should block on full queue")
	case <-time.After(20 * time.Millisecond):
	}
	q.Get(e)
	select {
	case <-unblocked:
	case <-time.After(time.Second):
		t.Fatal("Put not unblocked after Get")
	}
}

func TestRealEnvSpawnAndNow(t *testing.T) {
	e := NewRealEnv(1)
	q := e.NewQueue(0)
	e.Spawn("child", func(ce Env) { q.Put(ce, ce.Now()) })
	v, ok := q.Get(e)
	if !ok {
		t.Fatal("no value")
	}
	if v.(time.Duration) < 0 {
		t.Fatal("negative Now")
	}
}

func TestRealRandIndependent(t *testing.T) {
	e := NewRealEnv(42)
	a, b := e.Rand(), e.Rand()
	if a.Int63() == b.Int63() {
		// Different seeds should (overwhelmingly) give different streams.
		t.Fatal("rand streams identical")
	}
}

// TestRealQueueRingWrapsAtCapacity keeps a bounded queue full while its head
// travels round the ring many times: order must survive every wrap, and the
// ring must stop growing once it holds the capacity.
func TestRealQueueRingWrapsAtCapacity(t *testing.T) {
	e := NewRealEnv(1)
	const capacity = 5 // not a power of two: the ring is larger than the bound
	q := e.NewQueue(capacity)
	next := 0
	for ; next < capacity; next++ {
		if !q.TryPut(next) {
			t.Fatalf("TryPut %d refused below capacity", next)
		}
	}
	if q.TryPut(-1) {
		t.Fatal("TryPut accepted past capacity")
	}
	ringLen := len(q.(*realQueue).ring)
	for want := 0; want < 1000; want++ {
		v, ok := q.TryGet()
		if !ok || v.(int) != want {
			t.Fatalf("get = %v,%v, want %d", v, ok, want)
		}
		if !q.TryPut(next) {
			t.Fatalf("TryPut %d refused with a free slot", next)
		}
		next++
	}
	if got := len(q.(*realQueue).ring); got != ringLen {
		t.Errorf("ring grew from %d to %d slots while holding %d items", ringLen, got, capacity)
	}
	if allocs := testing.AllocsPerRun(100, func() { q.TryGet(); q.TryPut(0) }); allocs != 0 {
		t.Errorf("a steady-state Get+Put allocates %.0f times, want 0", allocs)
	}
}

// TestRealQueueUnboundedGrows grows an unbounded queue through several
// doublings, each with the head somewhere other than slot 0.
func TestRealQueueUnboundedGrows(t *testing.T) {
	e := NewRealEnv(1)
	q := e.NewQueue(0)
	put, got := 0, 0
	for round := 0; round < 12; round++ {
		for i := 0; i < 3<<round; i++ {
			q.Put(e, put)
			put++
		}
		for i := 0; i < 1<<round; i++ { // leave the head mid-ring
			v, ok := q.Get(e)
			if !ok || v.(int) != got {
				t.Fatalf("get = %v,%v, want %d", v, ok, got)
			}
			got++
		}
	}
	for ; got < put; got++ {
		v, ok := q.TryGet()
		if !ok || v.(int) != got {
			t.Fatalf("drain get = %v,%v, want %d", v, ok, got)
		}
	}
	if _, ok := q.TryGet(); ok {
		t.Fatal("queue not empty after draining every item")
	}
}

// TestRealQueueGetTimeoutRearms: the queue's one timer serves waits with
// different deadlines. A short wait behind a long one must not sleep until
// the long one's deadline, and a long wait behind an expired short one must
// still expire.
func TestRealQueueGetTimeoutRearms(t *testing.T) {
	e := NewRealEnv(1)
	q := e.NewQueue(0)
	long := make(chan bool, 1)
	go func() {
		_, _, timedOut := q.GetTimeout(e, 300*time.Millisecond)
		long <- timedOut
	}()
	time.Sleep(10 * time.Millisecond) // the long wait arms the timer first
	start := time.Now()
	if _, _, timedOut := q.GetTimeout(e, 20*time.Millisecond); !timedOut {
		t.Fatal("short wait did not time out")
	}
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Fatalf("short wait took %v: it slept on the long wait's deadline", d)
	}
	select {
	case timedOut := <-long:
		if !timedOut {
			t.Fatal("long wait returned without a timeout or an item")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("long wait never expired after the short one re-armed the timer")
	}
	// The timer has fired; an item must still beat a fresh deadline.
	go func() {
		time.Sleep(5 * time.Millisecond)
		q.Put(e, "late")
	}()
	if v, ok, timedOut := q.GetTimeout(e, time.Second); timedOut || !ok || v.(string) != "late" {
		t.Fatalf("v=%v ok=%v timedOut=%v", v, ok, timedOut)
	}
}

// TestRealQueueTimedWaitLeavesNoTimer: a timed wait that got its item stops
// the queue's timer on the way out, so an abandoned queue is collectable long
// before the timeout it was last waited on with. Each queue is left holding a
// token only it refers to; the token's finalizer tells when the queue went.
func TestRealQueueTimedWaitLeavesNoTimer(t *testing.T) {
	e := NewRealEnv(1)
	const queues = 64
	var collected atomic.Int64
	for i := 0; i < queues; i++ {
		q := e.NewQueue(1)
		go func() {
			time.Sleep(time.Millisecond) // let the getter block and arm the timer
			q.Put(e, i)
		}()
		if v, ok, timedOut := q.GetTimeout(e, time.Hour); timedOut || !ok || v.(int) != i {
			t.Fatalf("queue %d: v=%v ok=%v timedOut=%v", i, v, ok, timedOut)
		}
		token := new([16]byte)
		runtime.SetFinalizer(token, func(*[16]byte) { collected.Add(1) })
		q.Put(e, token)
	}
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < queues; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d abandoned queues collected: a live timer still holds the rest", collected.Load(), queues)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRealQueueCloseWakesAll: Close wakes plain getters, timed getters and
// putters blocked on a full queue, and items queued before it still drain.
func TestRealQueueCloseWakesAll(t *testing.T) {
	e := NewRealEnv(1)
	empty, full := e.NewQueue(0), e.NewQueue(1)
	full.Put(e, "kept")
	done := make(chan string, 3)
	go func() {
		if _, ok := empty.Get(e); !ok {
			done <- "get"
		}
	}()
	go func() {
		if _, ok, timedOut := empty.GetTimeout(e, time.Minute); !ok && !timedOut {
			done <- "timed get"
		}
	}()
	go func() {
		if !full.Put(e, "dropped") {
			done <- "put"
		}
	}()
	time.Sleep(10 * time.Millisecond)
	empty.Close()
	full.Close()
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("a blocked caller was not woken by Close")
		}
	}
	if v, ok := full.Get(e); !ok || v.(string) != "kept" {
		t.Fatalf("item queued before Close = %v,%v", v, ok)
	}
	if _, ok := full.Get(e); ok {
		t.Fatal("closed and drained queue still yields items")
	}
	if full.TryPut("x") {
		t.Fatal("TryPut accepted on a closed queue")
	}
}
