package bufpool

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestClassSizes(t *testing.T) {
	p := NewNativePool(4096)
	cases := map[int]int{1: 128, 128: 128, 129: 256, 1000: 1024, 4096: 4096}
	for size, want := range cases {
		if got := p.ClassSize(size); got != want {
			t.Errorf("ClassSize(%d) = %d, want %d", size, got, want)
		}
	}
	// Oversize requests keep their exact size.
	if got := p.ClassSize(5000); got != 5000 {
		t.Errorf("ClassSize(5000) = %d", got)
	}
}

func TestGetPutReuse(t *testing.T) {
	p := NewNativePool(0)
	b1 := p.Get(1000)
	if b1.Cap() != 1024 || !b1.Registered() {
		t.Fatalf("cap=%d registered=%v", b1.Cap(), b1.Registered())
	}
	p.Put(b1)
	b2 := p.Get(600)
	if b2 != b1 {
		t.Fatal("expected the same buffer back from the free list")
	}
	s := p.StatsSnapshot()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", s.Hits, s.Misses)
	}
}

// TestPoisonFillsPutBuffer: in a `poison` build a buffer handed back reads
// PoisonByte end to end, pooled or one-off. Skipped in normal builds.
func TestPoisonFillsPutBuffer(t *testing.T) {
	if !Poison {
		t.Skip("not a poison build")
	}
	p := NewNativePool(1024)
	for _, size := range []int{1000, 5000} {
		b := p.Get(size)
		data := b.Data
		p.Put(b)
		for i, c := range data {
			if c != PoisonByte {
				t.Fatalf("byte %d of a returned %d-byte buffer reads %#x", i, len(data), c)
			}
		}
	}
}

func TestOversizeOneOff(t *testing.T) {
	p := NewNativePool(1024)
	b := p.Get(5000)
	if b.Registered() {
		t.Fatal("oversize buffer should not be pre-registered")
	}
	p.Put(b)
	if got := p.StatsSnapshot().Oversize; got != 1 {
		t.Fatalf("oversize=%d", got)
	}
	// One-off buffers are not pooled.
	b2 := p.Get(5000)
	if b2 == b {
		t.Fatal("oversize buffer must not be reused")
	}
}

func TestPreregisterFootprint(t *testing.T) {
	p := NewNativePool(1024) // classes 128,256,512,1024
	p.Preregister(2)
	s := p.StatsSnapshot()
	want := int64(2 * (128 + 256 + 512 + 1024))
	if s.BytesRegistered != want {
		t.Fatalf("registered=%d want=%d", s.BytesRegistered, want)
	}
	// Warm gets must all hit.
	for i := 0; i < 2; i++ {
		p.Get(128)
	}
	if got := p.StatsSnapshot().Misses; got != 0 {
		t.Fatalf("misses=%d after preregister", got)
	}
}

func TestWrongPoolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p1, p2 := NewNativePool(0), NewNativePool(0)
	p2.Put(p1.Get(100))
}

func TestShadowHistoryLearning(t *testing.T) {
	s := NewShadowPool(NewNativePool(0), PolicyHistory)
	key := "mapred.TaskUmbilicalProtocol+statusUpdate"

	// First call: unseen key starts at the min class and must re-get.
	b := s.Acquire(key)
	if b.Cap() != MinClassSize {
		t.Fatalf("first buffer cap=%d", b.Cap())
	}
	for b.Cap() < 700 {
		b = s.Grow(b, b.Cap())
	}
	s.Release(key, b, 700)
	if got := s.HistorySize(key); got != 700 {
		t.Fatalf("history=%d want 700", got)
	}

	// Second call: history hands out a fitting buffer immediately.
	b = s.Acquire(key)
	if b.Cap() < 700 {
		t.Fatalf("second buffer cap=%d, want >=700", b.Cap())
	}
	s.Release(key, b, 690)
	st := s.StatsSnapshot()
	if st.Regets == 0 {
		t.Fatal("expected re-gets on first call")
	}
	if st.NewKeys != 1 {
		t.Fatalf("newKeys=%d", st.NewKeys)
	}
}

func TestShadowGrowPreservesData(t *testing.T) {
	s := NewShadowPool(NewNativePool(0), PolicyHistory)
	b := s.Acquire("k")
	for i := range b.Data {
		b.Data[i] = byte(i)
	}
	n := b.Cap()
	nb := s.Grow(b, n)
	if nb.Cap() < 2*n {
		t.Fatalf("grow cap=%d want >=%d", nb.Cap(), 2*n)
	}
	for i := 0; i < n; i++ {
		if nb.Data[i] != byte(i) {
			t.Fatalf("data not preserved at %d", i)
		}
	}
}

// TestShadowShrinkGradual pins ShrinkAfter's rule on one call kind: a burst
// of small calls leaves the record alone for ShrinkAfter-1 calls, a call over
// half of it restarts the count, and the ShrinkAfter-th small call in a row
// lowers it to the largest of the run, then to MinClassSize, never below.
func TestShadowShrinkGradual(t *testing.T) {
	s := NewShadowPool(NewNativePool(0), PolicyHistory)
	key := "k"
	call := func(size, times int) {
		for i := 0; i < times; i++ {
			b := s.Acquire(key)
			for b.Cap() < size {
				b = s.Grow(b, 0)
			}
			s.Release(key, b, size)
		}
	}
	call(8192, 1)
	call(300, ShrinkAfter-1)
	if got := s.HistorySize(key); got != 8192 {
		t.Fatalf("after %d small calls the record is %d, want 8192 until the %dth", ShrinkAfter-1, got, ShrinkAfter)
	}
	call(5000, 1) // over half: in use at this size
	call(100, ShrinkAfter-2)
	call(300, 1)
	if got := s.HistorySize(key); got != 8192 {
		t.Fatalf("the record shrank to %d with a 5000-byte call %d calls back", got, ShrinkAfter-1)
	}
	call(100, 1)
	if got := s.HistorySize(key); got != 300 {
		t.Fatalf("after %d calls of at most 300 bytes the record is %d, want 300", ShrinkAfter, got)
	}
	call(100, ShrinkAfter)
	if got := s.HistorySize(key); got != MinClassSize {
		t.Fatalf("after %d calls of 100 bytes the record is %d, want MinClassSize", ShrinkAfter, got)
	}
	call(40, 2*ShrinkAfter)
	if got := s.HistorySize(key); got != MinClassSize {
		t.Fatalf("the record went below MinClassSize: %d", got)
	}
	if st := s.StatsSnapshot(); st.Shrinks != 2 || st.Grows != 0 {
		t.Fatalf("shrinks=%d grows=%d, want 2 and 0", st.Shrinks, st.Grows)
	}
}

func TestShadowJitterStable(t *testing.T) {
	// Sizes jittering within [rec/2, rec] must not shrink the record —
	// that is the size-locality win.
	s := NewShadowPool(NewNativePool(0), PolicyHistory)
	key := "jt+heartbeat"
	b := s.Acquire(key)
	for b.Cap() < 1024 {
		b = s.Grow(b, 0)
	}
	s.Release(key, b, 1000)
	for i := 0; i < 20; i++ {
		b = s.Acquire(key)
		if b.Cap() < 600 {
			t.Fatalf("iteration %d: cap=%d", i, b.Cap())
		}
		s.Release(key, b, 600+i*10)
	}
	st := s.StatsSnapshot()
	if st.Shrinks != 0 {
		t.Fatalf("shrinks=%d for stable jitter", st.Shrinks)
	}
	if st.Regets != 3 { // only the initial 128->256->512->1024 ramp
		t.Fatalf("regets=%d", st.Regets)
	}
}

func TestPolicyNoPoolAllocatesEveryTime(t *testing.T) {
	n := NewNativePool(0)
	s := NewShadowPool(n, PolicyNoPool)
	b1 := s.Acquire("k")
	s.Release("k", b1, 100)
	b2 := s.Acquire("k")
	if b1 == b2 {
		t.Fatal("no-pool policy must not reuse buffers")
	}
	if got := n.StatsSnapshot().Gets; got != 0 {
		t.Fatalf("native pool used under no-pool policy: gets=%d", got)
	}
}

func TestPolicyFixedLarge(t *testing.T) {
	s := NewShadowPool(NewNativePool(0), PolicyFixedLarge)
	b := s.Acquire("k")
	if b.Cap() < FixedLargeSize {
		t.Fatalf("cap=%d", b.Cap())
	}
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		PolicyHistory: "history", PolicyFixedSmall: "fixed-small",
		PolicyFixedLarge: "fixed-large", PolicyNoPool: "no-pool", Policy(99): "unknown",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}

// Property: after any sequence of acquire/grow/release with arbitrary sizes,
// every buffer handed out has capacity >= the recorded history, and the
// native pool never loses buffers (puts <= gets, free counts consistent).
func TestPropertyPoolConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		n := NewNativePool(1 << 16)
		s := NewShadowPool(n, PolicyHistory)
		for _, raw := range sizes {
			size := int(raw)%8000 + 1
			b := s.Acquire("k")
			for b.Cap() < size {
				b = s.Grow(b, 0)
			}
			s.Release("k", b, size)
		}
		st := n.StatsSnapshot()
		if st.Puts > st.Gets {
			return false
		}
		// All buffers returned: free count equals distinct allocations.
		free := 0
		for _, c := range n.FreeBuffers() {
			free += c
		}
		return int64(free) == st.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPoolAccess(t *testing.T) {
	p := NewNativePool(0)
	s := NewShadowPool(p, PolicyHistory)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := []string{"a", "b", "c"}[g%3]
			for i := 0; i < 500; i++ {
				b := s.Acquire(key)
				for b.Cap() < 2048 {
					b = s.Grow(b, 0)
				}
				s.Release(key, b, 2000)
			}
		}(g)
	}
	wg.Wait()
	st := p.StatsSnapshot()
	if st.Gets != st.Puts {
		t.Fatalf("gets=%d puts=%d", st.Gets, st.Puts)
	}
}

func BenchmarkShadowAcquireReleaseSteadyState(b *testing.B) {
	s := NewShadowPool(NewNativePool(0), PolicyHistory)
	buf := s.Acquire("k")
	for buf.Cap() < 1024 {
		buf = s.Grow(buf, 0)
	}
	s.Release("k", buf, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := s.Acquire("k")
		s.Release("k", buf, 1000)
	}
}

func BenchmarkNoPoolAcquireRelease(b *testing.B) {
	s := NewShadowPool(NewNativePool(0), PolicyNoPool)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := s.Acquire("k")
		s.Release("k", buf, 1000)
	}
}
