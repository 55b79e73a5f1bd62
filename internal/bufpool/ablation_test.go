package bufpool

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// historyPool is what a replay drives: the shadow pool, or the rule it
// replaced.
type historyPool interface {
	Acquire(key string) *Buffer
	Grow(b *Buffer, n int) *Buffer
	Release(key string, b *Buffer, actualSize int)
}

// halvingPool is the history rule ShrinkAfter replaced, modelled over the
// same pool: one call at or below half the record halves it, floored at
// MinClassSize.
type halvingPool struct{ *ShadowPool }

func (h halvingPool) Release(key string, b *Buffer, actualSize int) {
	h.mu.Lock()
	rec, ok := h.history[key]
	switch {
	case !ok || actualSize > rec.size:
		rec.size = actualSize
	case actualSize <= rec.size/2 && rec.size/2 >= MinClassSize:
		rec.size /= 2
	}
	h.history[key] = rec
	h.mu.Unlock()
	h.native.Put(b)
}

// replayResult is one rule's outcome on one trace.
type replayResult struct {
	firstFit, regets float64 // share of calls, re-gets per call
	peak             int64   // registered bytes at the high-water mark
}

// replay sends sizes through p as one call kind. depth buffers are out at
// once: a call's buffer is acquired before the depth-1 calls ahead of it
// have released theirs, as concurrent callers do on a server.
func replay(p historyPool, native *NativePool, sizes []int, depth int) replayResult {
	type out struct {
		b *Buffer
		n int
	}
	var held []out
	fits, regets := 0, 0
	for _, n := range sizes {
		b := p.Acquire("k")
		if b.Cap() >= n {
			fits++
		}
		for b.Cap() < n {
			b = p.Grow(b, 0)
			regets++
		}
		held = append(held, out{b, n})
		if len(held) == depth {
			p.Release("k", held[0].b, held[0].n)
			held = held[1:]
		}
	}
	for _, o := range held {
		p.Release("k", o.b, o.n)
	}
	calls := float64(len(sizes))
	return replayResult{float64(fits) / calls, float64(regets) / calls, native.StatsSnapshot().PeakRegistered}
}

// heartbeatTrace is the JobTracker heartbeat sizes of Figure 3's profiling
// Sort, in send order (the eight TaskTrackers' streams merged, as Figure 3
// counts them), recorded from `profilerpc -experiment=fig3 -trace`.
func heartbeatTrace(t *testing.T) []int {
	f, err := os.Open("testdata/jt_heartbeat_sizes.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var sizes []int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		n, err := strconv.Atoi(sc.Text())
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, n)
	}
	return sizes
}

// getLadderTrace is the repo benchmark's real_large_get replies as the
// server serializes them: shuffled cycles of 64 bodies log-uniform from
// 64 KB to 1 MB, plus the 9-byte reply header.
func getLadderTrace(calls int) []int {
	rng := rand.New(rand.NewSource(1))
	ladder := make([]int, 64)
	for i := range ladder {
		ladder[i] = 9 + int(math.Round(64<<10*math.Pow(16, float64(i)/63)))
	}
	var sizes []int
	for len(sizes) < calls {
		rng.Shuffle(len(ladder), func(a, b int) { ladder[a], ladder[b] = ladder[b], ladder[a] })
		sizes = append(sizes, ladder...)
	}
	return sizes[:calls]
}

// TestAblationShrinkRule replays Figure 3's JT-heartbeat trace (one caller)
// and the get ladder (two callers) through the history rule and through the
// halve-after-one rule it replaced. On the heartbeat trace, halving after one
// smaller call costs a re-get each time a TaskTracker's heartbeat grows back;
// on the ladder, it spreads the kind over every class from 64 KB to 2 MB, and
// each class registers its own buffers. The hysteresis must re-get less, fit
// first more often and register no more.
func TestAblationShrinkRule(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sizes []int
		depth int
	}{
		{"jt_heartbeat", heartbeatTrace(t), 1},
		{"get_ladder", getLadderTrace(2000), 2},
	} {
		var res [2]replayResult
		for i, rule := range []string{"halve-after-one", "hysteresis"} {
			native := NewNativePool(0)
			shadow := NewShadowPool(native, PolicyHistory)
			var p historyPool = shadow
			if i == 0 {
				p = halvingPool{shadow}
			}
			res[i] = replay(p, native, tc.sizes, tc.depth)
			t.Logf("%-12s %-15s %d calls: first fit %.3f, re-gets per call %.3f, peak registered %.2f MB",
				tc.name, rule, len(tc.sizes), res[i].firstFit, res[i].regets, float64(res[i].peak)/1e6)
		}
		old, now := res[0], res[1]
		if now.regets >= old.regets || now.firstFit <= old.firstFit || now.peak > old.peak {
			t.Errorf("%s: the hysteresis re-gets %.3f per call (first fit %.3f, peak %d B), the rule it replaced %.3f (%.3f, %d B)",
				tc.name, now.regets, now.firstFit, now.peak, old.regets, old.firstFit, old.peak)
		}
	}
}
