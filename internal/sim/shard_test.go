package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// shardTestNet is a tiny message-passing scenario written to the sharded
// discipline: node state stays in the owning shard, cross-node messages go
// through Post with per-node sequence keys, and randomness comes from
// per-node SubRand streams. Each node appends every message it receives to
// its own log; per-node logs must be identical for any shard count and any
// GOMAXPROCS.
type shardTestNet struct {
	ss     *ShardedSim
	assign []int // node -> shard
	seq    []uint64
	logs   [][]string
	delays []*intSeq
	look   time.Duration
}

// intSeq is a deterministic per-node delay stream built on SubSeed.
type intSeq struct {
	seed int64
	node int64
	i    int64
}

func (s *intSeq) next() time.Duration {
	// One fresh draw per call, position-indexed, so the stream does not
	// depend on PRNG object identity across runs.
	v := SubSeed(SubSeed(s.seed, s.node), s.i)
	s.i++
	return time.Duration(uint64(v) % 1000)
}

func newShardTestNet(seed int64, nodes, shards int, look time.Duration) *shardTestNet {
	n := &shardTestNet{
		ss:     NewSharded(seed, shards, look),
		assign: make([]int, nodes),
		seq:    make([]uint64, nodes),
		logs:   make([][]string, nodes),
		delays: make([]*intSeq, nodes),
		look:   look,
	}
	per := (nodes + shards - 1) / shards
	for i := 0; i < nodes; i++ {
		n.assign[i] = i / per
		n.delays[i] = &intSeq{seed: seed, node: int64(i)}
	}
	return n
}

// send posts a message from src to dst, arriving lookahead plus a per-node
// pseudo-random jitter later.
func (n *shardTestNet) send(src, dst int, hop int, payload string) {
	now := n.ss.Shard(n.assign[src]).Sim().Now()
	at := now + n.look + n.delays[src].next()
	n.seq[src]++
	seq := n.seq[src]
	n.ss.Post(n.assign[dst], at, src, seq, func() {
		n.logs[dst] = append(n.logs[dst],
			fmt.Sprintf("t=%d from=%d hop=%d %s", n.ss.Shard(n.assign[dst]).Sim().Now(), src, hop, payload))
		if hop > 0 {
			n.send(dst, (dst+3)%len(n.logs), hop-1, payload)
		}
	})
}

func runShardScenario(t *testing.T, seed int64, nodes, shards int) [][]string {
	t.Helper()
	n := newShardTestNet(seed, nodes, shards, 5*time.Microsecond)
	defer n.ss.Close()
	for i := 0; i < nodes; i++ {
		node := i
		n.ss.Shard(n.assign[i]).Sim().At(0, func() {
			n.send(node, (node+1)%nodes, 6, fmt.Sprintf("m%d", node))
		})
	}
	n.ss.Run()
	return n.logs
}

func TestShardedDeterministicAcrossShardCountsAndProcs(t *testing.T) {
	const nodes = 12
	ref := runShardScenario(t, 42, nodes, 1)
	for _, shards := range []int{2, 4, 12} {
		for _, procs := range []int{1, 8} {
			prev := runtime.GOMAXPROCS(procs)
			got := runShardScenario(t, 42, nodes, shards)
			runtime.GOMAXPROCS(prev)
			for i := range ref {
				if len(got[i]) != len(ref[i]) {
					t.Fatalf("shards=%d procs=%d node %d: %d msgs, want %d", shards, procs, i, len(got[i]), len(ref[i]))
				}
				for j := range ref[i] {
					if got[i][j] != ref[i][j] {
						t.Fatalf("shards=%d procs=%d node %d msg %d:\n got %s\nwant %s",
							shards, procs, i, j, got[i][j], ref[i][j])
					}
				}
			}
		}
	}
}

func TestShardedRunUntilSlices(t *testing.T) {
	// Driving the kernel in horizon slices must process exactly the same
	// events as one unbounded run.
	run := func(slice time.Duration) [][]string {
		n := newShardTestNet(7, 8, 4, 5*time.Microsecond)
		defer n.ss.Close()
		for i := 0; i < 8; i++ {
			node := i
			n.ss.Shard(n.assign[i]).Sim().At(0, func() {
				n.send(node, (node+1)%8, 5, "s")
			})
		}
		if slice <= 0 {
			n.ss.Run()
		} else {
			for h := slice; ; h += slice {
				n.ss.RunUntil(h)
				idle := true
				for i := 0; i < n.ss.Shards(); i++ {
					if _, ok := n.ss.Shard(i).Sim().NextEventTime(); ok {
						idle = false
					}
				}
				if idle {
					break
				}
			}
		}
		return n.logs
	}
	want := run(0)
	got := run(3 * time.Microsecond)
	for i := range want {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("node %d sliced run diverged:\n got %v\nwant %v", i, got[i], want[i])
		}
	}
}

func TestShardedLookaheadViolationPanics(t *testing.T) {
	ss := NewSharded(1, 2, time.Millisecond)
	defer ss.Close()
	ss.Shard(0).Sim().At(10*time.Millisecond, func() {
		// Posting into the past of the destination shard must be caught.
		ss.Post(1, 0, 0, 1, func() {})
	})
	ss.Shard(1).Sim().At(20*time.Millisecond, func() {})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected lookahead-violation panic")
		}
	}()
	ss.Run()
}

// A process panicking in a window, on the first shard or a later one,
// surfaces from RunUntil with its message and leaves no goroutine behind
// after Close.
func TestShardedProcPanicReachesRunUntil(t *testing.T) {
	for _, shard := range []int{0, 1} {
		t.Run(fmt.Sprintf("shard%d", shard), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ss := NewSharded(1, 2, time.Microsecond)
			ss.Shard(shard).Sim().Spawn("victim", func(p *Proc) {
				p.Sleep(3 * time.Microsecond)
				panic("boom")
			})
			ss.Shard(1-shard).Sim().Spawn("bystander", func(p *Proc) {
				p.Sleep(2 * time.Microsecond)
			})
			func() {
				defer func() {
					want := "sim: process panic at t=3µs in victim: boom"
					if r := recover(); r != want {
						t.Errorf("recovered %v, want %q", r, want)
					}
				}()
				ss.RunUntil(time.Second)
				t.Error("RunUntil returned")
			}()
			ss.Close()
			checkGoroutines(t, before, "Close")
		})
	}
}

// TestShardedRunStartsNoGoroutine: every shard's window runs on the caller's
// goroutine. Four shards of callbacks post to each other; the goroutine count
// inside a shard-3 callback and after RunUntil equals the count before
// NewSharded.
func TestShardedRunStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	const shards = 4
	ss := NewSharded(1, shards, time.Microsecond)
	defer ss.Close()
	var seq [shards]uint64
	var hops [shards]int
	inside := -1
	var hop func(at int) func()
	hop = func(at int) func() {
		return func() {
			hops[at]++
			if at == 3 && inside < 0 {
				inside = runtime.NumGoroutine()
			}
			if hops[at] < 50 {
				to := (at + 1) % shards
				seq[at]++
				ss.Post(to, ss.Shard(at).Sim().Now()+time.Microsecond, at, seq[at], hop(to))
			}
		}
	}
	for i := 0; i < shards; i++ {
		ss.Shard(i).Sim().At(0, hop(i))
	}
	ss.RunUntil(time.Second)
	after := runtime.NumGoroutine()
	for i, n := range hops {
		if n != 50 {
			t.Fatalf("shard %d ran %d hops, want 50", i, n)
		}
	}
	if inside != before || after != before {
		t.Fatalf("goroutines: %d before NewSharded, %d inside a shard-3 callback, %d after RunUntil", before, inside, after)
	}
}

func TestRunUntilPeeksBeyondHorizon(t *testing.T) {
	s := New(1)
	fired := 0
	s.At(10*time.Millisecond, func() { fired++ })
	// Repeated polls below the event time must not disturb the heap (the
	// old pop/re-push churn) and must still fire the event once reachable.
	for i := 1; i <= 5; i++ {
		if got := s.RunUntil(time.Duration(i) * time.Millisecond); got != time.Duration(i)*time.Millisecond {
			t.Fatalf("poll %d: now=%v", i, got)
		}
		if fired != 0 {
			t.Fatalf("event fired early")
		}
	}
	s.RunUntil(time.Second)
	if fired != 1 {
		t.Fatalf("fired=%d, want 1", fired)
	}
}

func TestSubSeedStability(t *testing.T) {
	if SubSeed(1, 2) != SubSeed(1, 2) {
		t.Fatal("SubSeed not deterministic")
	}
	seen := map[int64]bool{}
	for i := int64(0); i < 1000; i++ {
		s := SubSeed(99, i)
		if seen[s] {
			t.Fatalf("SubSeed collision at stream %d", i)
		}
		seen[s] = true
	}
}
