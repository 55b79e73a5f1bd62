package ycsb

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/exec"
	"rpcoib/internal/hbase"
	"rpcoib/internal/perfmodel"
)

func TestKeyStableAndDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		k := Key(i)
		if seen[k] {
			t.Fatalf("duplicate key for %d", i)
		}
		seen[k] = true
	}
	if Key(7) != Key(7) {
		t.Fatal("keys not deterministic")
	}
}

func TestZipfianSkew(t *testing.T) {
	z := newZipf(10000, 0.99)
	rng := rand.New(rand.NewSource(1))
	counts := map[int]int{}
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := z.next(rng)
		if v < 0 || v >= 10000 {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	// Hot head: rank 0 should take several percent of all draws.
	if float64(counts[0])/draws < 0.02 {
		t.Fatalf("rank-0 frequency %.4f too low for zipfian(0.99)", float64(counts[0])/draws)
	}
	// And far more than a mid-rank key.
	if counts[0] < 20*counts[5000]+1 {
		t.Fatalf("head %d vs mid %d not skewed", counts[0], counts[5000])
	}
}

func TestUniformChooserCoversRange(t *testing.T) {
	k := newKeyChooser(Workload{RecordCount: 100}, rand.New(rand.NewSource(2)))
	seen := map[int]bool{}
	for i := 0; i < 5000; i++ {
		v := k.next()
		if v < 0 || v >= 100 {
			t.Fatalf("out of range %d", v)
		}
		seen[v] = true
	}
	if len(seen) < 95 {
		t.Fatalf("only %d distinct keys drawn", len(seen))
	}
}

func TestZetaMatchesDirectSum(t *testing.T) {
	var want float64
	for i := 1; i <= 50; i++ {
		want += 1 / math.Pow(float64(i), 0.99)
	}
	if got := zeta(50, 0.99); math.Abs(got-want) > 1e-9 {
		t.Fatalf("zeta=%v want %v", got, want)
	}
}

// A remembered zeta is the same float a fresh sum gives, and concurrent
// harnesses may ask for it at once.
func TestZetaMemoIsExact(t *testing.T) {
	var want float64
	for i := 1; i <= 5000; i++ {
		want += 1 / math.Pow(float64(i), 0.75)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				if got := zeta(5000, 0.75); got != want {
					t.Errorf("zeta=%v want exactly %v", got, want)
				}
			}
		}()
	}
	wg.Wait()
}

func TestRunAgainstHBase(t *testing.T) {
	cl := cluster.New(cluster.Config{Nodes: 4, Seed: 1, DiskReadBW: 110e6,
		DiskWriteBW: 95e6, DiskSeek: 6 * time.Millisecond})
	h := hbase.Deploy(cl, hbase.Config{
		Master: 0, RegionServers: []int{1, 2}, HBaseKind: perfmodel.IPoIB,
	}, nil)
	w := Workload{RecordCount: 500, OpCount: 300, RecordSize: 1024, Mix: WorkloadMix}
	var res Result
	cl.SpawnOn(3, "ycsb", func(e exec.Env) {
		e.Sleep(50 * time.Millisecond)
		c := h.NewClient(3)
		if err := Load(e, c, w, 0, w.RecordCount); err != nil {
			t.Error(err)
			return
		}
		var err error
		res, err = Run(e, c, w, w.OpCount, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Error(err)
		}
	})
	cl.RunUntil(10 * time.Minute)
	if res.Ops != 300 {
		t.Fatalf("ops=%d", res.Ops)
	}
	if res.Reads == 0 || res.Updates == 0 {
		t.Fatalf("mix not mixed: %+v", res)
	}
	if res.Throughput() <= 0 {
		t.Fatalf("throughput=%v", res.Throughput())
	}
}
