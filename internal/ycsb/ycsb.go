// Package ycsb implements the Yahoo! Cloud Serving Benchmark driver used by
// the paper's HBase evaluation (Figure 8): record loading, uniform/zipfian
// request distributions, and the three operation mixes (100% Get, 100% Put,
// 50/50).
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"rpcoib/internal/exec"
	"rpcoib/internal/hbase"
)

// Mix is an operation mix.
type Mix struct {
	ReadProportion   float64
	UpdateProportion float64
}

// The paper's three workloads.
var (
	// WorkloadGet is 100% reads (YCSB workload C).
	WorkloadGet = Mix{ReadProportion: 1}
	// WorkloadPut is 100% updates.
	WorkloadPut = Mix{UpdateProportion: 1}
	// WorkloadMix is 50% reads / 50% updates (YCSB workload A).
	WorkloadMix = Mix{ReadProportion: 0.5, UpdateProportion: 0.5}
)

// Workload configures one YCSB run.
type Workload struct {
	RecordCount int
	OpCount     int
	RecordSize  int // bytes per record (paper: 1 KB)
	Mix         Mix
	Zipfian     bool
}

// Result summarizes one client's portion of a run.
type Result struct {
	Ops      int
	Reads    int
	Updates  int
	Duration time.Duration
}

// Throughput returns operations per second.
func (r Result) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds()
}

// Key formats record i as a YCSB-style key.
func Key(i int) string { return fmt.Sprintf("user%019d", i*2654435761%1000000007) }

// loadVerifyRows is how many loaded records each client reads back (in one
// batched multiGet) to confirm the load before the measured phase starts.
const loadVerifyRows = 16

// Load inserts records [from, to) through the client, flushing at the end,
// then reads back an evenly spaced sample in one fanned-out MultiGet to
// verify the load landed.
func Load(e exec.Env, c *hbase.HClient, w Workload, from, to int) error {
	for i := from; i < to; i++ {
		if err := c.Put(e, Key(i), w.RecordSize); err != nil {
			return err
		}
	}
	if err := c.Flush(e); err != nil {
		return err
	}
	n := to - from
	if n <= 0 {
		return nil
	}
	sample := loadVerifyRows
	if sample > n {
		sample = n
	}
	rows := make([]string, 0, sample)
	for i := 0; i < sample; i++ {
		rows = append(rows, Key(from+i*n/sample))
	}
	return c.MultiGet(e, rows, w.RecordSize)
}

// Run executes ops operations with the given mix and key distribution.
func Run(e exec.Env, c *hbase.HClient, w Workload, ops int, rng *rand.Rand) (Result, error) {
	var res Result
	gen := newKeyChooser(w, rng)
	start := e.Now()
	for i := 0; i < ops; i++ {
		key := Key(gen.next())
		if rng.Float64() < w.Mix.ReadProportion {
			if err := c.Get(e, key, w.RecordSize); err != nil {
				return res, err
			}
			res.Reads++
		} else {
			if err := c.Put(e, key, w.RecordSize); err != nil {
				return res, err
			}
			res.Updates++
		}
		res.Ops++
	}
	if err := c.Flush(e); err != nil {
		return res, err
	}
	res.Duration = e.Now() - start
	return res, nil
}

// keyChooser picks record indices uniformly or zipfian-distributed.
type keyChooser struct {
	n       int
	rng     *rand.Rand
	zipfian *zipf
}

func newKeyChooser(w Workload, rng *rand.Rand) *keyChooser {
	k := &keyChooser{n: w.RecordCount, rng: rng}
	if w.Zipfian {
		k.zipfian = newZipf(w.RecordCount, 0.99)
	}
	return k
}

func (k *keyChooser) next() int {
	if k.zipfian != nil {
		return k.zipfian.next(k.rng)
	}
	return k.rng.Intn(k.n)
}

// zipf is the standard YCSB zipfian generator (Gray et al.'s algorithm).
type zipf struct {
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
}

func newZipf(n int, theta float64) *zipf {
	z := &zipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	zeta2 := zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

// zetaMemo holds every zeta sum computed so far: each client of a run
// builds its own generator over the same record count, and the sum is a
// record-count-long loop of math.Pow. The mutex keeps harnesses running side
// by side safe.
var zetaMemo struct {
	sync.Mutex
	sums map[zetaKey]float64
}

type zetaKey struct {
	n     int
	theta float64
}

// zeta is the generalized harmonic number sum 1/i^theta for i in 1..n,
// always summed in the same order, so a remembered value is the value.
func zeta(n int, theta float64) float64 {
	k := zetaKey{n, theta}
	zetaMemo.Lock()
	sum, ok := zetaMemo.sums[k]
	zetaMemo.Unlock()
	if ok {
		return sum
	}
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	zetaMemo.Lock()
	if zetaMemo.sums == nil {
		zetaMemo.sums = map[zetaKey]float64{}
	}
	zetaMemo.sums[k] = sum
	zetaMemo.Unlock()
	return sum
}

func (z *zipf) next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}
