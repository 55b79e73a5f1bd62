package main

import (
	"math/bits"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of vs (mean of the two middles for even counts);
// 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(vs []float64) float64 {
	var m float64
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// hist is a fixed-size log-linear histogram of nanosecond durations: 128
// sub-buckets per power of two (under 0.8% relative width), no allocation per
// sample, so recording latency never shows up in allocs_per_call.
type hist struct {
	counts [40 << histSubBits]uint32
	n      uint64
}

const histSubBits = 7

func histBucket(v uint64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	return (e+1)<<histSubBits + int(v>>uint(e)) - 1<<histSubBits
}

// histLow returns the lower edge and width of bucket i.
func histLow(i int) (low, width float64) {
	if i < 1<<histSubBits {
		return float64(i), 1
	}
	e := uint(i>>histSubBits - 1)
	m := uint64(i&(1<<histSubBits-1)) + 1<<histSubBits
	return float64(m << e), float64(uint64(1) << e)
}

func (h *hist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := histBucket(uint64(d))
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile interpolates linearly inside the bucket holding rank q*n; the
// result is in nanoseconds.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			low, width := histLow(i)
			return low + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	low, width := histLow(len(h.counts) - 1)
	return low + width
}

// cpuTime is user+system CPU consumed by the process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024
}

// memCounters are the allocator's cumulative counts.
type memCounters struct{ mallocs, bytes uint64 }

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{ms.Mallocs, ms.TotalAlloc}
}

// perCall spreads the allocation between two readings over n calls.
func (a memCounters) perCall(b memCounters, n float64) (allocs, bytes float64) {
	return float64(b.mallocs-a.mallocs) / n, float64(b.bytes-a.bytes) / n
}

// usage is one boundary sample of the process-wide meters.
type usage struct {
	at  time.Time
	cpu time.Duration
}

func sampleUsage() usage { return usage{time.Now(), cpuTime()} }

// callers is the load generator's width: closed-loop callers never outnumber
// the cores, so the generator does not queue behind itself.
func callers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// stolen is the CPU time the hypervisor has so far given to other guests
// instead of this machine: the steal column of /proc/stat's first line, in
// 10 ms ticks. It reads 0 where there is no such file or column.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}
