// Package bufpool implements the paper's history-based two-level buffer pool
// (Section III-C).
//
// The lower level is a NativePool: size-classed buffers that model
// pre-allocated, pre-registered RDMA-capable native memory. The upper level
// is a ShadowPool, the paper's "shadow pool in the JVM layer": it keeps
// references into the native pool and a per-<protocol, method> history of
// the last appropriate message size, exploiting the Message Size Locality
// phenomenon (Figure 3) so that almost every call is handed a buffer that
// fits on the first try.
package bufpool

import (
	"fmt"
	"sync"
)

// MinClassSize is the smallest buffer class: 128 bytes, the smallest size
// class in the paper's Figure 3.
const MinClassSize = 128

// DefaultMaxClassSize bounds pooled buffers at 16 MB; larger requests are
// satisfied with one-off allocations (counted separately).
const DefaultMaxClassSize = 16 << 20

// Buffer is a pooled, conceptually RDMA-registered native buffer. Data always
// has the full capacity of its size class.
type Buffer struct {
	Data  []byte
	class int // index into pool classes; -1 for oversize one-offs
	owner *NativePool
	grown bool // buffer came from a doubling re-get, not the first Acquire
	idle  bool // buffer is back in (or dropped from) the pool; catches double frees
}

// Cap returns the buffer capacity.
func (b *Buffer) Cap() int { return len(b.Data) }

// Registered reports whether the buffer belongs to the pre-registered pool
// (oversize one-off buffers would need on-the-fly registration, which is the
// slow path the pool exists to avoid).
func (b *Buffer) Registered() bool { return b.class >= 0 }

// Stats counts pool traffic. Hits and misses are the load-bearing numbers:
// a hit hands out an already-registered buffer with zero allocation.
type Stats struct {
	Gets            int64 // total Get calls
	Hits            int64 // satisfied from a class free list
	Misses          int64 // class empty: fresh allocation (+registration)
	Oversize        int64 // larger than the max class: one-off allocation
	Puts            int64 // buffers returned
	DoubleFrees     int64 // Puts of an already-returned buffer (refused, counted)
	Denied          int64 // Gets served unregistered because of a registered-memory cap
	BytesRegistered int64 // current native memory footprint
	PeakRegistered  int64 // high-water mark of BytesRegistered
}

// NativePool is the lower level: free lists of size-classed buffers. All
// methods are safe for concurrent use (real mode); under simulation calls
// are already serialized.
type NativePool struct {
	mu       sync.Mutex
	classes  []int // class sizes, ascending powers of two
	free     [][]*Buffer
	maxClass int
	limit    int64 // registered-bytes cap (0 = unlimited); see SetRegisteredLimit
	stats    Stats
	m        nativeInstruments
}

// NewNativePool creates a pool with power-of-two classes from MinClassSize
// to maxClassSize (0 means DefaultMaxClassSize). No memory is reserved until
// first use; Preregister warms classes up front, modeling the paper's
// "pre-allocated and pre-registered when the RPCoIB library loads".
func NewNativePool(maxClassSize int) *NativePool {
	if maxClassSize <= 0 {
		maxClassSize = DefaultMaxClassSize
	}
	p := &NativePool{maxClass: maxClassSize}
	for size := MinClassSize; size <= maxClassSize; size *= 2 {
		p.classes = append(p.classes, size)
	}
	p.free = make([][]*Buffer, len(p.classes))
	return p
}

// Preregister populates every class with count ready buffers.
func (p *NativePool) Preregister(count int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for ci, size := range p.classes {
		for i := 0; i < count; i++ {
			p.free[ci] = append(p.free[ci], &Buffer{Data: make([]byte, size), class: ci, owner: p, idle: true})
			p.register(int64(size))
		}
	}
}

func (p *NativePool) register(n int64) {
	p.stats.BytesRegistered += n
	if p.stats.BytesRegistered > p.stats.PeakRegistered {
		p.stats.PeakRegistered = p.stats.BytesRegistered
	}
	p.m.bytes.Add(n)
	if p.stats.PeakRegistered > p.m.peak.Value() {
		p.m.peak.Set(p.stats.PeakRegistered)
	}
}

// classFor returns the index of the smallest class holding size, or -1 if
// size exceeds the largest class.
func (p *NativePool) classFor(size int) int {
	for ci, cs := range p.classes {
		if size <= cs {
			return ci
		}
	}
	return -1
}

// ClassSize returns the capacity a Get(size) buffer would have.
func (p *NativePool) ClassSize(size int) int {
	if ci := p.classFor(size); ci >= 0 {
		return p.classes[ci]
	}
	return size
}

// Get returns a buffer with capacity >= size. Fresh allocations (misses and
// oversize requests) are counted so callers can charge registration cost.
func (p *NativePool) Get(size int) *Buffer {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Gets++
	p.m.gets.Inc()
	ci := p.classFor(size)
	if ci < 0 {
		p.stats.Oversize++
		p.m.oversize.Inc()
		return &Buffer{Data: make([]byte, size), class: -1, owner: p}
	}
	if n := len(p.free[ci]); n > 0 {
		b := p.free[ci][n-1]
		p.free[ci] = p.free[ci][:n-1]
		b.grown = false
		b.idle = false
		p.stats.Hits++
		p.m.hits.Inc()
		return b
	}
	if p.limit > 0 && p.stats.BytesRegistered+int64(p.classes[ci]) > p.limit {
		// Registered memory is exhausted (an injected cap modeling a host
		// out of pinnable pages): fall back to an unregistered one-off, the
		// slow path the pool exists to avoid. The caller pays on-the-fly
		// registration, exactly as for an oversize buffer.
		p.stats.Denied++
		p.m.denied.Inc()
		return &Buffer{Data: make([]byte, p.classes[ci]), class: -1, owner: p}
	}
	p.stats.Misses++
	p.m.misses.Inc()
	p.register(int64(p.classes[ci]))
	return &Buffer{Data: make([]byte, p.classes[ci]), class: ci, owner: p}
}

// SetRegisteredLimit caps the pool's registered-memory footprint (0 removes
// the cap). Gets that would register past the cap are served unregistered
// one-off buffers and counted in Stats.Denied. Already-registered classes
// keep serving hits. Used by fault injection to model pinnable-memory
// exhaustion.
func (p *NativePool) SetRegisteredLimit(bytes int64) {
	p.mu.Lock()
	p.limit = bytes
	p.mu.Unlock()
}

// Outstanding reports buffers currently held by callers (Gets minus Puts);
// zero at quiescence means nothing leaked.
func (p *NativePool) Outstanding() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats.Gets - p.stats.Puts
}

// Put returns a buffer to its class free list. Oversize one-offs are dropped
// (their registration was temporary).
func (p *NativePool) Put(b *Buffer) {
	if b == nil {
		return
	}
	if b.owner != p {
		panic("bufpool: buffer returned to wrong pool")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if b.idle {
		// Double free: the buffer is already back in (or dropped from) the
		// pool. Honoring it would hand the same memory to two callers, so it
		// is refused and counted for the invariant checker.
		p.stats.DoubleFrees++
		p.m.doubleFrees.Inc()
		return
	}
	b.idle = true
	p.stats.Puts++
	p.m.puts.Inc()
	if Poison {
		PoisonFill(b.Data)
	}
	if b.class < 0 {
		return
	}
	p.free[b.class] = append(p.free[b.class], b)
}

// PoisonByte is what released memory reads as in a `poison` build.
const PoisonByte = 0xDB

// PoisonFill overwrites b with PoisonByte. Callers guard it with Poison. It
// doubles a filled prefix: a store per byte is too slow under the race
// detector for megabyte buffers.
func PoisonFill(b []byte) {
	if len(b) == 0 {
		return
	}
	b[0] = PoisonByte
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// StatsSnapshot returns a copy of the counters.
func (p *NativePool) StatsSnapshot() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// FreeBuffers reports the number of idle buffers per class (for tests and
// footprint reporting).
func (p *NativePool) FreeBuffers() map[int]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := make(map[int]int, len(p.classes))
	for ci, size := range p.classes {
		m[size] = len(p.free[ci])
	}
	return m
}

// String summarizes the pool state.
func (p *NativePool) String() string {
	s := p.StatsSnapshot()
	return fmt.Sprintf("nativepool{gets=%d hits=%d misses=%d oversize=%d registered=%dB peak=%dB}",
		s.Gets, s.Hits, s.Misses, s.Oversize, s.BytesRegistered, s.PeakRegistered)
}
