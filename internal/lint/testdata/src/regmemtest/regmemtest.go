// Package regmemtest seeds the registered-memory bug classes the regmem
// analyzer must catch — leaks, double releases, discards, lost reservations,
// stale references after release, retained buffers after channel/goroutine
// handoff — plus the escape, Grow, defer, owner-object, and
// interprocedural-release shapes it must accept.
package regmemtest

import (
	"errors"

	"bufpool"
	"ibverbs"
)

var errFull = errors.New("budget exhausted")
var errBad = errors.New("bad input")

func work() {}

func use(p []byte) {}

// --- MemoryBudget reservations ---

func reserveOK(b *ibverbs.MemoryBudget) {
	if b.TryReserve(64) {
		work()
		b.Release(64)
	}
}

func reserveLeak(b *ibverbs.MemoryBudget, bad bool) {
	if b.TryReserve(64) { // want `released on some paths but leaks on others`
		if bad {
			return // the early return skips the Release
		}
		b.Release(64)
	}
}

func reserveNegated(b *ibverbs.MemoryBudget, bad bool) error {
	if !b.TryReserve(64) { // want `released on some paths but leaks on others`
		return errFull
	}
	if bad {
		return errBad // leaks the reservation
	}
	b.Release(64)
	return nil
}

func reserveDiscard(b *ibverbs.MemoryBudget) {
	b.TryReserve(64) // want `result of b\.TryReserve discarded`
}

func reserveDouble(b *ibverbs.MemoryBudget) {
	if b.TryReserve(64) {
		b.Release(64)
		b.Release(64) // want `released twice`
	}
}

func reserveDeferOK(b *ibverbs.MemoryBudget, bad bool) error {
	if !b.TryReserve(64) {
		return errFull
	}
	defer b.Release(64)
	if bad {
		return errBad // fine: the defer still releases
	}
	return nil
}

type owner struct {
	budget *ibverbs.MemoryBudget
}

// reserveHandoff holds the reservation on every path: the returned owner is
// presumed to Release in its Close, like the SRQ constructor. No finding.
func reserveHandoff(b *ibverbs.MemoryBudget) *owner {
	if !b.TryReserve(64) {
		return nil
	}
	return &owner{budget: b}
}

// --- stale buffer references ---

type stream struct {
	buf  *bufpool.Buffer
	pool *bufpool.ShadowPool
}

func useAfterRelease(p *bufpool.NativePool) {
	b := p.Get(64)
	p.Put(b)
	use(b.Data) // want `used after its release`
}

func sendAfterRelease(p *bufpool.NativePool, ch chan *bufpool.Buffer) {
	b := p.Get(64)
	p.Put(b)
	ch <- b // want `used after its release`
}

func storeAfterRelease(p *bufpool.NativePool, s *stream) {
	b := p.Get(64)
	p.Put(b)
	s.buf = b // want `stored after its release`
}

func releaseAfterSend(p *bufpool.NativePool, ch chan *bufpool.Buffer) {
	b := p.Get(64)
	ch <- b  // the receiver owns the buffer now
	p.Put(b) // want `two owners, one buffer`
}

func retainAfterGo(p *bufpool.NativePool, sink func(*bufpool.Buffer)) {
	b := p.Get(64)
	go sink(b)
	use(b.Data) // want `must not be retained`
}

func sendOK(p *bufpool.NativePool, ch chan *bufpool.Buffer) {
	b := p.Get(64)
	ch <- b // handoff without retention: fine
}

// --- obligations through calls ---

func releaseHelper(p *bufpool.NativePool, b *bufpool.Buffer) {
	p.Put(b)
}

func throughCallOK(p *bufpool.NativePool) {
	b := p.Get(64)
	releaseHelper(p, b) // the summary sees the release one call down
}

func throughCallStale(p *bufpool.NativePool) {
	b := p.Get(64)
	releaseHelper(p, b)
	use(b.Data) // want `used after its release`
}

func keepHelper(b *bufpool.Buffer) int {
	return len(b.Data)
}

func throughKeeper(p *bufpool.NativePool) {
	b := p.Get(64) // want `not released on any path`
	keepHelper(b)
}

func maybeHelper(p *bufpool.NativePool, b *bufpool.Buffer, flag bool) {
	if flag {
		p.Put(b)
	}
}

func throughMaybe(p *bufpool.NativePool, flag bool) {
	b := p.Get(64) // want `released on some paths but leaks on others`
	maybeHelper(p, b, flag)
}

// --- accepted shapes ---

func deferBufOK(p *bufpool.NativePool) {
	b := p.Get(64)
	defer p.Put(b)
	use(b.Data)
}

func escapeReturn(p *bufpool.NativePool) *bufpool.Buffer {
	b := p.Get(64)
	return b // the caller owns the release
}

func escapeStore(p *bufpool.NativePool, s *stream) {
	s.buf = p.Get(64) // the struct owns the release
}

func loopOK(p *bufpool.NativePool, n int) {
	for i := 0; i < n; i++ {
		b := p.Get(64)
		use(b.Data)
		p.Put(b)
	}
}

func loopLeak(p *bufpool.NativePool, n int) {
	for i := 0; i < n; i++ {
		b := p.Get(64) // want `overwritten before being released` `not released on any path`
		use(b.Data)
	}
}

// --- acquisition/release pairing ---

func leak(p *bufpool.NativePool) {
	b := p.Get(64) // want `not released on any path`
	_ = b.Data
	return
}

func ok(p *bufpool.NativePool) {
	b := p.Get(64)
	copy(b.Data, b.Data)
	p.Put(b)
}

func branchLeak(p *bufpool.NativePool, flag bool) {
	b := p.Get(64) // want `released on some paths but leaks on others`
	if flag {
		p.Put(b)
	}
	return
}

func errPathOK(p *bufpool.NativePool, flag bool) error {
	b := p.Get(64)
	if flag {
		p.Put(b)
		return nil
	}
	p.Put(b)
	return nil
}

func doubleFree(p *bufpool.NativePool) {
	b := p.Get(64)
	p.Put(b)
	p.Put(b) // want `released twice`
}

func discarded(p *bufpool.NativePool) {
	p.Get(64)     // want `result of Get discarded`
	_ = p.Get(64) // want `result of Get discarded`
}

func escapes(p *bufpool.NativePool, sink chan *bufpool.Buffer) *bufpool.Buffer {
	a := p.Get(1)
	sink <- a // whole-value use: the obligation transfers to the receiver
	b := p.Get(2)
	return b // returned: the caller owns the release
}

func fieldStore(s *stream, key int) {
	s.buf = s.pool.Acquire(key)     // stored into a field: escapes with it
	s.buf = s.pool.Grow(s.buf, 128) // Grow releases the old buffer; the result escapes into the field
}

func deferred(p *bufpool.ShadowPool, key int) {
	b := p.Acquire(key)
	defer p.Release(b)
	b.Data[0] = 1
}

func overwrite(p *bufpool.NativePool) {
	b := p.Get(8)
	b = p.Get(16) // want `overwritten before being released`
	p.Put(b)
}

func grow(p *bufpool.ShadowPool, key int) {
	b := p.Acquire(key)
	b = p.Grow(b, 256) // Grow releases b and hands back a fresh obligation
	p.Release(b)
}
