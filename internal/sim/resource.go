package sim

import "time"

// Resource is a counting semaphore with FIFO granting, used to model
// contended capacity such as CPU cores, disk spindles, or NIC DMA engines.
type Resource struct {
	s        *Sim
	capacity int64
	inUse    int64
	waiters  ring[*Proc] // each holds the units it asked for in its n
}

// NewResource creates a resource with the given capacity (must be >= 1).
func (s *Sim) NewResource(capacity int64) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{s: s, capacity: capacity}
}

// Acquire blocks p until n units are available, then holds them.
// n must be between 1 and the capacity.
func (r *Resource) Acquire(p *Proc, n int64) {
	if n < 1 || n > r.capacity {
		panic("sim: invalid acquire count")
	}
	if r.waiters.n == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	p.n = n
	r.waiters.push(p)
	p.block()
}

// Release returns n units and grants any waiters that now fit, in FIFO order.
func (r *Resource) Release(n int64) {
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: resource released more than acquired")
	}
	for r.waiters.n > 0 {
		w := r.waiters.first()
		if r.inUse+w.n > r.capacity {
			break
		}
		r.waiters.pop()
		r.inUse += w.n
		w.deliver(nil, true)
	}
}

// Use acquires one unit, holds it for d of virtual time, and releases it.
// This is the standard way to model occupying a CPU core or disk head.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.Acquire(p, 1)
	p.Sleep(d)
	r.Release(1)
}
