// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel runs each simulated process as a coroutine (iter.Pull) and
// enforces strictly cooperative, one-at-a-time execution: exactly one of the
// driver (whoever called Run) or a single process runs at any instant, and
// control moves only when the runner blocks, exits or yields. The run loop
// moves with control: a process that blocks pops the next event itself. If
// that event is its own wake it simply carries on without a switch;
// otherwise it names the process that event wakes (or nobody) and yields to
// the driver, which resumes the named process and goes on down the chain.
// Only the driver runs callbacks (DESIGN.md S35). All simulator state may
// therefore be accessed without locks, and a run is bit-for-bit reproducible
// given the same seed.
//
// Time is virtual. Processes advance it only by blocking: Sleep, queue
// operations (see Queue), and resource acquisition (see Resource). Events
// scheduled for the same instant fire in scheduling order (FIFO), which
// keeps runs deterministic.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Sim is a discrete-event simulator instance. Create one with New, add
// processes with Spawn, and drive it with Run or RunUntil.
type Sim struct {
	now time.Duration
	seq uint64
	// Pending events, split by kind so that each heap stays cheap: a timed
	// wait that is delivered to leaves its timeout behind until its instant
	// comes (a 120 s call timeout outlives the call by 120 s), so timeouts
	// pile up by the hundred thousand, pushed in nearly sorted order and
	// rarely popped, while the wakes and callbacks that every blocking
	// operation pushes and pops number a few dozen. A timeout names its
	// process by slot, so its heap holds no pointer and the collector never
	// scans it. The next event is the earlier of the two tops.
	events   heap4[action]
	timeouts heap4[int32]
	rng      *rand.Rand

	// horizon is the last instant the current run may process; whoever pops
	// events, driver or process, leaves later ones alone.
	horizon time.Duration
	// handTo is the process a yielding or exiting process passes control
	// to through the driver; nil gives control back to the driver.
	handTo *Proc

	// procs is the slot table: the live process in each slot, nil in a
	// slot on the free list. A process keeps its slot from Spawn to exit.
	procs    []*Proc
	free     []int32
	idle     []*coro // finished processes' coroutines, parked for reuse
	live     int     // processes spawned and not yet finished
	procSeq  int
	panicVal any
	panicLoc string
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's deterministic random source. It must only be
// used from kernel callbacks or running processes.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Live reports the number of processes that have been spawned and have not
// yet returned.
func (s *Sim) Live() int { return s.live }

// key orders pending records: virtual time, then scheduling order. seq is
// unique, so that is a total order and the pop sequence does not depend on
// a heap's shape.
type key struct {
	at  time.Duration
	seq uint64
}

func (k key) before(o key) bool { return k.at < o.at || (k.at == o.at && k.seq < o.seq) }

// entry is one pending record, held by value in a heap4.
type entry[V any] struct {
	key
	v V
}

// action is what a wake or callback event does: run fn in kernel context,
// or hand control to p (a blocked or not yet started process).
type action struct {
	fn func()
	p  *Proc
}

// timeout is the expiry of a timed wait: the slot of the waiting process,
// and in seq the identity of the wait (Proc.timedSeq). It carries no
// pointer (TestTimeoutRecordHasNoPointers).
type timeout = entry[int32]

// heap4 is a 4-ary min-heap of entries on their keys.
type heap4[V any] []entry[V]

func (hp *heap4[V]) push(e entry[V]) {
	h := append(*hp, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(h[parent].key) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*hp = h
}

// pop removes and returns the earliest entry. The vacated slot is cleared so
// the heap's spare capacity pins no process or closure.
func (hp *heap4[V]) pop() entry[V] {
	h := *hp
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = entry[V]{}
	h = h[:n]
	*hp = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if h[c].before(h[min].key) {
				min = c
			}
		}
		if !h[min].before(last.key) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = last
	return top
}

// timeoutFirst reports whether the next pending event is a timeout.
func (s *Sim) timeoutFirst() bool {
	return len(s.timeouts) > 0 && (len(s.events) == 0 || s.timeouts[0].before(s.events[0].key))
}

// stamp keys a record for time at (never before now) in scheduling order.
func (s *Sim) stamp(at time.Duration) key {
	if at < s.now {
		at = s.now
	}
	s.seq++
	return key{at, s.seq}
}

// schedule enqueues a at time at. It may be called from kernel context or
// from a running process (both are exclusive).
func (s *Sim) schedule(at time.Duration, a action) {
	s.events.push(entry[action]{s.stamp(at), a})
}

// At schedules fn to run in kernel context at absolute virtual time at.
// fn must not block; to run blocking code, spawn a process from within fn.
func (s *Sim) At(at time.Duration, fn func()) { s.schedule(at, action{fn: fn}) }

// After schedules fn to run in kernel context d from now.
func (s *Sim) After(d time.Duration, fn func()) { s.schedule(s.now+d, action{fn: fn}) }

// Run processes events until none remain: every process has finished and
// nothing further is scheduled. It returns the final virtual time. If any
// process panicked, Run re-panics with its value.
func (s *Sim) Run() time.Duration { return s.RunUntil(-1) }

// RunUntil is Run bounded by a horizon: events strictly after until are left
// unprocessed (pass a negative horizon for no bound), and when one is left
// the clock stops at the horizon.
func (s *Sim) RunUntil(until time.Duration) time.Duration {
	if until < 0 {
		s.run(math.MaxInt64)
		return s.now
	}
	s.run(until)
	if len(s.events)+len(s.timeouts) > 0 {
		s.now = until
	}
	return s.now
}

// RunBefore processes events strictly before the window end w, leaving events
// at or after w (and the current time wherever the last processed event put
// it). It is the per-window step of the sharded kernel: a shard may safely
// run everything before w = barrier + lookahead because no cross-shard
// message can arrive earlier than one lookahead after it was sent.
func (s *Sim) RunBefore(w time.Duration) time.Duration {
	s.run(w - 1)
	return s.now
}

// run is the driver's loop: it pops every event up to the horizon, runs the
// callbacks and timeouts itself and resumes the processes. A resumed process
// pops events itself while it runs (see Proc.block) and names in s.handTo
// the process to resume after it, so one resume here can cover many events.
func (s *Sim) run(horizon time.Duration) {
	s.horizon = horizon
	for {
		s.expireDue()
		if len(s.events) == 0 || s.events[0].at > horizon {
			s.stopIdle()
			return
		}
		e := s.events.pop()
		s.now = e.at
		if e.v.fn != nil {
			e.v.fn()
		} else {
			for p := e.v.p; p != nil; p = s.handTo {
				s.handTo = nil
				p.next()
			}
		}
		s.checkPanic()
	}
}

// nextProc pops events on behalf of a process giving control up and returns
// the process to hand it to. It returns nil when control must go back to the
// driver: the next event is a callback or lies past the horizon, nothing is
// scheduled, or a process has panicked.
func (s *Sim) nextProc() *Proc {
	if s.panicVal != nil {
		return nil
	}
	s.expireDue()
	if len(s.events) == 0 || s.events[0].v.fn != nil || s.events[0].at > s.horizon {
		return nil
	}
	e := s.events.pop()
	s.now = e.at
	return e.v.p
}

// expireDue pops and runs the timeouts due before the next wake or callback
// and within the horizon. Whoever pops events runs it first, so timeouts
// and events interleave in (at, seq) order.
func (s *Sim) expireDue() {
	for s.timeoutFirst() && s.timeouts[0].at <= s.horizon {
		t := s.timeouts.pop()
		s.now = t.at
		s.expire(t)
	}
}

// NextEventTime peeks the earliest pending event time without disturbing the
// heap. ok is false when nothing is scheduled.
func (s *Sim) NextEventTime() (at time.Duration, ok bool) {
	switch {
	case s.timeoutFirst():
		return s.timeouts[0].at, true
	case len(s.events) > 0:
		return s.events[0].at, true
	}
	return 0, false
}

func (s *Sim) checkPanic() {
	if s.panicVal != nil {
		s.stopIdle()
		panic(fmt.Sprintf("sim: process panic at t=%v in %s: %v", s.now, s.panicLoc, s.panicVal))
	}
}

// Proc is a simulated process. All blocking primitives (Sleep, queue and
// resource operations) take the calling process so the kernel knows whom to
// suspend; a Proc must only ever be used by its own body. The body runs as a
// coroutine: next resumes it from the driver, and it gives control back by
// yielding (Proc.block) or returning.
type Proc struct {
	sim   *Sim
	name  string
	id    int
	slot  int32                   // index in the slot table, while live
	next  func() (struct{}, bool) // resumes the body until it yields or returns
	yield func(struct{}) bool     // called by the body to give control back

	// Wait record: what a queue or resource hands a blocked process. It
	// lives here, not in a record of its own, because a process blocks on
	// one thing at a time.
	val any   // value delivered to a getter, or held by a blocked putter
	ok  bool  // delivery succeeded (false: queue closed)
	n   int64 // units requested from a resource
	// timedQ is the queue p waits on with a timeout armed; delivery and
	// expiry both clear it, so whichever comes second finds nothing to do.
	// timedSeq is the seq of that wait's timeout record: a timeout for p's
	// slot carrying any other seq belongs to a wait that is over, possibly
	// of an earlier process in the same slot, and pops as a no-op.
	timedQ   *Queue
	timedSeq uint64
	timedOut bool
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.now }

// Spawn creates a process executing fn and schedules it to start at the
// current virtual time. It can be called before Run or from a running
// process or kernel callback.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	s.procSeq++
	p := &Proc{sim: s, name: name, id: s.procSeq}
	if n := len(s.free); n > 0 {
		p.slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.procs[p.slot] = p
	} else {
		p.slot = int32(len(s.procs))
		s.procs = append(s.procs, p)
	}
	s.start(p, fn)
	s.live++
	p.wake()
	return p
}

// run is the process's life on its coroutine: fn, then the exit. A panic
// is recorded for the driver to re-raise and reported; either way the exit
// frees the slot and pops on to the next process, as block does.
func (p *Proc) run(fn func(*Proc)) (panicked bool) {
	defer func() {
		s := p.sim
		if r := recover(); r != nil {
			s.panicVal = r
			s.panicLoc = p.name
			panicked = true
		}
		s.live--
		s.procs[p.slot] = nil
		s.free = append(s.free, p.slot)
		s.handTo = s.nextProc()
	}()
	fn(p)
	return false
}

// block suspends the process until its wake event is popped. It must only
// be invoked by the process's own body, with that wake already scheduled or
// owed by a queue or resource p is linked on. The common case, an
// uncontended Sleep, finds its own wake next and never leaves the coroutine.
func (p *Proc) block() {
	s := p.sim
	next := s.nextProc()
	if next == p {
		return
	}
	s.handTo = next
	p.yield(struct{}{})
}

// wake schedules the process to resume at the current virtual time. It must
// be called with the kernel or another process in control, never by p itself.
func (p *Proc) wake() { p.sim.schedule(p.sim.now, action{p: p}) }

// deliver completes p's wait with (v, ok) and wakes it. A timeout still
// armed for the wait becomes a no-op.
func (p *Proc) deliver(v any, ok bool) {
	p.val, p.ok = v, ok
	p.timedQ = nil
	p.wake()
}

// expire runs a popped timeout. If the process in its slot is still in the
// timed wait it was armed for, it leaves the queue and wakes with timedOut
// set; otherwise a delivery got there first (or that process is gone) and
// the timeout is stale.
func (s *Sim) expire(t timeout) {
	p := s.procs[t.v]
	if p == nil || p.timedQ == nil || p.timedSeq != t.seq {
		return
	}
	q := p.timedQ
	p.timedQ = nil
	p.timedOut = true
	q.getters.remove(p)
	p.wake()
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		// Even a zero-length sleep yields, letting same-time events run
		// in FIFO order.
		d = 0
	}
	p.sim.schedule(p.sim.now+d, action{p: p})
	p.block()
}

// Yield gives other ready processes and events at the current instant a
// chance to run.
func (p *Proc) Yield() { p.Sleep(0) }
