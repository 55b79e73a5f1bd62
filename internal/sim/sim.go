// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel runs simulated processes as goroutines but enforces strictly
// cooperative, one-at-a-time execution: exactly one goroutine (either the
// kernel loop or a single process) is runnable at any instant, and control
// is handed off explicitly through per-process channels. All simulator state
// may therefore be accessed without locks, and a run is bit-for-bit
// reproducible given the same seed.
//
// Time is virtual. Processes advance it only by blocking: Sleep, queue
// operations (see Queue), and resource acquisition (see Resource). Events
// scheduled for the same instant fire in scheduling order (FIFO), which
// keeps runs deterministic.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Sim is a discrete-event simulator instance. Create one with New, add
// processes with Spawn, and drive it with Run or RunUntil.
type Sim struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	rng    *rand.Rand

	// yield is signalled by a process when it blocks or exits, returning
	// control to the kernel loop.
	yield chan struct{}

	live     int // processes spawned and not yet finished
	procSeq  int
	panicVal any
	panicLoc string
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{
		rng:   rand.New(rand.NewSource(seed)),
		yield: make(chan struct{}),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's deterministic random source. It must only be
// used from kernel callbacks or running processes.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Live reports the number of processes that have been spawned and have not
// yet returned.
func (s *Sim) Live() int { return s.live }

// event is a scheduled kernel action.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// schedule enqueues fn to run in kernel context at time at. It may be called
// from kernel context or from a running process (both are exclusive).
func (s *Sim) schedule(at time.Duration, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	heap.Push(&s.events, event{at: at, seq: s.seq, fn: fn})
}

// At schedules fn to run in kernel context at absolute virtual time at.
// fn must not block; to run blocking code, spawn a process from within fn.
func (s *Sim) At(at time.Duration, fn func()) { s.schedule(at, fn) }

// After schedules fn to run in kernel context d from now.
func (s *Sim) After(d time.Duration, fn func()) { s.schedule(s.now+d, fn) }

// Run processes events until none remain: every process has finished and
// nothing further is scheduled. It returns the final virtual time. If any
// process panicked, Run re-panics with its value.
func (s *Sim) Run() time.Duration { return s.RunUntil(-1) }

// RunUntil is Run bounded by a horizon: events strictly after until are left
// unprocessed (pass a negative horizon for no bound). The heap top is peeked,
// not popped, before the horizon check, so an event beyond the horizon costs
// no churn — RunUntil in a polling loop used to pop and re-push it every call.
func (s *Sim) RunUntil(until time.Duration) time.Duration {
	for len(s.events) > 0 {
		if until >= 0 && s.events[0].at > until {
			s.now = until
			break
		}
		e := heap.Pop(&s.events).(event)
		s.now = e.at
		e.fn()
		s.checkPanic()
	}
	return s.now
}

// RunBefore processes events strictly before the window end w, leaving events
// at or after w (and the current time wherever the last processed event put
// it). It is the per-window step of the sharded kernel: a shard may safely
// run everything before w = barrier + lookahead because no cross-shard
// message can arrive earlier than one lookahead after it was sent.
func (s *Sim) RunBefore(w time.Duration) time.Duration {
	for len(s.events) > 0 {
		if s.events[0].at >= w {
			break
		}
		e := heap.Pop(&s.events).(event)
		s.now = e.at
		e.fn()
		s.checkPanic()
	}
	return s.now
}

// NextEventTime peeks the earliest pending event time without disturbing the
// heap. ok is false when nothing is scheduled.
func (s *Sim) NextEventTime() (at time.Duration, ok bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}

func (s *Sim) checkPanic() {
	if s.panicVal != nil {
		panic(fmt.Sprintf("sim: process panic at t=%v in %s: %v", s.now, s.panicLoc, s.panicVal))
	}
}

// Proc is a simulated process. All blocking primitives (Sleep, queue and
// resource operations) take the calling process so the kernel knows whom to
// suspend; a Proc must only ever be used by the goroutine running it.
type Proc struct {
	sim    *Sim
	name   string
	id     int
	resume chan struct{}
	dead   bool
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.now }

// Spawn creates a process executing fn and schedules it to start at the
// current virtual time. It can be called before Run or from a running
// process or kernel callback.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	s.procSeq++
	p := &Proc{sim: s, name: name, id: s.procSeq, resume: make(chan struct{})}
	s.live++
	s.schedule(s.now, func() {
		go p.run(fn)
		<-s.yield
	})
	return p
}

func (p *Proc) run(fn func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			p.sim.panicVal = r
			p.sim.panicLoc = p.name
		}
		p.dead = true
		p.sim.live--
		p.sim.yield <- struct{}{}
	}()
	fn(p)
}

// block suspends the process until something calls wake. It must only be
// invoked by the process's own goroutine.
func (p *Proc) block() {
	p.sim.yield <- struct{}{}
	<-p.resume
}

// wake schedules the process to resume at the current virtual time. It must
// be called with the kernel or another process in control, never by p itself.
func (p *Proc) wake() {
	p.sim.schedule(p.sim.now, func() {
		p.resume <- struct{}{}
		<-p.sim.yield
	})
}

// wakeAt schedules the process to resume at absolute time at.
func (p *Proc) wakeAt(at time.Duration) {
	p.sim.schedule(at, func() {
		p.resume <- struct{}{}
		<-p.sim.yield
	})
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		// Even a zero-length sleep yields, letting same-time events run
		// in FIFO order.
		d = 0
	}
	p.wakeAt(p.sim.now + d)
	p.block()
}

// Yield gives other ready processes and events at the current instant a
// chance to run.
func (p *Proc) Yield() { p.Sleep(0) }
