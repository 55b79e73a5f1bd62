// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel runs simulated processes as goroutines but enforces strictly
// cooperative, one-at-a-time execution: exactly one goroutine (either the
// driver, i.e. whoever called Run, or a single process) holds control at any
// instant, and it passes control on explicitly. The run loop moves with
// control: a process that blocks pops the next event itself. If that event is
// its own wake it simply carries on; if it wakes another process, control is
// handed to that process directly; only a callback event, an empty heap, the
// run's horizon or a panic hands control back to the driver, which alone runs
// callbacks (DESIGN.md S30). All simulator state may therefore be accessed
// without locks, and a run is bit-for-bit reproducible given the same seed.
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
	// operation pushes and pops number a few dozen. The next event is the
	// earlier of the two tops.
	events   eventHeap // wakes and callbacks
	timeouts eventHeap
	rng      *rand.Rand

	// horizon is the last instant the current run may process; whoever pops
	// events, driver or process, leaves later ones alone.
	horizon time.Duration
	// driver is signalled when control returns to the goroutine inside Run.
	// Buffered so the goroutine giving control up never waits for the driver
	// to reach its receive.
	driver chan struct{}

	live     int // processes spawned and not yet finished
	procSeq  int
	panicVal any
	panicLoc string
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{
		rng:    rand.New(rand.NewSource(seed)),
		driver: make(chan struct{}, 1),
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

// event is a scheduled kernel action, held by value in the heap: a callback
// (fn), the wake of a blocked or not yet started process (p), or the expiry
// of p's timed wait number gen (timeout).
type event struct {
	at      time.Duration
	seq     uint64
	fn      func()
	p       *Proc
	gen     uint32
	timeout bool
}

func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventHeap is a 4-ary min-heap on (at, seq). seq is unique, so that is a
// total order and the pop sequence does not depend on the heap's shape.
type eventHeap []event

func (hp *eventHeap) push(e event) {
	h := append(*hp, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*hp = h
}

// pop removes and returns the earliest event. The vacated slot is cleared so
// the heap's spare capacity pins no process or closure.
func (hp *eventHeap) pop() event {
	h := *hp
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
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
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&last) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = last
	return top
}

// earliest returns the heap holding the next event; it is empty only when
// nothing at all is scheduled.
func (s *Sim) earliest() *eventHeap {
	if len(s.timeouts) > 0 && (len(s.events) == 0 || s.timeouts[0].before(&s.events[0])) {
		return &s.timeouts
	}
	return &s.events
}

// schedule enqueues e at time at. It may be called from kernel context or
// from a running process (both are exclusive).
func (s *Sim) schedule(at time.Duration, e event) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	e.at, e.seq = at, s.seq
	if e.timeout {
		s.timeouts.push(e)
	} else {
		s.events.push(e)
	}
}

// At schedules fn to run in kernel context at absolute virtual time at.
// fn must not block; to run blocking code, spawn a process from within fn.
func (s *Sim) At(at time.Duration, fn func()) { s.schedule(at, event{fn: fn}) }

// After schedules fn to run in kernel context d from now.
func (s *Sim) After(d time.Duration, fn func()) { s.schedule(s.now+d, event{fn: fn}) }

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
	if len(*s.earliest()) > 0 {
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
// callbacks itself and lends control to the processes. While a process has
// control the driver is parked on s.driver, and processes pass control among
// themselves (see Proc.block) until something only the driver may do comes
// up, so one receive here can cover many events.
func (s *Sim) run(horizon time.Duration) {
	s.horizon = horizon
	for {
		h := s.earliest()
		if len(*h) == 0 || (*h)[0].at > horizon {
			return
		}
		e := h.pop()
		s.now = e.at
		switch {
		case e.fn != nil:
			e.fn()
		case e.timeout:
			e.p.expire(e.gen)
		default:
			e.p.switchTo()
			<-s.driver
		}
		s.checkPanic()
	}
}

// nextProc pops events on behalf of a process giving control up and returns
// the process to hand it to. It returns nil when control must go back to the
// driver: the next event is a callback or lies past the horizon, nothing is
// scheduled, or a process has panicked.
func (s *Sim) nextProc() *Proc {
	for s.panicVal == nil {
		h := s.earliest()
		if len(*h) == 0 || (*h)[0].fn != nil || (*h)[0].at > s.horizon {
			break
		}
		e := h.pop()
		s.now = e.at
		if !e.timeout {
			return e.p
		}
		e.p.expire(e.gen)
	}
	return nil
}

// NextEventTime peeks the earliest pending event time without disturbing the
// heap. ok is false when nothing is scheduled.
func (s *Sim) NextEventTime() (at time.Duration, ok bool) {
	h := *s.earliest()
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
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
	sim  *Sim
	name string
	id   int
	fn   func(*Proc) // body; its goroutine starts at the first wake
	// resume is signalled to hand control to this process. Buffered so the
	// goroutine handing over never waits for p to reach its receive.
	resume chan struct{}

	// Wait record: what a queue or resource hands a blocked process. It
	// lives here, not in a record of its own, because a process blocks on
	// one thing at a time.
	val any   // value delivered to a getter, or held by a blocked putter
	ok  bool  // delivery succeeded (false: queue closed)
	n   int64 // units requested from a resource
	// timedQ is the queue p waits on with a timeout armed; delivery and
	// expiry both clear it, so whichever comes second finds nothing to do.
	// timer numbers p's timed waits: a timeout event carrying an older
	// number belongs to a wait that is over and pops as a no-op. (It would
	// take 2^32 timed waits inside one timeout to confuse two.)
	timedQ   *Queue
	timer    uint32
	timedOut bool
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.now }

// Spawn creates a process executing fn and schedules it to start at the
// current virtual time. It can be called before Run or from a running
// process or kernel callback.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	s.procSeq++
	p := &Proc{sim: s, name: name, id: s.procSeq, fn: fn, resume: make(chan struct{}, 1)}
	s.live++
	p.wake()
	return p
}

// switchTo hands control to p, whose wake was just popped. The caller must
// give control up right after: park, or exit.
func (p *Proc) switchTo() {
	if fn := p.fn; fn != nil {
		p.fn = nil
		go p.run(fn)
		return
	}
	p.resume <- struct{}{}
}

// handOver passes control on from a process that is about to park or exit:
// to the process whose wake it popped, else (next == nil) to the driver.
func (s *Sim) handOver(next *Proc) {
	if next != nil {
		next.switchTo()
		return
	}
	s.driver <- struct{}{}
}

func (p *Proc) run(fn func(*Proc)) {
	defer func() {
		s := p.sim
		if r := recover(); r != nil {
			s.panicVal = r
			s.panicLoc = p.name
		}
		s.live--
		s.handOver(s.nextProc())
	}()
	fn(p)
}

// block suspends the process until its wake event is popped. It must only
// be invoked by the process's own goroutine, with that wake already
// scheduled or owed by a queue or resource p is linked on. The common case,
// an uncontended Sleep, finds its own wake next and never leaves the
// goroutine.
func (p *Proc) block() {
	s := p.sim
	next := s.nextProc()
	if next == p {
		return
	}
	s.handOver(next)
	<-p.resume
}

// wake schedules the process to resume at the current virtual time. It must
// be called with the kernel or another process in control, never by p itself.
func (p *Proc) wake() { p.sim.schedule(p.sim.now, event{p: p}) }

// deliver completes p's wait with (v, ok) and wakes it. A timeout still
// armed for the wait becomes a no-op.
func (p *Proc) deliver(v any, ok bool) {
	p.val, p.ok = v, ok
	p.timedQ = nil
	p.wake()
}

// expire is timed wait number gen running out. If p is still in that wait it
// leaves the queue and wakes with timedOut set; otherwise a delivery got
// there first and the event is stale.
func (p *Proc) expire(gen uint32) {
	q := p.timedQ
	if q == nil || p.timer != gen {
		return
	}
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
	p.sim.schedule(p.sim.now+d, event{p: p})
	p.block()
}

// Yield gives other ready processes and events at the current instant a
// chance to run.
func (p *Proc) Yield() { p.Sleep(0) }
