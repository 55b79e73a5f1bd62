//go:build go1.23

package sim

import "iter"

// maxIdleCoros caps how many finished coroutines a Sim keeps parked for
// reuse; a burst of short-lived processes beyond it lets the rest end.
const maxIdleCoros = 1024

// coro is a process coroutine. When its body returns it does not end but
// parks on its Sim's idle list, and a later Spawn in the same run runs the
// next body on it: a spawn that finds one parked costs no iter.Pull. A body
// that panicked or called runtime.Goexit ends its coroutine, and the end of
// a run ends every parked one (Sim.stopIdle).
//
// iter.Pull is Go 1.23, one release past the module's go directive, and the
// build tag is what lets this file use it. The tag goes when the directive
// is raised to 1.24 (ROADMAP item 24(i)).
type coro struct {
	next func() (struct{}, bool)
	stop func()
	p    *Proc // the process whose body runs next, nil while parked
	fn   func(*Proc)
}

// start makes fn the body of p's coroutine, a parked one if there is one;
// the first next runs it.
func (s *Sim) start(p *Proc, fn func(*Proc)) {
	var c *coro
	if n := len(s.idle); n > 0 {
		c = s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
	} else {
		c = &coro{}
		c.next, c.stop = iter.Pull(c.loop)
	}
	c.p, c.fn = p, fn
	p.next = c.next
}

// loop is the coroutine: one body after another, parked in between. A body
// that called runtime.Goexit never returns here.
func (c *coro) loop(yield func(struct{}) bool) {
	for {
		p := c.p
		p.yield = yield
		panicked := p.run(c.fn)
		s := p.sim
		c.p, c.fn = nil, nil
		if panicked || len(s.idle) >= maxIdleCoros {
			return
		}
		s.idle = append(s.idle, c)
		// Give control on as an exit does (p.run named whom in s.handTo);
		// the next Spawn to take c resumes it here.
		if !yield(struct{}{}) {
			return // stopIdle
		}
	}
}

// stopIdle ends every parked coroutine. The driver calls it whenever a run
// returns, so a parked coroutine never outlives the run that parked it: a
// Sim left with events pending (a horizon, a closed fixture) holds no idle
// goroutine for every later collection to scan.
func (s *Sim) stopIdle() {
	for i, c := range s.idle {
		s.idle[i] = nil
		c.stop()
	}
	s.idle = s.idle[:0]
}
