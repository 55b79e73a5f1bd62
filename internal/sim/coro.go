//go:build go1.23

package sim

import "iter"

// start makes fn the body of p's coroutine; the first next runs it.
//
// iter.Pull is Go 1.23, one release past the module's go directive, and the
// build tag is what lets this file use it. The tag goes when the directive
// is raised to 1.24 (ROADMAP item 24(i)).
func (p *Proc) start(fn func(*Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.run(fn)
	})
}
