package cluster

import (
	"math/bits"

	"rpcoib/internal/bufpool"
)

// Simulated-socket frames. A socket Send only borrows its slice, and the
// simulated socket delivers the payload after the wire delay, so it must
// own a copy: the frame. Frames come from the Cluster's free lists, one per
// power-of-two size class, and go back when the receiver releases them. All
// of a cluster's processes run on one kernel, one at a time, so the lists
// need no lock.

const (
	minFrameShift = 6  // the smallest class holds 64 bytes
	maxFrameShift = 16 // the largest holds 64 KiB; a larger payload gets a plain slice
	numFrameClass = maxFrameShift - minFrameShift + 1
	// frameClassBytes caps what one class keeps on its free list, so a burst
	// of large frames pins at most this much per class once it is over.
	frameClassBytes = 256 << 10
)

// Frame states. A frame is free on its class's list, lent from Recv to its
// holder, or abandoned: the holder called Recv again before releasing it,
// so it is left to the holder and the collector and is never recycled.
const (
	frameFree = iota
	frameLent
	frameAbandoned
)

// frame is one pooled payload buffer.
type frame struct {
	b       []byte // the whole class capacity
	class   uint8
	state   uint8
	pool    *framePool
	holder  *sockConn // the conn whose Recv lent it, while lent
	release func()    // f.put, bound once so that lending allocates nothing
}

// framePool is a cluster's frame free lists.
type framePool struct {
	free [numFrameClass][]*frame
}

// get returns a free frame holding at least n bytes, or nil when n is
// beyond the largest class.
func (fp *framePool) get(n int) *frame {
	class := 0
	if n > 1<<minFrameShift {
		class = bits.Len(uint(n-1)) - minFrameShift
	}
	if class >= numFrameClass {
		return nil
	}
	if l := fp.free[class]; len(l) > 0 {
		f := l[len(l)-1]
		fp.free[class] = l[:len(l)-1]
		return f
	}
	f := &frame{b: make([]byte, 1<<(minFrameShift+class)), class: uint8(class), pool: fp}
	f.release = f.put
	return f
}

// lend marks f as handed to c's caller by Recv.
func (f *frame) lend(c *sockConn) {
	f.state, f.holder = frameLent, c
}

// abandon leaves a lent frame to its holder for good: its release becomes a
// no-op, so the frame can never be freed under a view still reading it.
func (f *frame) abandon() {
	f.state, f.holder = frameAbandoned, nil
}

// put is a lent frame's release: it returns exactly this frame to its free
// list, unless the frame was abandoned or is already free. A class at its
// cap lets the frame go to the collector. The release is bound once per
// frame, as TCP's is per receive buffer, so a second call after the frame
// has been lent again would free the newer lend; transport.Conn.Recv's
// contract (release exactly once) rules that out.
func (f *frame) put() {
	if f.state != frameLent {
		return
	}
	if f.holder.lent == f {
		f.holder.lent = nil
	}
	f.state, f.holder = frameFree, nil
	f.recycle()
}

// recycle puts a frame no one holds back on its free list.
func (f *frame) recycle() {
	if bufpool.Poison {
		bufpool.PoisonFill(f.b)
	}
	l := &f.pool.free[f.class]
	if len(*l) < frameClassBytes>>(minFrameShift+int(f.class)) {
		*l = append(*l, f)
	}
}
